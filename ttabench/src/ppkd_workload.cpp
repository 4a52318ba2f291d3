// ppkd_mix: one client in a closed loop against the scenario daemon over
// its AF_UNIX socket.  Each round starts a daemon on a fresh state dir,
// sends cache misses (phase 1), restarts the daemon on the populated dir
// and resubmits every phase-1 request -- now cache hits -- interleaved with
// misses on fresh seeds (phase 2).

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/campaign.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "io/atomic_file.hpp"
#include "io/json_reader.hpp"
#include "obs/metrics.hpp"
#include "serve/cache.hpp"
#include "serve/scenario.hpp"
#include "verify/markov.hpp"

extern char** environ;

namespace tta {
namespace {

namespace fs = std::filesystem;
namespace pp = ppk::pp;

/// Seconds a request may take before the run gives up on the daemon.
constexpr int kRequestTimeoutMs = 60'000;

/// The daemon's campaign chunk (interactions) and checkpoint cadence
/// (chunks), passed on its command line; the traced in-process replay uses
/// the same values.
constexpr std::uint64_t kChunkInteractions = 1ULL << 16;
constexpr std::uint32_t kCheckpointEveryChunks = 4;

/// A line-oriented AF_UNIX stream connection.
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send_line(const std::string& line) {
    std::string data = line + "\n";
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next line without its newline; nullopt on EOF, error or timeout.
  std::optional<std::string> read_line() {
    for (;;) {
      const std::size_t end = buffer_.find('\n');
      if (end != std::string::npos) {
        std::string line = buffer_.substr(0, end);
        buffer_.erase(0, end + 1);
        return line;
      }
      pollfd p{fd_, POLLIN, 0};
      const int ready = ::poll(&p, 1, kRequestTimeoutMs);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return std::nullopt;
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

int try_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One daemon process.  The destructor kills and reaps it if it is still
/// running, so no path out of the workload leaves it behind.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket,
         const std::string& state_dir, const std::string& log)
      : socket_(socket) {
    ::unlink(socket.c_str());
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    std::vector<std::string> args = {
        binary,
        "--socket",
        socket,
        "--state-dir",
        state_dir,
        "--chunk",
        std::to_string(kChunkInteractions),
        "--checkpoint-every",
        std::to_string(kCheckpointEveryChunks)};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + binary + ": " +
                               std::strerror(rc));
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Connects (retrying while the daemon starts) and waits for a pong.
  std::unique_ptr<Connection> connect_and_ping() {
    const double deadline = now_s() + 30.0;
    int fd = -1;
    while ((fd = try_connect(socket_)) < 0) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("ppkd exited during start-up");
      }
      if (now_s() > deadline) throw std::runtime_error("ppkd did not listen");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    auto connection = std::make_unique<Connection>(fd);
    if (!connection->send_line("{\"op\": \"ping\"}")) {
      throw std::runtime_error("ping failed");
    }
    const auto pong = connection->read_line();
    if (!pong || pong->find("\"pong\"") == std::string::npos) {
      throw std::runtime_error("no pong from ppkd");
    }
    return connection;
  }

  /// Peak resident set size of the daemon so far, in MB.
  [[nodiscard]] double peak_rss_mb() const {
    return pid_ > 0 ? process_peak_rss_mb(pid_) : 0.0;
  }

  /// Asks the daemon to exit and reaps it.
  void shutdown(Connection& connection) {
    if (connection.send_line("{\"op\": \"shutdown\"}")) {
      while (const auto line = connection.read_line()) {
        if (line->find("\"bye\"") != std::string::npos) break;
      }
    }
    int status = 0;
    const double deadline = now_s() + 30.0;
    while (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() > deadline) return;  // the destructor kills it
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// A submitted scenario and what came back for it.
struct Request {
  std::string scenario;  // the ppk-scenario-v1 document
  const char* kind = "";
  bool markov = false;
  pp::GroupId k = 2;
  std::uint32_t n = 0;
};

std::string scenario_json(const char* protocol, unsigned k, unsigned n,
                          const char* topology, const char* oracle,
                          const char* mode, unsigned trials,
                          std::uint64_t seed, std::uint64_t budget) {
  char buffer[1024];
  std::snprintf(
      buffer, sizeof buffer,
      "{\"schema\": \"ppk-scenario-v1\", \"protocol\": \"%s\", \"k\": %u, "
      "\"n\": %u, \"topology\": {\"kind\": \"%s\", \"p\": 0.5}, "
      "\"fairness\": {\"policy\": \"uniform-random\", \"epsilon\": 1.0}, "
      "\"oracle\": {\"kind\": \"%s\", \"window\": 262144}, \"engine\": "
      "\"auto\", \"mode\": \"%s\", \"trials\": %u, \"seed\": %llu, "
      "\"budget\": %llu, \"faults\": []}",
      protocol, k, n, topology, oracle, mode, trials,
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(budget));
  return buffer;
}

/// The i-th simulate miss of a sequence drawn from `stream`: the
/// k-partition, the weak k-partition and graph bipartition on a ring take
/// turns, each at an n from a narrow range, so every round and every seed
/// carries about the same work.
Request simulate_request(int i, std::uint64_t stream) {
  constexpr unsigned kTrials = 8;
  const std::uint64_t pick = stream % 1000;
  const std::uint64_t seed = (stream >> 20) % 1'000'000'000 + 1;
  Request request;
  switch (i % 3) {
    case 0:
      request.kind = "kpartition";
      request.k = static_cast<pp::GroupId>(3 + (stream >> 10) % 2);
      request.n = static_cast<std::uint32_t>(240 + pick % 40);
      request.scenario = scenario_json("kpartition", request.k, request.n,
                                       "complete", "stable-pattern",
                                       "simulate", kTrials, seed,
                                       10'000'000'000ULL);
      break;
    case 1:
      request.kind = "weak-kpartition";
      request.k = 3;
      request.n = static_cast<std::uint32_t>(400 + pick % 40);
      request.scenario = scenario_json("weak-kpartition", 3, request.n,
                                       "complete", "silence", "simulate",
                                       kTrials, seed, 1'000'000'000'000ULL);
      break;
    default:
      request.kind = "graph-bipartition";
      request.n = static_cast<std::uint32_t>(96 + pick % 8);
      request.scenario = scenario_json("graph-bipartition", 2, request.n,
                                       "ring", "stable-pattern", "simulate",
                                       kTrials, seed, 10'000'000'000ULL);
      break;
  }
  return request;
}

/// The i-th markov miss of a round: the k-partition at k = 2, small enough
/// for the dense back end to check it.  Exact answers are cached by
/// scenario alone, so each i gets its own n.
Request markov_request(int i, std::uint64_t stream) {
  Request request;
  request.kind = "markov";
  request.markov = true;
  request.k = 2;
  request.n = static_cast<std::uint32_t>(30 + 5 * i + stream % 5);
  request.scenario = scenario_json("kpartition", 2, request.n, "complete",
                                   "stable-pattern", "markov", 1, 1, 1000);
  return request;
}

std::string submit_line(const std::string& id, const Request& request) {
  return "{\"op\": \"submit\", \"id\": \"" + id + "\", \"scenario\": " +
         request.scenario + "}";
}

/// Frames of one submit, up to and including the terminal frame.
struct Exchange {
  double latency_s = 0.0;
  bool cached = false;
  std::string terminal;  // the result / error / incomplete line
  std::string event;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
};

std::string event_of(const std::string& line) {
  const auto value = ppk::io::parse_json(line);
  if (!value) return "";
  const ppk::io::JsonValue* event = value->find("event");
  return event != nullptr && event->is_string() ? event->as_string() : "";
}

Exchange submit(Connection& connection, const std::string& id,
                const Request& request) {
  Exchange exchange;
  const double start = now_s();
  if (!connection.send_line(submit_line(id, request))) {
    throw std::runtime_error("ppkd connection lost");
  }
  for (;;) {
    const auto line = connection.read_line();
    if (!line) throw std::runtime_error("ppkd stopped answering (" + id + ")");
    ++exchange.frames;
    exchange.bytes += line->size() + 1;
    // Cheap prefix tests on the hot path; the full parse is in the checks.
    if (line->find("\"event\": \"accepted\"") != std::string::npos) {
      exchange.cached = line->find("\"cached\": true") != std::string::npos;
      continue;
    }
    if (line->find("\"event\": \"result\"") != std::string::npos ||
        line->find("\"event\": \"error\"") != std::string::npos ||
        line->find("\"event\": \"incomplete\"") != std::string::npos) {
      exchange.latency_s = now_s() - start;
      exchange.terminal = *line;
      exchange.event = event_of(*line);
      return exchange;
    }
  }
}

double number_of(const ppk::io::JsonValue* value) {
  if (value == nullptr || !value->is_number()) return std::nan("");
  return std::strtod(value->scalar.c_str(), nullptr);
}

/// Exact E[T] of the k-partition at (k, n) from the dense back end.
std::optional<double> dense_expected(pp::GroupId k, std::uint32_t n) {
  const ppk::core::KPartitionProtocol protocol(k);
  const pp::TransitionTable table(protocol);
  pp::Counts initial(table.num_states(), 0);
  initial[protocol.initial_state()] = n;
  ppk::verify::MarkovOptions options;
  options.method = ppk::verify::MarkovMethod::kDense;
  const auto analysis =
      ppk::verify::MarkovAnalysis::try_create(table, initial, options);
  if (!analysis) return std::nullopt;
  return analysis->expected_hitting_time([&](const pp::Counts& c) {
    return ppk::core::matches_stable_pattern(protocol, n, c);
  });
}

}  // namespace

void run_ppkd_mix(const Options& options, Tracer& tracer, Report& report) {
  report.unit = "requests";
  if (options.ppkd.empty()) throw std::runtime_error("--ppkd is required");
  const std::string root = options.work_dir + "/ppkd-" +
                           std::to_string(static_cast<long>(::getpid()));
  fs::remove_all(root);
  fs::create_directories(root);
  const std::string socket = root + "/ppkd.sock";
  const std::string log = root + "/ppkd.log";

  constexpr int kPhase1Simulate = 54;
  constexpr int kPhase1Markov = 6;
  constexpr int kPhase2Miss = 30;
  constexpr int kRestarts = 5;

  std::vector<double> miss_latency;
  std::map<std::string, std::vector<double>> miss_by_kind;
  std::vector<double> hit_latency;
  Gauge gauge;
  std::vector<double> setup_samples;
  double peak_rss = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t frame_bytes = 0;
  std::uint64_t failed = 0;
  // Checked after the rounds: markov answers against the dense solve.
  std::vector<std::pair<Request, std::string>> markov_answers;
  // The last round's phase-1 requests and result lines (traced replays).
  std::vector<std::pair<Request, std::string>> last_misses;

  const auto account = [&](const Exchange& e, const Request& request,
                           const std::string& id) {
    ++report.attempted;
    frames += e.frames;
    frame_bytes += e.bytes;
    if (e.event != "result") {
      ++failed;
      report.note("request " + id + " ended with " + e.terminal);
      return false;
    }
    if (!request.markov) {
      const auto value = ppk::io::parse_json(e.terminal);
      const ppk::io::JsonValue* trials =
          value ? value->find("trials") : nullptr;
      bool all_stabilized = trials != nullptr && trials->is_array() &&
                            !trials->items.empty();
      if (all_stabilized) {
        for (const ppk::io::JsonValue& t : trials->items) {
          const ppk::io::JsonValue* s = t.find("stabilized");
          if (s == nullptr || !s->is_bool() || !s->as_bool()) {
            all_stabilized = false;
          }
        }
      }
      report.check(all_stabilized, id + ": every trial stabilized");
    }
    return true;
  };

  const Rounds rounds = run_rounds(options.seconds, 1, gauge, [&](int r) {
    const auto round_span = tracer.span("ppkd_mix.round");
    const std::string state = root + "/state-" + std::to_string(r);
    fs::create_directories(state);

    std::vector<Request> phase1;
    for (int i = 0; i < kPhase1Simulate; ++i) {
      phase1.push_back(simulate_request(i, derive(options.seed, 100, i)));
    }
    for (int i = 0; i < kPhase1Markov; ++i) {
      phase1.insert(phase1.begin() + (i * 9 + 4),
                    markov_request(i, derive(options.seed, 200, i)));
    }
    std::vector<std::string> phase1_results(phase1.size());
    // The answer is the requests' summed latency (closed loop: the phases'
    // wall time less the client's own checks and the gauge samples).
    double answer = 0.0;
    const auto spend = [&](double latency) {
      answer += latency;
      gauge.after(latency);
    };
    std::uint64_t request_id = 0;

    {
      Daemon daemon(options.ppkd, socket, state, log);
      auto connection = daemon.connect_and_ping();
      for (std::size_t i = 0; i < phase1.size(); ++i) {
        const std::string id =
            "r" + std::to_string(r) + "-m" + std::to_string(i);
        const auto span = tracer.span("ppkd.request", ++request_id);
        const Exchange e = submit(*connection, id, phase1[i]);
        spend(e.latency_s);
        miss_latency.push_back(e.latency_s);
        miss_by_kind[phase1[i].kind].push_back(e.latency_s);
        report.check(!e.cached, id + ": phase-1 request is a miss");
        if (account(e, phase1[i], id)) phase1_results[i] = e.terminal;
      }
      peak_rss = std::max(peak_rss, daemon.peak_rss_mb());
      daemon.shutdown(*connection);
    }

    // Restart on the populated state dir: the set-up a user waits for,
    // timed kRestarts times a round; the last daemon serves phase 2.
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<Connection> connection;
    for (int restarts = 0; restarts < kRestarts; ++restarts) {
      if (daemon) daemon->shutdown(*connection);
      const double restart = now_s();
      daemon = std::make_unique<Daemon>(options.ppkd, socket, state, log);
      connection = daemon->connect_and_ping();
      setup_samples.push_back(gauge.scale(now_s() - restart));
    }

    int fresh = 0;
    for (std::size_t i = 0; i < phase1.size(); ++i) {
      const std::string id =
          "r" + std::to_string(r) + "-h" + std::to_string(i);
      {
        const auto span = tracer.span("ppkd.request", ++request_id);
        const Exchange e = submit(*connection, id, phase1[i]);
        spend(e.latency_s);
        hit_latency.push_back(e.latency_s);
        report.check(e.cached, id + ": resubmission is a cache hit");
        if (account(e, phase1[i], id)) {
          report.check(e.terminal == phase1_results[i],
                       id + ": hit is byte-equal to its miss");
        }
      }
      if (fresh < kPhase2Miss && i % 2 == 1) {
        const Request miss =
            simulate_request(fresh, derive(options.seed, 300, fresh));
        const std::string miss_id =
            "r" + std::to_string(r) + "-f" + std::to_string(fresh++);
        const auto span = tracer.span("ppkd.request", ++request_id);
        const Exchange e = submit(*connection, miss_id, miss);
        spend(e.latency_s);
        miss_latency.push_back(e.latency_s);
        miss_by_kind[miss.kind].push_back(e.latency_s);
        report.check(!e.cached, miss_id + ": fresh seed is a miss");
        account(e, miss, miss_id);
      }
    }
    peak_rss = std::max(peak_rss, daemon->peak_rss_mb());
    daemon->shutdown(*connection);

    last_misses.clear();
    for (std::size_t i = 0; i < phase1.size(); ++i) {
      if (phase1[i].markov) {
        markov_answers.emplace_back(phase1[i], phase1_results[i]);
      }
      last_misses.emplace_back(phase1[i], phase1_results[i]);
    }
    fs::remove_all(state);
    return answer;
  });

  report.failed = failed;
  report.end_to_end["answer_s"] = rounds.answer_s();
  report.note(rounds.describe());
  report.end_to_end["setup_s"] = median(setup_samples);
  report.end_to_end["peak_rss_mb"] = peak_rss;
  const double miss_p50 = quantile(miss_latency, 0.5) * 1e3;
  const double miss_p90 = quantile(miss_latency, 0.9) * 1e3;
  const double hit_p50 = quantile(hit_latency, 0.5) * 1e3;
  const double hit_p90 = quantile(hit_latency, 0.9) * 1e3;
  char line[256];
  std::snprintf(line, sizeof line,
                "ppkd_mix: %zu rounds; miss p50 %.3f ms p90 %.3f ms (%zu); "
                "hit p50 %.4f ms p90 %.4f ms (%zu)",
                rounds.seconds.size(), miss_p50, miss_p90, miss_latency.size(),
                hit_p50, hit_p90, hit_latency.size());
  report.note(line);
  for (const auto& [kind, latencies] : miss_by_kind) {
    std::snprintf(line, sizeof line,
                  "  %s misses: %zu, median %.3f ms, p90 %.3f ms", kind.c_str(),
                  latencies.size(), quantile(latencies, 0.5) * 1e3,
                  quantile(latencies, 0.9) * 1e3);
    report.note(line);
  }
  report.check(miss_latency.size() >= 40 && hit_latency.size() >= 40,
               "at least 40 miss and 40 hit samples");

  // Markov frames against an in-process dense solve.
  std::map<std::uint32_t, std::optional<double>> dense;
  for (const auto& [request, result] : markov_answers) {
    if (result.empty()) continue;
    auto it = dense.find(request.n);
    if (it == dense.end()) {
      it = dense.emplace(request.n, dense_expected(request.k, request.n)).first;
    }
    const auto value = ppk::io::parse_json(result);
    const double served =
        number_of(value ? value->find("expected_interactions") : nullptr);
    report.check(it->second.has_value() &&
                     std::abs(served - *it->second) <=
                         1e-9 * std::abs(*it->second),
                 "markov n=" + std::to_string(request.n) +
                     ": served E[T] matches the dense solve");
  }

  if (tracer.enabled()) {
    report.layer["ppkd.miss_p50_ms"] = miss_p50;
    report.layer["ppkd.miss_p90_ms"] = miss_p90;
    report.layer["ppkd.hit_p50_ms"] = hit_p50;
    report.layer["ppkd.hit_p90_ms"] = hit_p90;
    report.layer["ppkd.miss_samples"] =
        static_cast<double>(miss_latency.size());
    report.layer["ppkd.hit_samples"] = static_cast<double>(hit_latency.size());
    // Frames are counted over every round; report them per round.
    const double per_round = 1.0 / static_cast<double>(rounds.seconds.size());
    report.layer["serve.frames"] = static_cast<double>(frames) * per_round;
    report.layer["serve.frame_bytes"] =
        static_cast<double>(frame_bytes) * per_round;

    // In-process replay of the last round's misses through the layers the
    // daemon uses: parse, hash, cache miss / store / hit, atomic writes and
    // the checkpointed campaign.
    const std::string replay = root + "/replay";
    fs::create_directories(replay);
    ppk::serve::ResultCache cache(replay + "/cache");
    ppk::obs::MetricsRegistry runtime;
    double checkpoint_bytes = 0.0;
    std::uint64_t index = 0;
    for (const auto& [request, result] : last_misses) {
      if (result.empty()) continue;
      ++index;
      std::optional<ppk::serve::ScenarioSpec> spec;
      {
        const auto span = tracer.span("serve.parse", index);
        spec = ppk::serve::parse_scenario(request.scenario);
      }
      report.check(spec.has_value(), "replayed scenario parses");
      if (!spec) continue;
      std::string hash;
      {
        const auto span = tracer.span("serve.hash", index);
        hash = ppk::serve::scenario_hash_hex(*spec);
      }
      const auto find = [&](const char* name) {
        const auto span = tracer.span(name, index);
        return request.markov ? cache.find_exact(hash)
                              : cache.find(hash, spec->seed);
      };
      report.check(!find("serve.cache_find_miss"), "replay cache starts empty");
      {
        const auto span = tracer.span("serve.cache_store", index);
        if (request.markov) {
          cache.store_exact(hash, result);
        } else {
          cache.store(hash, spec->seed, result);
        }
      }
      const auto hit = find("serve.cache_find_hit");
      report.check(hit.has_value() && *hit == result,
                   "replay cache returns the stored frame");
      {
        const auto span = tracer.span("io.atomic_write", index);
        ppk::io::AtomicFileWriter writer(replay + "/frame-" +
                                         std::to_string(index) + ".json");
        writer.stream() << result << '\n';
        report.check(writer.commit(), "atomic frame write");
      }
      if (request.markov) continue;
      const ppk::serve::ScenarioRuntime runtime_objects(*spec);
      ppk::core::CampaignOptions campaign = runtime_objects.campaign_options();
      campaign.mc.threads = 1;
      campaign.chunk_interactions = kChunkInteractions;
      campaign.checkpoint_every_chunks = kCheckpointEveryChunks;
      campaign.checkpoint_path =
          replay + "/ckpt-" + std::to_string(index) + ".json";
      campaign.runtime_metrics = &runtime;
      ppk::core::CampaignResult outcome;
      {
        const auto span = tracer.span("core.campaign.run", index);
        outcome = ppk::core::run_campaign(
            runtime_objects.protocol(), runtime_objects.table(), spec->n,
            runtime_objects.oracle_factory(), campaign);
      }
      report.check(outcome.complete && outcome.error.empty(),
                   "replayed campaign completes");
      std::error_code error;
      const auto size = fs::file_size(campaign.checkpoint_path, error);
      if (!error) checkpoint_bytes += static_cast<double>(size);
    }
    report.layer["serve.parse_s"] = tracer.self_s("serve.parse");
    report.layer["serve.hash_s"] = tracer.self_s("serve.hash");
    report.layer["serve.cache_find_miss_s"] =
        tracer.self_s("serve.cache_find_miss");
    report.layer["serve.cache_find_hit_s"] =
        tracer.self_s("serve.cache_find_hit");
    report.layer["serve.cache_store_s"] = tracer.self_s("serve.cache_store");
    report.layer["io.atomic_write_s"] = tracer.self_s("io.atomic_write");
    report.layer["io.checkpoint_bytes"] = checkpoint_bytes;
    report.layer["core.campaign.run_s"] = tracer.self_s("core.campaign.run");
    const auto& counters = runtime.counters();
    const auto checkpoints = counters.find("campaign.checkpoints");
    report.layer["core.checkpoints"] =
        checkpoints == counters.end()
            ? 0.0
            : static_cast<double>(checkpoints->second.value());
    const auto& histograms = runtime.histograms();
    const auto writes = histograms.find("campaign.checkpoint.write_us");
    report.layer["core.checkpoint.write_s"] =
        writes == histograms.end() ? 0.0 : histogram_sum(writes->second) * 1e-6;
  }
  fs::remove_all(root);
}

}  // namespace tta
