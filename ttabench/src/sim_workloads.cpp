// paper_sweep and large_n: stabilized trials through pp::run_monte_carlo
// with Engine::kAuto.  The timed rounds run the protocol's own oracle; an
// untimed pass of the same trials through a forwarding oracle rebuilds
// each trial's final configuration for the answer checks.

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/weak_kpartition.hpp"
#include "obs/metrics.hpp"
#include "pp/monte_carlo.hpp"
#include "util/aligned.hpp"
#include "util/log_fact.hpp"
#include "util/simd.hpp"
#include "verify/markov.hpp"

extern char** environ;

namespace tta {
namespace {

namespace pp = ppk::pp;
namespace core = ppk::core;

/// Oracle-callback accounting of a traced run.  Reading the clock costs
/// more than most callbacks, so one call in kOracleSample is timed and the
/// total is scaled up.  Each timed call is preceded by an empty timed
/// region at the same site, whose length -- the clock's own cost in that
/// context -- is subtracted.
constexpr std::uint64_t kOracleSample = 64;

struct OracleClock {
  std::uint64_t calls = 0;
  double seconds = 0.0;
};

/// Forwards every callback to the protocol's real oracle.  With a
/// configuration attached it keeps the configuration the callbacks imply,
/// so the benchmark can check each trial's final configuration without
/// trusting the engine's own view; with a clock attached it times the
/// forwarded calls.  The timed rounds of an untraced run do not use it.
class ForwardingOracle final : public pp::StabilityOracle {
 public:
  ForwardingOracle(std::unique_ptr<pp::StabilityOracle> inner,
                   pp::Counts* config, OracleClock* clock)
      : inner_(std::move(inner)), config_(config), clock_(clock) {}

  void reset(const pp::Counts& counts) override {
    const Timed timed(clock_);
    inner_->reset(counts);
    if (config_ != nullptr) *config_ = counts;
  }

  void on_transition(pp::StateId p, pp::StateId q, pp::StateId p_next,
                     pp::StateId q_next) override {
    const Timed timed(clock_);
    inner_->on_transition(p, q, p_next, q_next);
    if (config_ == nullptr) return;
    pp::Counts& c = *config_;
    --c[p];
    --c[q];
    ++c[p_next];
    ++c[q_next];
  }

  void on_batch(const pp::Counts& counts, std::uint64_t interactions,
                std::uint64_t effective) override {
    const Timed timed(clock_);
    inner_->on_batch(counts, interactions, effective);
    if (config_ != nullptr) *config_ = counts;
  }

  [[nodiscard]] bool stable() const override {
    const Timed timed(clock_);
    return inner_->stable();
  }

  void on_external_change(const pp::Counts& counts) override {
    inner_->on_external_change(counts);
    if (config_ != nullptr) *config_ = counts;
  }

  [[nodiscard]] std::vector<std::uint64_t> save_state() const override {
    return inner_->save_state();
  }

  void restore_state(const std::vector<std::uint64_t>& state) override {
    inner_->restore_state(state);
  }

 private:
  /// Times one forwarded call when a clock is attached.
  class Timed {
   public:
    explicit Timed(OracleClock* clock)
        : clock_(clock != nullptr && ++clock->calls % kOracleSample == 0
                     ? clock
                     : nullptr) {
      if (clock_ != nullptr) {
        const double empty = now_s();
        start_ = now_s();
        clock_cost_ = start_ - empty;
      }
    }
    ~Timed() {
      if (clock_ != nullptr) {
        const double spent = now_s() - start_ - clock_cost_;
        clock_->seconds += std::max(0.0, spent) * kOracleSample;
      }
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    OracleClock* clock_;
    double start_ = 0.0;
    double clock_cost_ = 0.0;
  };

  std::unique_ptr<pp::StabilityOracle> inner_;
  pp::Counts* config_;
  OracleClock* clock_;
};

/// One (protocol, n) point with its per-round trial count.
struct Row {
  std::string label;
  std::unique_ptr<pp::Protocol> protocol;
  std::unique_ptr<pp::TransitionTable> table;
  std::uint32_t n = 0;
  std::uint32_t trials = 1;
  /// Weak family: silence oracle and a silence check.
  bool weak = false;
  std::uint64_t budget = pp::kDefaultInteractionBudget;
};

Row make_row(std::string label, bool weak, pp::GroupId k, std::uint32_t n,
             std::uint32_t trials, std::uint64_t budget) {
  Row row;
  row.label = std::move(label);
  if (weak) {
    row.protocol = std::make_unique<core::WeakKPartitionProtocol>(k);
  } else {
    row.protocol = std::make_unique<core::KPartitionProtocol>(k);
  }
  row.table = std::make_unique<pp::TransitionTable>(*row.protocol);
  row.n = n;
  row.trials = trials;
  row.weak = weak;
  row.budget = budget;
  return row;
}

const char* engine_key(pp::Engine engine) {
  switch (engine) {
    case pp::Engine::kAgentArray: return "agent";
    case pp::Engine::kJump: return "jump";
    case pp::Engine::kBatch: return "batch";
    case pp::Engine::kBatchSharded: return "sharded";
    default: return "other";
  }
}

/// Per-engine totals of a traced run.
struct EngineTotals {
  double seconds = 0.0;
  double oracle_seconds = 0.0;
  double interactions = 0.0;
  double effective = 0.0;
  std::uint64_t rows = 0;
  ppk::obs::MetricsRegistry registry;
};

/// Accounting shared by the simulation workloads.
struct SimLayers {
  bool traced = false;
  OracleClock clock;
  std::map<std::string, EngineTotals> kauto;      // kAuto rows by engine
  std::map<std::string, EngineTotals> reference;  // forced-engine rows
};

/// Why a row is run.
enum class Pass {
  /// A timed round: kAuto with the protocol's own oracle (traced runs wrap
  /// it in a clocked forwarding oracle).
  kTimed,
  /// The untimed answer check: kAuto through a forwarding oracle that
  /// rebuilds every trial's final configuration.
  kCheck,
  /// Traced runs only: the same trials forced onto the jump engine.
  kReference,
};

struct RowRun {
  pp::Engine engine = pp::Engine::kAuto;
  double seconds = 0.0;
  pp::MonteCarloResult result;
  std::deque<pp::Counts> finals;
};

/// Runs one row's trials for `pass`.  Trials are deterministic per seed
/// at one thread, so every pass of a row with the same seed runs the same
/// trials.
RowRun run_row(const Row& row, std::uint64_t seed, Pass pass, Tracer& tracer,
               SimLayers& layers) {
  const pp::Engine engine =
      pass == Pass::kReference ? pp::Engine::kJump : pp::Engine::kAuto;
  RowRun run;
  run.engine = pp::resolve_engine(engine, row.n, /*watch=*/false);
  EngineTotals* totals = nullptr;
  if (pass != Pass::kCheck) {
    totals = &(pass == Pass::kReference ? layers.reference
                                        : layers.kauto)[engine_key(run.engine)];
  }

  pp::MonteCarloOptions options;
  options.trials = row.trials;
  options.master_seed = seed;
  options.max_interactions = row.budget;
  options.engine = engine;
  // The agent engine reports through a per-draw hook, which would slow it
  // down far more than anything it tells; its draws are counted from the
  // trial results instead.
  if (layers.traced && totals != nullptr &&
      run.engine != pp::Engine::kAgentArray) {
    options.metrics = &totals->registry;
  }

  OracleClock* clock =
      layers.traced && pass == Pass::kTimed ? &layers.clock : nullptr;
  const bool forward = pass == Pass::kCheck || clock != nullptr;
  const pp::Protocol& protocol = *row.protocol;
  const pp::TransitionTable& table = *row.table;
  const std::uint32_t n = row.n;
  const bool weak = row.weak;
  pp::OracleFactory factory = [&]() -> std::unique_ptr<pp::StabilityOracle> {
    std::unique_ptr<pp::StabilityOracle> inner;
    if (weak) {
      inner = std::make_unique<pp::SilenceOracle>(table);
    } else {
      inner = core::stable_pattern_oracle(
          static_cast<const core::KPartitionProtocol&>(protocol), n);
    }
    if (!forward) return inner;
    pp::Counts* config = nullptr;
    if (pass == Pass::kCheck) config = &run.finals.emplace_back();
    return std::make_unique<ForwardingOracle>(std::move(inner), config, clock);
  };

  const double oracle_before = layers.clock.seconds;
  {
    const auto span =
        tracer.span(pass == Pass::kCheck
                        ? std::string("check.row")
                        : std::string("pp.") + engine_key(run.engine) + ".run");
    const double start = now_s();
    run.result = pp::run_monte_carlo(protocol, table, n, factory, options);
    run.seconds = now_s() - start;
  }
  if (totals != nullptr) {
    totals->seconds += run.seconds;
    totals->oracle_seconds += layers.clock.seconds - oracle_before;
    totals->rows += 1;
    for (const pp::TrialResult& t : run.result.trials) {
      totals->interactions += static_cast<double>(t.interactions);
      totals->effective += static_cast<double>(t.effective);
    }
  }
  return run;
}

/// Trials of a row that did not stabilize, stalled or timed out.
std::uint64_t unstabilized(const RowRun& run) {
  std::uint64_t failed = 0;
  for (const pp::TrialResult& t : run.result.trials) {
    if (!t.stabilized || t.stalled || t.timed_out) ++failed;
  }
  return failed;
}

/// Checks every trial of a row's check pass: the final configuration the
/// forwarding oracle rebuilt, and the trial's counts.
void check_row(const Row& row, const RowRun& run, Report& report) {
  const pp::Protocol& protocol = *row.protocol;
  const pp::TransitionTable& table = *row.table;
  report.check(run.finals.size() == run.result.trials.size(),
               row.label + ": one oracle per trial");
  const std::size_t trials =
      std::min(run.finals.size(), run.result.trials.size());
  for (std::size_t i = 0; i < trials; ++i) {
    const pp::TrialResult& t = run.result.trials[i];
    const pp::Counts& c = run.finals[i];
    const std::string where = row.label + " trial " + std::to_string(i);
    // A trial that did not stabilize is counted as failed by the timed
    // rounds, not as a wrong answer.
    if (!t.stabilized || t.stalled || t.timed_out) continue;
    std::uint64_t total = 0;
    std::vector<std::uint64_t> groups(protocol.num_groups(), 0);
    for (pp::StateId s = 0; s < c.size(); ++s) {
      total += c[s];
      groups[protocol.group(s)] += c[s];
    }
    report.check(total == row.n, where + ": final configuration has n agents");
    const auto [lo, hi] = std::minmax_element(groups.begin(), groups.end());
    report.check(*hi - *lo <= 1, where + ": group sizes differ by at most one");
    if (row.weak) {
      bool silent = true;
      for (pp::StateId p = 0; p < c.size(); ++p) {
        for (pp::StateId q = 0; q < c.size() && silent; ++q) {
          const bool pair_present = p == q ? c[p] >= 2 : c[p] > 0 && c[q] > 0;
          if (pair_present && table.effective(p, q)) silent = false;
        }
      }
      report.check(silent, where + ": no effective pair left enabled");
    }
    report.check(t.effective <= t.interactions,
                 where + ": effective <= interactions");
    const std::uint64_t moved = row.n - c[protocol.initial_state()];
    report.check(2 * t.effective >= moved,
                 where + ": 2 * effective >= agents outside the initial state");
  }
}

/// Checks that a timed round ran the check pass's trials: same outcome and
/// the same interaction counts, trial by trial.
void check_same_trials(const Row& row, const RowRun& timed,
                       const RowRun& checked, Report& report) {
  const auto& a = timed.result.trials;
  const auto& b = checked.result.trials;
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].interactions == b[i].interactions &&
           a[i].effective == b[i].effective &&
           a[i].stabilized == b[i].stabilized;
  }
  report.check(same, row.label + ": timed trials equal the checked trials");
}

/// The untimed check pass of a simulation workload: every row once
/// through the forwarding oracle, each final configuration checked.
std::vector<RowRun> check_pass(const std::vector<Row>& rows,
                               std::uint64_t seed, Tracer& tracer,
                               SimLayers& layers, Report& report) {
  const auto span = tracer.span("check.pass");
  std::vector<RowRun> runs;
  runs.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    runs.push_back(
        run_row(rows[i], derive(seed, i), Pass::kCheck, tracer, layers));
    check_row(rows[i], runs.back(), report);
    runs.back().finals.clear();
  }
  return runs;
}

/// Fills the per-layer simulation metrics of a traced run.  The kAuto
/// figures are per round, so counts repeat exactly across runs of a seed
/// whatever number of rounds fits; the jump reference pass ran once.
void report_sim_layers(const SimLayers& layers, std::size_t rounds,
                       Report& report) {
  const double per_round = 1.0 / static_cast<double>(rounds);
  double interactions = 0.0;
  double effective = 0.0;
  double batch_sum = 0.0;
  double batch_count = 0.0;
  for (const auto& [key, totals] : layers.kauto) {
    interactions += totals.interactions;
    effective += totals.effective;
    report.layer["pp.rows." + key] +=
        static_cast<double>(totals.rows) * per_round;
    report.layer["pp." + key + ".run_s"] +=
        (totals.seconds - totals.oracle_seconds) * per_round;
    const auto& counters = totals.registry.counters();
    const auto counter = [&](const char* name) {
      const auto it = counters.find(name);
      return it == counters.end() ? 0.0
                                  : static_cast<double>(it->second.value());
    };
    // Every agent-engine draw is one pairwise advance (the engine's
    // on_step hook leaves sim.advances.pairwise at 0).
    if (key == "agent") {
      report.layer["pp.advances.pairwise"] += totals.interactions * per_round;
    }
    report.layer["pp.advances.thin"] +=
        counter("sim.advances.thin") * per_round;
    report.layer["pp.advances.batch"] +=
        counter("sim.advances.batch") * per_round;
    const auto& histograms = totals.registry.histograms();
    const auto it = histograms.find("sim.advance_size.batch");
    if (it != histograms.end()) {
      batch_sum += histogram_sum(it->second);
      batch_count += static_cast<double>(it->second.total());
    }
  }
  // Per-engine run time excludes the oracle callbacks timed inside it; the
  // ns/interaction figures come from the same time.
  const auto per_interaction = [&](const std::map<std::string, EngineTotals>&
                                       source,
                                   const std::string& key) {
    const auto it = source.find(key);
    if (it == source.end() || it->second.interactions <= 0.0) return;
    report.layer["pp." + key + ".ns_per_interaction"] =
        (it->second.seconds - it->second.oracle_seconds) * 1e9 /
        it->second.interactions;
  };
  for (const char* key : {"agent", "batch", "sharded"}) {
    per_interaction(layers.kauto, key);
  }
  // The jump engine appears only as the forced reference of kAuto's rows.
  if (const auto it = layers.reference.find("jump");
      it != layers.reference.end()) {
    report.layer["pp.jump.run_s"] = it->second.seconds;
    const auto& counters = it->second.registry.counters();
    if (const auto jumps = counters.find("sim.advances.jump");
        jumps != counters.end()) {
      report.layer["pp.advances.jump"] =
          static_cast<double>(jumps->second.value());
    }
    if (it->second.interactions > 0.0) {
      report.layer["pp.jump.ns_per_interaction"] =
          it->second.seconds * 1e9 / it->second.interactions;
    }
  }
  report.layer["pp.interactions"] = interactions * per_round;
  report.layer["pp.effective"] = effective * per_round;
  report.layer["pp.effective_ratio"] =
      interactions > 0.0 ? effective / interactions : 0.0;
  report.layer["pp.batch_size_mean"] =
      batch_count > 0.0 ? batch_sum / batch_count : 0.0;
  report.layer["core.oracle.calls"] =
      static_cast<double>(layers.clock.calls) * per_round;
  report.layer["core.oracle.s"] = layers.clock.seconds * per_round;
}

/// Fig. 3 points with n <= 2k + this are compared with the dense chain.
constexpr std::uint32_t kExactCheckSlack = 6;

/// Median per-repetition time of `prepare` (run `reps` times per sample,
/// `samples` samples), so microsecond set-up reads above timer noise.
template <class F>
double median_setup(int samples, int reps, F&& prepare) {
  std::vector<double> per_rep;
  for (int s = 0; s < samples; ++s) {
    const double start = now_s();
    for (int r = 0; r < reps; ++r) prepare();
    per_rep.push_back((now_s() - start) / reps);
  }
  return median(per_rep);
}

/// Traced runs only: reruns every row on the jump engine with the same
/// seeds, and notes the rows with n >= min_n with their median kAuto time
/// beside the jump time, so kAuto's choice can be judged.
void jump_reference(const std::vector<Row>& rows,
                    const std::vector<std::vector<double>>& row_seconds,
                    std::uint32_t min_n, std::uint64_t seed, Tracer& tracer,
                    SimLayers& layers, Report& report) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RowRun jump =
        run_row(rows[i], derive(seed, i), Pass::kReference, tracer, layers);
    if (rows[i].n < min_n) continue;
    char line[160];
    std::snprintf(
        line, sizeof line,
        "reference %s, %u trials: kAuto (%s) %.4f s, jump %.4f s",
        rows[i].label.c_str(), rows[i].trials,
        engine_key(pp::resolve_engine(pp::Engine::kAuto, rows[i].n, false)),
        median(row_seconds[i]), jump.seconds);
    report.note(line);
  }
}

/// One timed round of a simulation workload: every row on kAuto, each
/// checked against its check-pass run.  `between(i)` runs untimed before
/// row i.
/// Returns the seconds spent in run_monte_carlo.
template <class F>
double sim_round(const std::vector<Row>& rows,
                 const std::vector<RowRun>& checked, std::uint64_t seed,
                 Tracer& tracer, SimLayers& layers, Gauge& gauge,
                 std::vector<std::vector<double>>& row_seconds,
                 std::uint64_t& failed, Report& report, F&& between) {
  double answer = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    between(i);
    const RowRun run =
        run_row(rows[i], derive(seed, i), Pass::kTimed, tracer, layers);
    answer += run.seconds;
    gauge.after(run.seconds);
    row_seconds[i].push_back(run.seconds);
    report.attempted += rows[i].trials;
    failed += unstabilized(run);
    check_same_trials(rows[i], run, checked[i], report);
  }
  return answer;
}

}  // namespace

void run_paper_sweep(const Options& options, Tracer& tracer, Report& report) {
  report.unit = "trials";
  SimLayers layers;
  layers.traced = tracer.enabled();

  // The Section 5 grid: Fig. 3 (every n from 2k to 15k, k in {4, 6, 8}),
  // Fig. 5 (n = 120..960 step 120, k in {3..6}) and Fig. 6 (n = 960,
  // k | 960 up to 8).
  struct Point {
    const char* figure;
    pp::GroupId k;
    std::uint32_t n;
    std::uint32_t trials;
  };
  std::vector<Point> points;
  for (const pp::GroupId k : {4, 6, 8}) {
    for (std::uint32_t n = 2u * k; n <= 15u * k; ++n) {
      // The smallest points are also checked against the exact E[T]; they
      // get enough trials for a standard error to mean something.
      points.push_back(
          {"fig3", k, n, n <= kExactCheckSlack + 2u * k ? 80u : 20u});
    }
  }
  for (const pp::GroupId k : {3, 4, 5, 6}) {
    for (std::uint32_t n = 120; n <= 960; n += 120) {
      points.push_back({"fig5", k, n, 6});
    }
  }
  for (const pp::GroupId k : {2, 3, 4, 5, 6, 8}) {
    points.push_back({"fig6", k, 960, 2});
  }
  const auto label = [](const Point& p) {
    return std::string(p.figure) + " k=" + std::to_string(p.k) +
           " n=" + std::to_string(p.n);
  };
  std::vector<Row> rows;
  for (const Point& p : points) {
    rows.push_back(make_row(label(p), false, p.k, p.n, p.trials,
                            pp::kDefaultInteractionBudget));
  }

  // Set-up: each point's protocol, transition table and stable pattern,
  // for the whole grid.  A sample repeats it kSetupReps times; samples are
  // taken before every kSetupEvery-th row of every round, so they spread
  // over the run as the rounds do and a fast or slow spell of the host
  // moves their median no more than it moves answer_s.
  constexpr int kSetupReps = 5;
  constexpr std::size_t kSetupEvery = 25;
  Gauge gauge;
  std::vector<double> setup_samples;
  const auto setup_sample = [&](std::size_t i) {
    if (i % kSetupEvery != 0) return;
    const double start = now_s();
    for (int r = 0; r < kSetupReps; ++r) {
      for (const Point& p : points) {
        const core::KPartitionProtocol protocol(p.k);
        const pp::TransitionTable table(protocol);
        const pp::Counts target = core::stable_counts(protocol, p.n);
        if (table.num_states() == 0 || target.empty()) std::abort();
      }
    }
    setup_samples.push_back(gauge.scale((now_s() - start) / kSetupReps));
  };

  const std::vector<RowRun> checked =
      check_pass(rows, options.seed, tracer, layers, report);
  std::vector<std::vector<double>> row_seconds(rows.size());
  std::uint64_t failed = 0;
  const Rounds rounds = run_rounds(options.seconds, 2, gauge, [&](int) {
    const auto round_span = tracer.span("paper_sweep.round");
    return sim_round(rows, checked, options.seed, tracer, layers, gauge,
                     row_seconds, failed, report, setup_sample);
  });
  report.failed = failed;
  report.end_to_end["answer_s"] = rounds.answer_s();
  report.note(rounds.describe());
  report.end_to_end["setup_s"] = median(setup_samples);
  double work = 0.0;
  for (const RowRun& run : checked) {
    for (const pp::TrialResult& t : run.result.trials) {
      work += static_cast<double>(t.interactions);
    }
  }
  report.note("paper_sweep: " + std::to_string(rounds.seconds.size()) +
              " rounds of " + std::to_string(rows.size()) + " points, " +
              std::to_string(work) + " interactions per round; set-up " +
              std::to_string(setup_samples.size()) + " samples");

  // Monte-Carlo mean vs the dense chain's exact E[T] wherever the dense
  // back end reaches (the small-n points of Fig. 3).
  int compared = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (std::string(points[i].figure) != "fig3") continue;
    if (points[i].n > 2u * points[i].k + kExactCheckSlack) continue;
    const auto& protocol =
        static_cast<const core::KPartitionProtocol&>(*rows[i].protocol);
    pp::Counts initial(rows[i].table->num_states(), 0);
    initial[protocol.initial_state()] = rows[i].n;
    ppk::verify::MarkovOptions dense;
    dense.method = ppk::verify::MarkovMethod::kDense;
    dense.explore.max_configs = 1500;
    const auto analysis = ppk::verify::MarkovAnalysis::try_create(
        *rows[i].table, initial, dense);
    if (!analysis) continue;
    const std::uint32_t n = rows[i].n;
    const auto exact = analysis->expected_hitting_time(
        [&](const pp::Counts& c) {
          return core::matches_stable_pattern(protocol, n, c);
        });
    report.check(exact.has_value(), rows[i].label + ": exact E[T] exists");
    if (!exact) continue;
    std::vector<double> xs;
    for (const pp::TrialResult& t : checked[i].result.trials) {
      xs.push_back(static_cast<double>(t.interactions));
    }
    double mean = 0.0;
    for (const double x : xs) mean += x;
    mean /= static_cast<double>(xs.size());
    double var = 0.0;
    for (const double x : xs) var += (x - mean) * (x - mean);
    var /= static_cast<double>(xs.size() - 1);
    const double se = std::sqrt(var / static_cast<double>(xs.size()));
    report.check(std::abs(mean - *exact) <= 4.0 * se,
                 rows[i].label + ": Monte-Carlo mean " + std::to_string(mean) +
                     " within 4 SE of exact " + std::to_string(*exact));
    ++compared;
  }
  report.check(compared >= 6, "at least six points compared with exact E[T]");
  report.note("paper_sweep: " + std::to_string(compared) +
              " small-n points matched the dense E[T] within 4 SE");

  if (layers.traced) {
    jump_reference(rows, row_seconds, 960, options.seed, tracer, layers,
                   report);
    report_sim_layers(layers, rounds.seconds.size(), report);
  }
}

namespace {

struct LargeNSpec {
  bool weak;
  pp::GroupId k;
  std::uint32_t n;
};

const std::vector<LargeNSpec> kLargeN = {
    {true, 3, 1'000'000},
    {true, 3, 4'000'000},
    {true, 3, 10'000'000},
    {false, 8, 10'000},
};

constexpr std::uint64_t kUnlimited = std::numeric_limits<std::uint64_t>::max();

std::string large_n_label(const LargeNSpec& s) {
  return std::string(s.weak ? "weak" : "kpartition") +
         " k=" + std::to_string(s.k) + " n=" + std::to_string(s.n);
}

/// The first LogFactTable::shared call of this process, in seconds.
double first_log_fact_s(Report& report) {
  const double start = now_s();
  const auto table = ppk::LogFactTable::shared(ppk::kLogFactTableSize - 1);
  const double spent = now_s() - start;
  report.check(table->size() == ppk::kLogFactTableSize,
               "log-factorial table covers 2^20 + 1 entries");
  return spent;
}

/// One large_n set-up sample in a fresh process (the log-factorial table
/// is built once per process): runs this binary in its set-up probe mode
/// and reads the seconds it prints.
double probe_large_n_setup(const Options& options) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2 failed: " +
                             std::string(std::strerror(errno)));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  std::vector<std::string> args = {options.self, "--workload",
                                   "large_n_setup", "--work-dir",
                                   options.work_dir};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, options.self.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buffer[256];
    ssize_t got = 0;
    while ((got = ::read(fds[0], buffer, sizeof buffer)) != 0) {
      if (got < 0 && errno == EINTR) continue;
      if (got < 0) break;
      out.append(buffer, static_cast<std::size_t>(got));
    }
  }
  ::close(fds[0]);
  if (rc != 0) {
    throw std::runtime_error("cannot start the set-up probe: " +
                             std::string(std::strerror(rc)));
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const double seconds = std::strtod(out.c_str(), nullptr);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !(seconds > 0.0)) {
    throw std::runtime_error("set-up probe failed");
  }
  return seconds;
}

}  // namespace

void print_large_n_setup_sample() {
  Report ignored;
  const double log_fact_s = first_log_fact_s(ignored);
  const double rows_s = median_setup(3, 50, [] {
    for (const LargeNSpec& s : kLargeN) {
      const Row row = make_row(large_n_label(s), s.weak, s.k, s.n, 1,
                               kUnlimited);
      if (row.table->num_states() == 0) std::abort();
    }
  });
  std::printf("%.17g\n", log_fact_s + rows_s);
}

void run_large_n(const Options& options, Tracer& tracer, Report& report) {
  report.unit = "trials";
  SimLayers layers;
  layers.traced = tracer.enabled();

  // This process's own first LogFactTable::shared call, before any engine
  // needs the table (the traced util.log_fact.build_s).
  double log_fact_s = 0.0;
  {
    const auto span = tracer.span("util.log_fact.build");
    log_fact_s = first_log_fact_s(report);
  }
  std::vector<Row> rows;
  for (const LargeNSpec& s : kLargeN) {
    rows.push_back(
        make_row(large_n_label(s), s.weak, s.k, s.n, 1, kUnlimited));
  }

  // Set-up: the first LogFactTable::shared call plus every row's protocol
  // and table, each sample in a fresh process started before every row of
  // every round, so the samples spread over the run as the rounds do.
  Gauge gauge;
  std::vector<double> setup_samples;
  const auto setup_sample = [&](std::size_t) {
    setup_samples.push_back(gauge.scale(probe_large_n_setup(options)));
  };

  const std::vector<RowRun> checked =
      check_pass(rows, options.seed, tracer, layers, report);
  std::uint64_t failed = 0;
  std::vector<std::vector<double>> row_seconds(rows.size());
  const Rounds rounds = run_rounds(options.seconds, 1, gauge, [&](int) {
    const auto round_span = tracer.span("large_n.round");
    return sim_round(rows, checked, options.seed, tracer, layers, gauge,
                     row_seconds, failed, report, setup_sample);
  });
  report.failed = failed;
  report.end_to_end["answer_s"] = rounds.answer_s();
  report.note(rounds.describe());
  report.end_to_end["setup_s"] = median(setup_samples);
  report.note("large_n: " + std::to_string(rounds.seconds.size()) +
              " rounds; log-factorial table " + std::to_string(log_fact_s) +
              " s in this process; set-up median of " +
              std::to_string(setup_samples.size()) + " fresh-process samples");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    report.note("  " + rows[i].label + " (" +
                engine_key(pp::resolve_engine(pp::Engine::kAuto, rows[i].n,
                                              false)) +
                "): median " + std::to_string(median(row_seconds[i])) +
                " s per trial");
  }

  if (layers.traced) {
    report.layer["util.log_fact.build_s"] = log_fact_s;
    jump_reference(rows, row_seconds, 0, options.seed, tracer, layers, report);
    report_sim_layers(layers, rounds.seconds.size(), report);

    // The public SIMD sampler kernels on blocks shaped like the weak k = 3
    // rows: 10 states (16 padded cells), counts in the millions.
    const auto span = tracer.span("util.simd.sampler");
    constexpr std::size_t kCells = 16;
    ppk::AlignedVector<std::uint32_t> counts(kCells, 0);
    ppk::AlignedVector<std::int32_t> cell_p(kCells, 0);
    ppk::AlignedVector<std::int32_t> cell_q(kCells, 0);
    ppk::AlignedVector<std::uint32_t> diag(kCells, 0);
    for (std::size_t i = 0; i < 10; ++i) {
      counts[i] = static_cast<std::uint32_t>(
          100'000 + derive(options.seed, 99, i) % 900'000);
      cell_p[i] = static_cast<std::int32_t>(i);
      cell_q[i] = static_cast<std::int32_t>((i * 7 + 3) % 10);
      diag[i] = cell_p[i] == cell_q[i] ? 1 : 0;
    }
    for (std::size_t i = 10; i < kCells; ++i) {
      cell_p[i] = 11;  // padded cells index a zero-count slot
      cell_q[i] = 11;
    }
    double num[4] = {0.9, 0.8, 0.7, 0.6};
    const double den[4] = {1.1, 1.2, 1.3, 1.4};
    double out[4] = {0.0, 0.0, 0.0, 0.0};
    constexpr int kCalls = 2'000'000;
    std::uint64_t sink = 0;
    const double start = now_s();
    for (int i = 0; i < kCalls; ++i) {
      counts[static_cast<std::size_t>(i) % 10] += 1;
      sink += ppk::simd::pair_weight_total(counts.data(), cell_p.data(),
                                           cell_q.data(), diag.data(), kCells);
      num[0] = 0.9 + 1e-9 * static_cast<double>(i & 7);
      ppk::simd::hyper_block4(num, den, 1e-3, out);
      sink += static_cast<std::uint64_t>(out[3] * 1e6);
    }
    const double elapsed = now_s() - start;
    report.check(sink != 0, "sampler kernels produced weights");
    report.layer["util.simd.sampler_ns"] = elapsed * 1e9 / kCalls;
  }
}

}  // namespace tta
