// Shared plumbing of the time-to-answer benchmark: command-line options,
// the round driver, the in-memory span tracer and the report every workload
// fills in.  See ../README.md for what each workload measures and why.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace tta {

/// Parsed command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The scenario daemon binary (ppkd_mix only).
  std::string ppkd;
  /// Scratch directory for daemon state, checkpoints and the span file.
  std::string work_dir;
  /// This binary (argv[0]), for the set-up probes that need a fresh process.
  std::string self;
};

/// Monotonic wall clock in seconds.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 finalizer: derives independent streams from (seed, a, b).
inline std::uint64_t derive(std::uint64_t seed, std::uint64_t a,
                            std::uint64_t b = 0) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (a + 1) +
                    0xD1B54A32D192ED03ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Median of a sample (copy; the sample is small).
double median(std::vector<double> values);

/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

/// Sum of a log2 histogram's samples, estimated from bucket midpoints
/// (exact for values below the histogram's first coarse bucket).
double histogram_sum(const ppk::obs::Histogram& histogram);

/// Peak resident set size of this process in MB (VmHWM).
double self_peak_rss_mb();

/// Peak resident set size of another live process in MB, 0 if unreadable.
double process_peak_rss_mb(long pid);

/// One recorded span: a layer boundary crossed by the benchmark.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  /// Index of the enclosing span, -1 at top level.
  std::int64_t parent = -1;
  /// Request the span belongs to (0 = none).
  std::uint64_t request = 0;
};

/// In-memory span recorder.  Disabled, open() returns -1 and reads no
/// clock, so untraced runs pay nothing.  Single-threaded: spans nest
/// through a stack of open indices.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// RAII span; closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, std::uint64_t request)
        : tracer_(&tracer), index_(tracer.open(name, request)) {}
    ~Scope() { tracer_->close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t index_;
  };

  [[nodiscard]] Scope span(std::string_view name, std::uint64_t request = 0) {
    return Scope(*this, name, request);
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Self time of the spans called `name`: each span's duration minus the
  /// part its direct children cover.
  [[nodiscard]] double self_s(std::string_view name) const;

  /// Writes every span as one JSON object per line.
  bool write(const std::string& path) const;

 private:
  std::int64_t open(std::string_view name, std::uint64_t request);
  void close(std::int64_t index);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

/// What a workload reports.
struct Report {
  /// False once any answer check failed.
  bool correct = true;
  std::vector<std::string> problems;
  /// Operations attempted and failed, with the noun they count.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string unit = "operations";
  /// End-to-end metrics (untraced runs) and per-layer metrics (traced).
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> layer;
  /// Extra human-readable lines printed above the JSON result.
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Host-speed gauge.  On a shared host the same single-thread work runs up
/// to twice as slow in spells that last from seconds to minutes: other
/// tenants contend for the core's caches and execution units, and since
/// the time is not stolen, CPU time shows it as much as wall time does.
/// The gauge times a fixed kernel of the benchmark's own (random pairs of
/// a small agent array through a transition table, the shape of the agent
/// engine's inner loop), which slows with the host but not with any change
/// to the program.  Answer time is scaled segment by segment: the
/// operations between two samples are scaled by kReferenceS over the mean
/// of those two samples, so they read as they would on a host where the
/// kernel takes kReferenceS.
class Gauge {
 public:
  /// Kernel time of the reference host speed.
  static constexpr double kReferenceS = 1.25e-3;
  /// Answer seconds between two samples.
  static constexpr double kEveryS = 0.05;

  /// Counts `seconds` of answer taken by an operation that has just ended;
  /// samples once kEveryS have gathered since the last sample.  Called
  /// between operations, never inside one.
  void after(double seconds) {
    pending_ += seconds;
    if (pending_ >= kEveryS) sample();
  }
  /// The scaled answer seconds since the last take() (sampling for any
  /// still unscaled), and starts over.
  double take();
  /// `wall` seconds scaled by a sample taken now.
  double scale(double wall) { return wall * kReferenceS / sample(); }

 private:
  /// Times the kernel (median of three) and scales the pending seconds.
  double sample();

  double pending_ = 0.0;
  double scaled_ = 0.0;
  double last_ = 0.0;  // the previous sample, 0 if none
};

/// Keeps this process, and the processes it starts, on the CPU it runs on
/// now, so that the gauge measures the core that does the work.
void pin_to_current_cpu();

/// Round bookkeeping of an answer phase.  Every round of a run answers
/// the same inputs, so the rounds differ only in how fast the host ran
/// them.  Each round's answer time is scaled by the gauge (its workload
/// reports every operation to it), and the answer time of the run is the
/// median scaled round.
struct Rounds {
  std::vector<double> seconds;  // scaled
  std::vector<double> wall;     // as measured
  [[nodiscard]] double answer_s() const { return median(seconds); }
  /// Wall and scaled times of the rounds, for the report.
  [[nodiscard]] std::string describe() const;
};

/// Runs `round(r)` for r = 0, 1, ... -- at least `min_rounds` times, then
/// while the next round is expected to end within `budget_s` of the start
/// (expected length: the median round so far).  `round` returns the wall
/// seconds it spent on the answer itself and reports each operation's
/// seconds to `gauge` (Gauge::after).
template <class F>
Rounds run_rounds(double budget_s, int min_rounds, Gauge& gauge, F&& round) {
  Rounds rounds;
  const double start = now_s();
  for (int r = 0;; ++r) {
    if (r >= min_rounds && now_s() - start + median(rounds.wall) > budget_s) {
      break;
    }
    rounds.wall.push_back(round(r));
    rounds.seconds.push_back(gauge.take());
  }
  return rounds;
}

// Workloads.  Each fills `report` and returns normally; a failed answer
// check marks the report incorrect instead of throwing.
void run_paper_sweep(const Options& options, Tracer& tracer, Report& report);
void run_large_n(const Options& options, Tracer& tracer, Report& report);
void run_exact(const Options& options, Tracer& tracer, Report& report);
void run_ppkd_mix(const Options& options, Tracer& tracer, Report& report);

/// The set-up probe of large_n (workload "large_n_setup"): prints one
/// set-up sample of a fresh process, in seconds.
void print_large_n_setup_sample();

}  // namespace tta
