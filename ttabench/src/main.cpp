// tta_bench -- time-to-answer benchmark driver.
//
//   tta_bench --workload <paper_sweep|large_n|exact|ppkd_mix|all>
//             --seed N --seconds S --trace 0|1 --ppkd PATH --work-dir DIR
//
// Prints human-readable lines, then (last line per workload) one JSON
// object {"correct", "attempted", "failed", "metrics"}.  Untraced runs
// report the end-to-end metrics, traced runs the per-layer metrics.
// `--workload large_n_setup` is large_n's set-up probe: it prints one
// set-up sample of a fresh process (see sim_workloads.cpp).

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "util/simd.hpp"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"answer_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Every per-layer metric, in README order.  A workload that does not touch
// a layer reports 0 for it.
constexpr MetricDef kLayer[] = {
    {"pp.agent.run_s", "s"},
    {"pp.jump.run_s", "s"},
    {"pp.agent.ns_per_interaction", "ns"},
    {"pp.jump.ns_per_interaction", "ns"},
    {"pp.advances.pairwise", "count"},
    {"pp.advances.jump", "count"},
    {"pp.batch.run_s", "s"},
    {"pp.sharded.run_s", "s"},
    {"pp.batch.ns_per_interaction", "ns"},
    {"pp.sharded.ns_per_interaction", "ns"},
    {"pp.advances.batch", "count"},
    {"pp.advances.thin", "count"},
    {"pp.batch_size_mean", "count"},
    {"pp.interactions", "count"},
    {"pp.effective", "count"},
    {"pp.effective_ratio", "ratio"},
    {"pp.rows.agent", "count"},
    {"pp.rows.jump", "count"},
    {"pp.rows.batch", "count"},
    {"pp.rows.sharded", "count"},
    {"core.oracle.calls", "count"},
    {"core.oracle.s", "s"},
    {"core.campaign.run_s", "s"},
    {"core.checkpoints", "count"},
    {"core.checkpoint.write_s", "s"},
    {"io.atomic_write_s", "s"},
    {"io.checkpoint_bytes", "bytes"},
    {"serve.parse_s", "s"},
    {"serve.hash_s", "s"},
    {"serve.cache_find_hit_s", "s"},
    {"serve.cache_find_miss_s", "s"},
    {"serve.cache_store_s", "s"},
    {"serve.frames", "count"},
    {"serve.frame_bytes", "bytes"},
    {"ppkd.miss_p50_ms", "ms"},
    {"ppkd.miss_p90_ms", "ms"},
    {"ppkd.hit_p50_ms", "ms"},
    {"ppkd.hit_p90_ms", "ms"},
    {"ppkd.miss_samples", "count"},
    {"ppkd.hit_samples", "count"},
    {"verify.build_s", "s"},
    {"verify.lumpability_s", "s"},
    {"verify.orbits", "count"},
    {"verify.raw_configs", "count"},
    {"verify.orbits_per_s", "1/s"},
    {"verify.solve_s", "s"},
    {"verify.cdf_s", "s"},
    {"verify.absorption_s", "s"},
    {"util.log_fact.build_s", "s"},
    {"util.simd.sampler_ns", "ns"},
    {"trace.answer_s", "s"},
};

constexpr std::string_view kWorkloads[] = {"paper_sweep", "large_n", "exact",
                                           "ppkd_mix"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "tta_bench: %s\nusage: tta_bench --workload "
               "<paper_sweep|large_n|exact|ppkd_mix|all> --seed N "
               "--seconds S --trace 0|1 --ppkd PATH --work-dir DIR\n",
               why);
  std::exit(2);
}

tta::Options parse(int argc, char** argv) {
  tta::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing flag value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string_view(value) == "1";
    } else if (flag == "--ppkd") {
      options.ppkd = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      usage("unknown flag");
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (options.work_dir.empty()) usage("--work-dir is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

int run_one(const tta::Options& options) {
  tta::Tracer tracer(options.trace);
  tta::Report report;
  const std::string& w = options.workload;
  if (w == "paper_sweep") {
    tta::run_paper_sweep(options, tracer, report);
  } else if (w == "large_n") {
    tta::run_large_n(options, tracer, report);
  } else if (w == "exact") {
    tta::run_exact(options, tracer, report);
  } else if (w == "ppkd_mix") {
    tta::run_ppkd_mix(options, tracer, report);
  } else {
    usage("unknown workload");
  }
  if (report.end_to_end.count("peak_rss_mb") == 0) {
    report.end_to_end["peak_rss_mb"] = tta::self_peak_rss_mb();
  }
  if (options.trace) {
    report.layer["trace.answer_s"] = report.end_to_end.at("answer_s");
    const std::string path = options.work_dir + "/spans-" + w + "-" +
                             std::to_string(options.seed) + ".jsonl";
    if (tracer.write(path)) {
      std::printf("spans: %s\n", path.c_str());
    }
  }

  for (const std::string& line : report.notes) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& problem : report.problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("workload %s seed %llu simd %s: attempted %llu %s, failed %llu\n",
              w.c_str(), static_cast<unsigned long long>(options.seed),
              ppk::simd::active_name(),
              static_cast<unsigned long long>(report.attempted),
              report.unit.c_str(),
              static_cast<unsigned long long>(report.failed));

  std::string metrics;
  const auto add = [&](const MetricDef& def, double value) {
    if (!std::isfinite(value)) value = 0.0;
    std::printf("  %-32s %14.6g %s\n", def.name, value, def.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(def.name) + "\": {\"value\": " +
               json_number(value) + ", \"unit\": \"" + def.unit + "\"}";
  };
  if (options.trace) {
    for (const MetricDef& def : kLayer) {
      const auto it = report.layer.find(def.name);
      add(def, it == report.layer.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      const auto it = report.end_to_end.find(def.name);
      if (it == report.end_to_end.end()) {
        std::fprintf(stderr, "tta_bench: %s did not report %s\n", w.c_str(),
                     def.name);
        return 1;
      }
      add(def, it->second);
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

int run_or_report(const tta::Options& options) {
  try {
    return run_one(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tta_bench: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  tta::Options options = parse(argc, argv);
  options.self = argv[0];
  tta::pin_to_current_cpu();
  try {
    std::filesystem::create_directories(options.work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tta_bench: %s\n", e.what());
    return 1;
  }
  if (options.workload == "large_n_setup") {
    tta::print_large_n_setup_sample();
    return 0;
  }
  if (options.workload != "all") return run_or_report(options);
  // All four workloads from this one command, each with its own result
  // line.  Each runs in a child of this process, so its peak RSS is its
  // own and not the high-water mark of the workloads before it.
  for (const std::string_view workload : kWorkloads) {
    options.workload = workload;
    std::printf("=== %s ===\n", options.workload.c_str());
    std::fflush(stdout);
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("tta_bench: fork");
      return 1;
    }
    if (pid == 0) {
      const int code = run_or_report(options);
      std::fflush(stdout);
      std::_Exit(code);
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return 1;
  }
  return 0;
}
