// Ablation: agent-array engine vs count-vector engine.
//
// Both engines sample the identical interaction distribution (see
// count_simulator.hpp), so their stabilization-time statistics must agree;
// what differs is the cost model: the agent array is O(1) per interaction
// with O(n) memory, the count vector is O(|Q|) per interaction with O(|Q|)
// memory.  This bench reports statistical agreement and wall-clock
// throughput side by side, which is the data behind the engine choice
// documented in DESIGN.md.
//
// --auto-table prints instead the data behind kAuto (pp::resolve_engine):
// per row of the paper's Section 5 grid and a few rows at n = 10^4..10^6,
// the best-of-3 wall time of the agent, jump and batch engines, the engine
// kAuto picks and its time over the best.  kAuto and a forced engine run
// bit-identical trials, so the picked engine's time is kAuto's.

#include <algorithm>
#include <optional>
#include <thread>

#include "bench_common.hpp"
#include "util/simd.hpp"

namespace {

/// The kAuto table (see the file comment).  Section 5 rows run `trials`
/// trials each; the large rows run one (their times are noisy) and skip
/// the agent engine past n = 4096, where it needs seconds to minutes.
int auto_table(const ppk::bench::CommonFlags& common) {
  using ppk::pp::Engine;
  ppk::bench::print_header("kAuto vs the best engine",
                           "best-of-3 wall seconds per row");
  std::printf("machine: %u hardware threads, SIMD dispatch %s, %s\n\n",
              std::thread::hardware_concurrency(), ppk::simd::active_name(),
#if defined(NDEBUG)
              "assertions off (Release)"
#else
              "assertions on"
#endif
  );
  struct Row {
    const char* figure;
    int k;
    std::uint32_t n;
  };
  std::vector<Row> rows;
  // Fig. 3 (n = 2k..15k), sampled densely around the agent/jump crossover.
  for (const int k : {4, 6, 8}) {
    for (const std::uint32_t n :
         {16u, 24u, 32u, 48u, 60u, 64u, 72u, 80u, 88u, 90u, 96u, 100u, 104u,
          108u, 112u, 116u, 120u}) {
      const auto ku = static_cast<std::uint32_t>(k);
      if (n >= 2 * ku && n <= 15 * ku) rows.push_back({"fig3", k, n});
    }
  }
  for (const int k : {3, 4, 5, 6}) {
    for (std::uint32_t n = 120; n <= 960; n += 120) {
      rows.push_back({"fig5", k, n});
    }
  }
  for (const int k : {2, 3, 4, 5, 6, 8}) {
    rows.push_back({"fig6", k, 960});
  }
  const std::size_t section5 = rows.size();
  for (const Row& r : {Row{"large", 3, 10'000}, Row{"large", 8, 10'000},
                       Row{"large", 8, 30'000}, Row{"large", 3, 100'000},
                       Row{"large", 3, 1'000'000}}) {
    rows.push_back(r);
  }

  std::optional<ppk::io::CsvFile> csv;
  if (!common.csv->empty()) {
    csv.emplace(*common.csv,
                std::vector<std::string>{"figure", "k", "n", "trials",
                                         "agent_s", "jump_s", "batch_s",
                                         "auto_engine", "auto_over_best"});
  }
  ppk::analysis::Table table({"figure", "k", "n", "trials", "agent s",
                              "jump s", "batch s", "kAuto", "kAuto/best"});
  double worst = 0.0;
  std::size_t over = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    auto options = common.experiment_options();
    if (i >= section5) options.trials = 1;
    // Repetitions interleave the engines, so a slow spell of the host
    // does not fall on one engine's repetitions only.
    const Engine engines[3] = {Engine::kAgentArray, Engine::kJump,
                               Engine::kBatch};
    double seconds[3] = {-1.0, -1.0, -1.0};
    for (int rep = 0; rep < 3; ++rep) {
      for (int e = 0; e < 3; ++e) {
        if (engines[e] == Engine::kAgentArray && r.n > 4096) continue;
        options.engine = engines[e];
        const double s = ppk::analysis::measure_kpartition(
                             static_cast<ppk::pp::GroupId>(r.k), r.n, options)
                             .wall_seconds;
        if (seconds[e] < 0.0 || s < seconds[e]) seconds[e] = s;
      }
    }
    const Engine pick = ppk::pp::resolve_engine(Engine::kAuto, r.n, false);
    double best = 1e300;
    double picked = -1.0;
    for (int e = 0; e < 3; ++e) {
      if (seconds[e] < 0.0) continue;
      best = std::min(best, seconds[e]);
      if (engines[e] == pick) picked = seconds[e];
    }
    // kAuto's pick outside the timed engines (sharded) shows as n/a.
    const double ratio = picked > 0.0 ? picked / best : 0.0;
    worst = std::max(worst, ratio);
    over += ratio > 1.2 ? 1 : 0;
    const auto cell = [](double s) {
      return s < 0.0 ? std::string("-") : std::to_string(s);
    };
    table.row(r.figure, r.k, r.n, options.trials, cell(seconds[0]),
              cell(seconds[1]), cell(seconds[2]), ppk::pp::engine_name(pick),
              picked > 0.0 ? std::to_string(ratio) : std::string("n/a"));
    if (csv) {
      csv->row(r.figure, r.k, r.n, options.trials, seconds[0],
               seconds[1], seconds[2], ppk::pp::engine_name(pick), ratio);
    }
  }
  table.print(std::cout);
  std::printf(
      "\nkAuto crossovers: agent below n = %llu, jump up to n = %llu, "
      "sharded above.\nWorst kAuto/best %.3f; %zu of %zu rows above 1.2.\n",
      static_cast<unsigned long long>(ppk::pp::kJumpCrossover),
      static_cast<unsigned long long>(ppk::pp::kShardedCrossover), worst,
      over, rows.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ppk::Cli cli("ablation_engines",
               "Agent vs count vs jump vs batch engine: agreement + "
               "throughput.");
  ppk::bench::CommonFlags common(cli, /*default_trials=*/40);
  const auto auto_mode = cli.flag<bool>(
      "auto-table", false,
      "instead: time agent/jump/batch per Section 5 row and a few large "
      "rows against kAuto's pick");
  cli.parse(argc, argv);
  if (*auto_mode) return auto_table(common);

  ppk::bench::print_header("Ablation: simulation engines",
                           "identical distribution, different cost models");

  std::optional<ppk::io::CsvFile> csv;
  if (!common.csv->empty()) {
    csv.emplace(*common.csv, std::vector<std::string>{
                                 "engine", "k", "n", "mean_interactions",
                                 "ci95", "interactions_per_second"});
  }

  ppk::analysis::Table table({"k", "n", "engine", "mean interactions",
                              "ci95", "M interactions/s"});
  struct Case {
    ppk::pp::GroupId k;
    std::uint32_t n;
  };
  for (const Case& c :
       {Case{4, 120}, Case{4, 480}, Case{8, 240}, Case{8, 960}}) {
    for (const auto engine :
         {ppk::pp::Engine::kAgentArray, ppk::pp::Engine::kCountVector,
          ppk::pp::Engine::kJump, ppk::pp::Engine::kBatch}) {
      auto options = common.experiment_options();
      options.engine = engine;
      const auto r = ppk::analysis::measure_kpartition(c.k, c.n, options);
      const double total_interactions =
          r.interactions.mean * static_cast<double>(r.trials);
      const double per_second =
          r.wall_seconds > 0 ? total_interactions / r.wall_seconds : 0.0;
      const char* name = engine == ppk::pp::Engine::kAgentArray
                             ? "agent-array"
                             : engine == ppk::pp::Engine::kCountVector
                                   ? "count"
                                   : engine == ppk::pp::Engine::kJump
                                         ? "jump"
                                         : "batch";
      table.row(int{c.k}, c.n, name, r.interactions.mean, r.interactions.ci95,
                per_second / 1e6);
      if (csv) {
        csv->row(name, int{c.k}, c.n, r.interactions.mean, r.interactions.ci95,
                 per_second);
      }
    }
  }
  table.print(std::cout);
  std::printf(
      "\nReading: all four engines' mean interaction counts agree within\n"
      "their confidence intervals (same distribution, different RNG\n"
      "streams).  Throughput: agent-array pays O(1) per drawn pair, count\n"
      "pays O(log |Q|) per drawn pair, jump pays O(|Q|) per *effective*\n"
      "pair and skips null runs geometrically, batch aggregates whole\n"
      "collision-free groups -- amortized o(1) per interaction, which\n"
      "only dominates at populations far beyond this table's (see\n"
      "batch_throughput for the at-scale numbers).\n");
  return 0;
}
