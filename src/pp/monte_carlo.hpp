// Repeated-trial driver: runs T independent simulations of a protocol and
// aggregates stabilization statistics, exactly as the paper's Section 5
// does ("we conduct a simulation 100 times and show the average values").
//
// Trials are deterministic functions of (master_seed, trial_index) -- stream
// seeds come from SplitMix64 -- so results are bit-reproducible regardless
// of how trials are spread over threads.
//
// The trial machinery is shared with the campaign runner
// (core/campaign.hpp): TrialPlan checks a configuration once, TrialEngine
// is the one Engine -> engine dispatch, and run_grants() is the one grant
// loop.  A campaign trial is that loop with checkpoints around it.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "pp/adversarial.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/batch_simulator.hpp"
#include "pp/fairness.hpp"
#include "pp/batch_sharded_simulator.hpp"
#include "pp/count_simulator.hpp"
#include "pp/graph_jump_simulator.hpp"
#include "pp/graph_simulator.hpp"
#include "pp/interaction_graph.hpp"
#include "pp/jump_simulator.hpp"
#include "pp/population.hpp"
#include "pp/protocol.hpp"
#include "pp/stability.hpp"
#include "pp/transition_table.hpp"

namespace ppk::obs {
class MetricsRegistry;
class ObsSink;
}  // namespace ppk::obs

namespace ppk::pp {

/// Which engine executes the trials.  kAuto picks from the population
/// size, the requested instrumentation and whether a topology is set
/// (see resolve_engine(); docs/engines.md walks through the policy).
/// kGraph (per-draw GraphSimulator) and kGraphJump (live-edge skip-ahead;
/// docs/topologies.md) require MonteCarloOptions::graph.
enum class Engine {
  kAgentArray,
  kCountVector,
  kJump,
  kBatch,
  kBatchSharded,
  kGraph,
  kGraphJump,
  kAuto,
};

/// Population size from which kAuto prefers the jump engine to the agent
/// array.  Below it too few draws of the paper's protocol are null for
/// skipping them to pay for jump's O(|Q|) bookkeeping per effective
/// interaction; from it on jump wins at every k of the paper's Section 5.
/// Fitted from the per-row table in docs/engines.md.
inline constexpr std::uint64_t kJumpCrossover = 72;

/// Population size above which kAuto prefers kBatchSharded over kJump.
/// Collision-free batching amortizes to o(1) per interaction, and the
/// sharded engine's shared log-factorial table + Stirling tail keeps its
/// hypergeometric draws cheap past the plain batch engine's 2^20-agent
/// table.  Jump is faster on every measured row up to n = 10^6
/// (docs/engines.md); the jump/sharded crossover itself is unmeasured.
inline constexpr std::uint64_t kShardedCrossover = 1ULL << 20;

/// The engine kAuto resolves to for a population of n agents with (or
/// without) watch-mark instrumentation.  A function of n (and the two
/// flags) alone, so every trial of a run takes the same engine:
///  - a topology factory set: kGraphJump -- the live-edge engine records
///    exact watch marks and detects wedged configurations, so it strictly
///    dominates kGraph for unattended sweeps (pick kGraph explicitly for
///    per-drawn-pair observability).
///  - n < kJumpCrossover: the agent array (its observer records watch
///    marks).
///  - n <= kShardedCrossover, or a watch set: jump, which skips null draws
///    and records exact watch marks (the batch engines cannot: aggregated
///    draws have no per-interaction indices).
///  - otherwise: the sharded SoA batch engine.
[[nodiscard]] Engine resolve_engine(Engine engine, std::uint64_t n,
                                    bool watch, bool graph = false);

/// Stable name of an engine ("auto", "agent", "jump", "batch-sharded",
/// ...).  Every engine but kAuto tags its snapshots with this name.
[[nodiscard]] const char* engine_name(Engine engine) noexcept;

/// Inverse of engine_name(), read from the same table; nullopt on unknown
/// names.
[[nodiscard]] std::optional<Engine> engine_from_name(
    std::string_view name) noexcept;

/// Version of the engines' sampling laws.  Bump it whenever an engine's
/// draws for a given seed change, or kAuto's routing does: stored results
/// stamped with an older version (ppkd's result cache) are then recomputed
/// instead of replayed.
inline constexpr std::uint32_t kEngineLawVersion = 1;

/// Default per-trial interaction budget: a non-stabilizing trial (e.g. a
/// post-crash population whose stable pattern is unreachable) ends with
/// stabilized = false instead of spinning forever.  Legitimate runs can
/// reach it: the weak k-partition at k = 3, n = 1e5 ran 6 of 6 trials to
/// exactly 1e10 unstabilized, so runs that large need an explicit budget
/// (UINT64_MAX disables it).
inline constexpr std::uint64_t kDefaultInteractionBudget =
    10'000'000'000ULL;

/// Configuration of a run_monte_carlo() call; a campaign
/// (core/campaign.hpp) carries one as its base trial configuration.
struct MonteCarloOptions {
  /// Number of independent trials; at least one.
  std::uint32_t trials = 100;
  std::uint64_t master_seed = 0x9E3779B97F4A7C15ULL;
  std::uint64_t max_interactions = kDefaultInteractionBudget;
  Engine engine = Engine::kAgentArray;
  /// 0 = one thread per hardware core.
  std::size_t threads = 1;
  /// Worker threads *inside* one trial's engine (currently consumed by
  /// kBatchSharded's sharded matching; other engines ignore it).  Results
  /// are bit-identical for every value -- the sharded engine's draws are a
  /// pure function of the seed -- so this is a throughput knob, not an
  /// experiment parameter.  0 = one worker per hardware core.
  std::size_t engine_threads = 1;
  /// If set, every time the count of this state increases, the current
  /// interaction index is recorded (the paper's NI_i grouping marks).
  /// Supported by the agent (observer hook), count, jump and graph-jump
  /// engines; requesting it with a batch engine or kGraph is a
  /// precondition violation (the batch engines aggregate draws and have no
  /// per-interaction indices -- failing fast beats silently returning
  /// empty marks).  kAuto resolves to a recording engine when a watch is
  /// set.
  std::optional<StateId> watch_state;
  /// If set, a per-trial wall-clock cap: a trial that exceeds it stops at
  /// the next check (every ~4M interactions) and reports stabilized =
  /// false, timed_out = true.  Complements the interaction budget for
  /// configurations whose per-interaction cost is hard to predict.
  std::optional<double> wall_clock_limit_seconds;
  /// Interaction topology for the graph engines (kGraph / kGraphJump, or
  /// kAuto which resolves to kGraphJump when this is set): called once per
  /// trial with a seed derived from that trial's stream (so randomized
  /// topologies are independent across trials yet bit-reproducible), and
  /// must return a graph over exactly the population's agents.
  /// Deterministic topologies ignore the seed.  Unset for the
  /// complete-graph engines; setting it while forcing a non-graph engine
  /// is a precondition violation.
  std::function<InteractionGraph(std::uint64_t seed)> graph;
  /// Scheduling guarantee for the trials (pp/fairness.hpp).  The default
  /// uniform-random policy is what every count-based engine implements;
  /// kEpsilonFair (epsilon < 1) and kWeakRoundRobin route each trial to
  /// the agent-level AdversarialSimulator instead -- composed with `graph`
  /// when a topology factory is set, so fairness x topology is one
  /// scenario.  The adversarial scheduler needs the protocol's group map
  /// (to probe for non-progressing pairs), so a non-default policy
  /// requires the run_monte_carlo overload that takes a Protocol; it also
  /// excludes watch_state and forced count/batch engines (precondition
  /// violations -- those engines cannot realize the policy).
  FairnessSpec fairness{};
  /// If non-null, every trial runs with an observability sink writing into
  /// a private per-trial registry; the driver folds the trial registries
  /// into this one as trials finish (mutex-guarded -- the merge operations
  /// commute, so the aggregate is identical regardless of the thread
  /// interleaving).  Adds engine metrics (sim.*) plus per-trial outcome
  /// counters (trials, trials.stabilized, trials.timed_out, trials.stalled)
  /// and distribution histograms (trial.interactions, trial.effective).
  /// Must outlive the run.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Outcome of one trial.
struct TrialResult {
  std::uint64_t interactions = 0;
  std::uint64_t effective = 0;
  bool stabilized = false;
  /// True iff wall_clock_limit_seconds stopped this trial.
  bool timed_out = false;
  /// True iff the engine stopped short of the interaction budget without
  /// stabilizing or timing out: the configuration went silent with the
  /// oracle unsatisfied (a dead configuration), distinct from ordinary
  /// budget exhaustion where interactions == max_interactions.
  bool stalled = false;
  /// Interaction indices at which `watch_state`'s count increased.
  std::vector<std::uint64_t> watch_marks;
};

/// Per-trial outcomes of a run_monte_carlo() call, indexed by trial.
struct MonteCarloResult {
  std::vector<TrialResult> trials;

  /// Mean of the trials' interaction counts (0 without trials).
  [[nodiscard]] double mean_interactions() const;
  /// Sample standard deviation of the interaction counts (0 below two
  /// trials).
  [[nodiscard]] double stddev_interactions() const;
  /// Trials that stabilized.
  [[nodiscard]] std::uint32_t stabilized_count() const;
};

/// Factory producing a fresh stability oracle per trial (oracles are
/// stateful and trials may run concurrently).
using OracleFactory = std::function<std::unique_ptr<StabilityOracle>()>;

/// A trial configuration checked once for every driver: the engine each
/// trial builds and the inputs it builds it from.  Every referenced object
/// must outlive the plan.
class TrialPlan {
 public:
  /// The one precondition check (PPK_EXPECTS) of MonteCarloOptions, as its
  /// fields document.  `protocol` may be null unless fairness needs it.
  TrialPlan(const TransitionTable& table, const Counts& initial,
            const MonteCarloOptions& options, const Protocol* protocol);

 private:
  friend class TrialEngine;
  const TransitionTable* table_;
  const Counts* initial_;
  const MonteCarloOptions* options_;
  const Protocol* protocol_;
  std::uint64_t n_ = 0;
  bool adversarial_ = false;
  Engine engine_ = Engine::kAgentArray;
};

/// The engine of one trial, built by the single Engine dispatch: the
/// adversarial scheduler under a non-uniform fairness policy, else the
/// engine the plan resolved, on the per-trial topology when one is set
/// (drawn from a sub-stream of `seed`, so randomized topologies are
/// independent across trials yet bit-reproducible).  The constructor also
/// installs the observability sink and watch-mark recording.
class TrialEngine {
 public:
  /// Builds trial `seed`'s engine.  `sink` (nullable) and `watch_marks`
  /// (used iff the plan's options set a watch state) must outlive it.
  TrialEngine(const TrialPlan& plan, std::uint64_t seed, obs::ObsSink* sink,
              std::vector<std::uint64_t>* watch_marks);

  /// Invokes `fn` on the engine as its concrete type; every engine offers
  /// run()/resume(), snapshot()/restore() and counts_of().
  template <typename Fn>
  decltype(auto) visit(Fn&& fn) {
    return std::visit(std::forward<Fn>(fn), sim_);
  }

 private:
  using Sim = std::variant<AgentSimulator, CountSimulator, JumpSimulator,
                           BatchSimulator, BatchShardedSimulator,
                           GraphSimulator, GraphJumpSimulator,
                           AdversarialSimulator>;
  Sim build(const TrialPlan& plan, std::uint64_t seed);

  std::optional<InteractionGraph> topology_;  // the adversarial route's
  Sim sim_;
};

/// How run_grants() ended.
enum class TrialEnd {
  kStabilized,  ///< the oracle is satisfied
  kStalled,     ///< silent short of the budget with the oracle unsatisfied
  kBudget,      ///< the interaction budget is consumed
  kStopped,     ///< at_boundary() asked to stop
};

/// The grant loop every driver runs a trial's engine with.  Grants `chunk`
/// interactions per call -- run() first, resume() after, and resume()
/// throughout when `consumed` > 0 (an engine restored mid-trial) -- until the
/// trial stabilizes, stalls or consumes `budget`, adding each call's totals to
/// `out`.  Between chunks it calls at_boundary(consumed), which returns true to
/// stop.  The grants depend only on (budget, chunk, consumed), so a restored
/// trial sees exactly the grants of the uninterrupted one.  chunk = UINT64_MAX
/// grants the whole budget at once.
template <typename Sim, typename AtBoundary>
TrialEnd run_grants(Sim& sim, StabilityOracle& oracle,
                    std::uint64_t budget, std::uint64_t chunk,
                    std::uint64_t consumed, TrialResult& out,
                    AtBoundary&& at_boundary) {
  PPK_EXPECTS(chunk >= 1);
  while (true) {
    const std::uint64_t grant = std::min(chunk, budget - consumed);
    const SimResult r =
        consumed == 0 ? sim.run(oracle, grant) : sim.resume(oracle, grant);
    consumed += r.interactions;
    out.interactions += r.interactions;
    out.effective += r.effective;
    if (r.stabilized) return TrialEnd::kStabilized;
    if (r.interactions < grant) return TrialEnd::kStalled;
    if (consumed >= budget) return TrialEnd::kBudget;
    if (at_boundary(consumed)) return TrialEnd::kStopped;
  }
}

/// Stamps a finished trial's outcome instruments into `metrics`: the
/// counters trials, trials.stabilized, trials.timed_out and trials.stalled
/// and the histograms trial.interactions and trial.effective.
void record_trial_metrics(obs::MetricsRegistry& metrics,
                          const TrialResult& result);

/// Runs `options.trials` independent simulations of `table` starting from
/// `initial` counts.
MonteCarloResult run_monte_carlo(const TransitionTable& table,
                                 const Counts& initial,
                                 const OracleFactory& make_oracle,
                                 const MonteCarloOptions& options);

/// Convenience overload: n agents, all in the protocol's designated initial
/// state.
MonteCarloResult run_monte_carlo(const Protocol& protocol,
                                 const TransitionTable& table, std::uint32_t n,
                                 const OracleFactory& make_oracle,
                                 const MonteCarloOptions& options);

}  // namespace ppk::pp
