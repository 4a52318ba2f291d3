#include "pp/monte_carlo.hpp"

#include <array>
#include <cmath>
#include <mutex>

#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ppk::pp {

double MonteCarloResult::mean_interactions() const {
  if (trials.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& t : trials) sum += static_cast<double>(t.interactions);
  return sum / static_cast<double>(trials.size());
}

double MonteCarloResult::stddev_interactions() const {
  if (trials.size() < 2) return 0.0;
  const double mean = mean_interactions();
  double ss = 0.0;
  for (const auto& t : trials) {
    const double d = static_cast<double>(t.interactions) - mean;
    ss += d * d;
  }
  return std::sqrt(ss / static_cast<double>(trials.size() - 1));
}

std::uint32_t MonteCarloResult::stabilized_count() const {
  std::uint32_t count = 0;
  for (const auto& t : trials) count += t.stabilized ? 1u : 0u;
  return count;
}

namespace {

/// Sub-stream (of a trial's stream seed) that seeds randomized topology
/// generation, keeping it independent of the interaction draws.
constexpr std::uint64_t kGraphTopologyStream = 0x6772'6170'68ULL;

/// The engine names, indexed by enumerator value.
constexpr std::array<const char*, 8> kEngineNames = {
    "agent", "count", "jump", "batch", "batch-sharded",
    "graph", "graph-jump", "auto"};
static_assert(kEngineNames.size() ==
              static_cast<std::size_t>(Engine::kAuto) + 1);

}  // namespace

TrialPlan::TrialPlan(const TransitionTable& table, const Counts& initial,
                     const MonteCarloOptions& options, const Protocol* protocol)
    : table_(&table),
      initial_(&initial),
      options_(&options),
      protocol_(protocol),
      adversarial_(options.fairness.needs_adversarial_engine()) {
  PPK_EXPECTS(options.trials > 0);
  for (const auto c : initial) n_ += c;
  if (adversarial_) {
    // Only the agent-level scheduler can realize a non-uniform fairness
    // policy; it needs the protocol's group map for its adversary probes.
    PPK_EXPECTS(protocol != nullptr);
    PPK_EXPECTS(!options.watch_state);
    PPK_EXPECTS(options.engine == Engine::kAuto ||
                options.engine == Engine::kAgentArray);
    return;
  }
  engine_ = resolve_engine(options.engine, n_, options.watch_state.has_value(),
                           static_cast<bool>(options.graph));
  // A topology that no engine consults (or a graph engine with no
  // topology) is a configuration error, not a silently different
  // experiment.
  const bool graph_engine =
      engine_ == Engine::kGraph || engine_ == Engine::kGraphJump;
  PPK_EXPECTS(graph_engine == static_cast<bool>(options.graph));
  // The batch engines aggregate draws and kGraph has no watch hook: none
  // can produce per-interaction watch marks, and quietly returning none
  // would corrupt downstream statistics.  kAuto never picks them with a
  // watch set, so reaching this means the caller forced one.
  PPK_EXPECTS(!options.watch_state || engine_ == Engine::kAgentArray ||
              engine_ == Engine::kCountVector || engine_ == Engine::kJump ||
              engine_ == Engine::kGraphJump);
}

TrialEngine::TrialEngine(const TrialPlan& plan, std::uint64_t seed,
                         obs::ObsSink* sink,
                         std::vector<std::uint64_t>* watch_marks)
    : sim_(build(plan, seed)) {
  const std::optional<StateId> watch = plan.options_->watch_state;
  PPK_EXPECTS(!watch || watch_marks != nullptr);
  std::visit(
      [&](auto& sim) {
        if (sink != nullptr) sim.set_obs_sink(sink);
        if (!watch) return;
        const StateId watched = *watch;
        if constexpr (requires { sim.set_watch(watched, watch_marks); }) {
          sim.set_watch(watched, watch_marks);
        } else if constexpr (requires { sim.set_observer(nullptr); }) {
          sim.set_observer([watch_marks, watched](const SimEvent& event) {
            // The watched state's count increases iff an agent enters it
            // while its partner does not simultaneously leave it.
            const int delta = (event.p_next == watched ? 1 : 0) +
                              (event.q_next == watched ? 1 : 0) -
                              (event.p == watched ? 1 : 0) -
                              (event.q == watched ? 1 : 0);
            for (int i = 0; i < delta; ++i) {
              watch_marks->push_back(event.interaction);
            }
          });
        } else {
          PPK_ASSERT(false);  // TrialPlan rejects a watch on this engine
        }
      },
      sim_);
}

TrialEngine::Sim TrialEngine::build(const TrialPlan& plan, std::uint64_t seed) {
  const TransitionTable& table = *plan.table_;
  const Counts& initial = *plan.initial_;
  const MonteCarloOptions& options = *plan.options_;
  std::optional<InteractionGraph> graph;
  if (options.graph) {
    graph.emplace(
        options.graph(derive_stream_seed(seed, kGraphTopologyStream)));
    PPK_EXPECTS(graph->num_agents() == plan.n_);
  }
  if (plan.adversarial_) {
    topology_ = std::move(graph);
    return Sim(std::in_place_type<AdversarialSimulator>, *plan.protocol_,
               table, Population(initial), options.fairness, seed,
               topology_ ? &*topology_ : nullptr);
  }
  switch (plan.engine_) {
    case Engine::kCountVector:
      return Sim(std::in_place_type<CountSimulator>, table, initial, seed);
    case Engine::kJump:
      return Sim(std::in_place_type<JumpSimulator>, table, initial, seed);
    case Engine::kBatch:
      return Sim(std::in_place_type<BatchSimulator>, table, initial, seed);
    case Engine::kBatchSharded:
      return Sim(std::in_place_type<BatchShardedSimulator>, table, initial,
                 seed, options.engine_threads);
    case Engine::kGraph:
      return Sim(std::in_place_type<GraphSimulator>, table, std::move(*graph),
                 Population(initial), seed);
    case Engine::kGraphJump:
      return Sim(std::in_place_type<GraphJumpSimulator>, table,
                 std::move(*graph), Population(initial), seed);
    case Engine::kAgentArray:
    case Engine::kAuto:  // resolved by the plan
      break;
  }
  return Sim(std::in_place_type<AgentSimulator>, table, Population(initial),
             seed);
}

void record_trial_metrics(obs::MetricsRegistry& metrics,
                          const TrialResult& result) {
  metrics.counter("trials").inc();
  if (result.stabilized) metrics.counter("trials.stabilized").inc();
  if (result.timed_out) metrics.counter("trials.timed_out").inc();
  if (result.stalled) metrics.counter("trials.stalled").inc();
  metrics.histogram("trial.interactions").record(result.interactions);
  metrics.histogram("trial.effective").record(result.effective);
}

namespace {

TrialResult run_one_trial(const TrialPlan& plan,
                          const MonteCarloOptions& options,
                          const OracleFactory& make_oracle, std::uint64_t seed,
                          obs::MetricsRegistry* trial_metrics) {
  TrialResult result;
  auto oracle = make_oracle();
  PPK_ASSERT(oracle != nullptr);
  std::optional<obs::ObsSink> sink;
  if (trial_metrics != nullptr) sink.emplace(*trial_metrics);
  TrialEngine engine(plan, seed, sink ? &*sink : nullptr, &result.watch_marks);

  // Without a wall-clock limit the whole budget is one grant: a single
  // run() call, and the clock is never consulted.
  constexpr std::uint64_t kClockChunk = 1ULL << 22;  // ~4M pairs per check
  const std::optional<double> limit = options.wall_clock_limit_seconds;
  const Stopwatch clock;
  const TrialEnd end = engine.visit([&](auto& sim) {
    return run_grants(
        sim, *oracle, options.max_interactions,
        limit ? kClockChunk : UINT64_MAX, 0, result,
        [&](std::uint64_t) { return limit && clock.seconds() >= *limit; });
  });
  result.stabilized = end == TrialEnd::kStabilized;
  result.stalled = end == TrialEnd::kStalled;
  result.timed_out = end == TrialEnd::kStopped;
  if (trial_metrics != nullptr) record_trial_metrics(*trial_metrics, result);
  return result;
}

}  // namespace

Engine resolve_engine(Engine engine, std::uint64_t n, bool watch,
                      bool graph) {
  if (engine != Engine::kAuto) return engine;
  // With a topology set the choice is between the two graph engines, and
  // the live-edge engine dominates for unattended runs: exact watch marks,
  // identical distribution, and O(1) wedge detection instead of budget
  // exhaustion.  kGraph remains an explicit choice for per-draw
  // observability.
  if (graph) return Engine::kGraphJump;
  // Below the crossover the agent array's O(1) draws beat jump's O(|Q|)
  // effective steps: too few draws are null to skip.  Above it jump wins,
  // and it records exact watch marks, so a watch keeps it at every size.
  // Past kShardedCrossover the sharded engine's shared log-factorial table
  // and Stirling tail keep batching cheap (docs/engines.md has the table
  // kJumpCrossover is fitted to).
  if (n < kJumpCrossover) return Engine::kAgentArray;
  if (n <= kShardedCrossover || watch) return Engine::kJump;
  return Engine::kBatchSharded;
}

const char* engine_name(Engine engine) noexcept {
  const auto index = static_cast<std::size_t>(engine);
  return index < kEngineNames.size() ? kEngineNames[index] : "?";
}

std::optional<Engine> engine_from_name(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kEngineNames.size(); ++i) {
    if (name == kEngineNames[i]) return static_cast<Engine>(i);
  }
  return std::nullopt;
}

namespace {

MonteCarloResult run_monte_carlo_impl(const TransitionTable& table,
                                      const Counts& initial,
                                      const OracleFactory& make_oracle,
                                      const MonteCarloOptions& options,
                                      const Protocol* protocol) {
  const TrialPlan plan(table, initial, options, protocol);
  MonteCarloResult result;
  result.trials.resize(options.trials);

  std::mutex metrics_mutex;
  auto body = [&](std::size_t trial) {
    const std::uint64_t seed = derive_stream_seed(options.master_seed, trial);
    if (options.metrics == nullptr) {
      result.trials[trial] =
          run_one_trial(plan, options, make_oracle, seed, nullptr);
      return;
    }
    // Each trial fills a private registry; folding into the shared one is
    // the only synchronized step.  merge() is commutative, so the aggregate
    // is bit-identical no matter which trial's merge wins a race.
    obs::MetricsRegistry trial_metrics;
    result.trials[trial] =
        run_one_trial(plan, options, make_oracle, seed, &trial_metrics);
    const std::lock_guard<std::mutex> lock(metrics_mutex);
    options.metrics->merge(trial_metrics);
  };

  if (options.threads == 1 || options.trials == 1) {
    for (std::size_t t = 0; t < options.trials; ++t) body(t);
  } else {
    ThreadPool pool(options.threads);
    pool.parallel_for_index(options.trials, body);
  }
  return result;
}

}  // namespace

MonteCarloResult run_monte_carlo(const TransitionTable& table,
                                 const Counts& initial,
                                 const OracleFactory& make_oracle,
                                 const MonteCarloOptions& options) {
  return run_monte_carlo_impl(table, initial, make_oracle, options, nullptr);
}

MonteCarloResult run_monte_carlo(const Protocol& protocol,
                                 const TransitionTable& table, std::uint32_t n,
                                 const OracleFactory& make_oracle,
                                 const MonteCarloOptions& options) {
  Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;
  return run_monte_carlo_impl(table, initial, make_oracle, options,
                              &protocol);
}

}  // namespace ppk::pp
