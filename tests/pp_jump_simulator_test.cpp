// Validation of the skip-ahead engine against the exact engines: identical
// stabilization statistics, exact final patterns, and the promised speedup
// regime (effective interactions decoupled from total interactions).

#include "pp/jump_simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "pp/agent_simulator.hpp"
#include "pp/transition_table.hpp"
#include "protocols/leader_election.hpp"
#include "verify/markov.hpp"

namespace ppk::pp {
namespace {

Counts all_initial(const Protocol& protocol, std::uint32_t n) {
  Counts counts(protocol.num_states(), 0);
  counts[protocol.initial_state()] = n;
  return counts;
}

TEST(JumpSimulator, ReachesTheExactStablePattern) {
  const core::KPartitionProtocol protocol(4);
  const TransitionTable table(protocol);
  for (std::uint32_t n : {9u, 13u, 16u, 40u}) {
    JumpSimulator sim(table, all_initial(protocol, n), n);
    auto oracle = core::stable_pattern_oracle(protocol, n);
    const SimResult result = sim.run(*oracle);
    ASSERT_TRUE(result.stabilized) << "n=" << n;
    EXPECT_TRUE(core::matches_stable_pattern(protocol, n, sim.counts()));
  }
}

TEST(JumpSimulator, StopsCleanlyOnSilentConfigurations) {
  // One leader: no effective pair exists; step() must return false and a
  // run with an unsatisfiable oracle must terminate rather than spin.
  const protocols::LeaderElectionProtocol protocol;
  const TransitionTable table(protocol);
  JumpSimulator sim(table, Counts{1, 5}, 3);
  NeverStableOracle oracle;
  const SimResult result = sim.run(oracle, 1'000'000);
  EXPECT_FALSE(result.stabilized);
  EXPECT_EQ(result.effective, 0u);
  EXPECT_EQ(sim.effective_weight(), 0u);
}

TEST(JumpSimulator, EffectiveInteractionsMatchAgentEngineExactly) {
  // Leader election performs exactly n - 1 effective interactions in any
  // execution; the jump engine must agree.
  const protocols::LeaderElectionProtocol protocol;
  const TransitionTable table(protocol);
  JumpSimulator sim(table, all_initial(protocol, 30), 7);
  SilenceOracle oracle(table);
  const SimResult result = sim.run(oracle);
  EXPECT_TRUE(result.stabilized);
  EXPECT_EQ(result.effective, 29u);
  EXPECT_EQ(sim.counts()[protocols::LeaderElectionProtocol::kLeader], 1u);
}

TEST(JumpSimulator, MeanInteractionsMatchTheExactExpectation) {
  // The interaction counter includes the geometrically skipped nulls, so
  // its mean must match the exact Markov expectation like the other
  // engines' do.  Leader election has the closed form (n-1)^2.
  const protocols::LeaderElectionProtocol protocol;
  const TransitionTable table(protocol);
  const std::uint32_t n = 10;
  constexpr int kTrials = 3000;
  double total = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    JumpSimulator sim(table, all_initial(protocol, n),
                      derive_stream_seed(5, static_cast<std::uint64_t>(trial)));
    SilenceOracle oracle(table);
    total += static_cast<double>(sim.run(oracle).interactions);
  }
  const double mean = total / kTrials;
  const double exact = (n - 1.0) * (n - 1.0);  // 81
  // stddev of a single run is ~60 here; 3000 trials -> sem ~1.1.
  EXPECT_NEAR(mean, exact, 4.0);
}

TEST(JumpSimulator, AgreesWithAgentEngineOnKPartition) {
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  const std::uint32_t n = 15;
  constexpr int kTrials = 80;

  double jump_mean = 0.0;
  double agent_mean = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    {
      JumpSimulator sim(table, all_initial(protocol, n),
                        derive_stream_seed(1, static_cast<std::uint64_t>(trial)));
      auto oracle = core::stable_pattern_oracle(protocol, n);
      jump_mean += static_cast<double>(sim.run(*oracle).interactions);
    }
    {
      AgentSimulator sim(table,
                         Population(n, protocol.num_states(),
                                    protocol.initial_state()),
                         derive_stream_seed(2, static_cast<std::uint64_t>(trial)));
      auto oracle = core::stable_pattern_oracle(protocol, n);
      agent_mean += static_cast<double>(sim.run(*oracle).interactions);
    }
  }
  jump_mean /= kTrials;
  agent_mean /= kTrials;
  EXPECT_LT(std::abs(jump_mean - agent_mean) / agent_mean, 0.30)
      << "jump=" << jump_mean << " agent=" << agent_mean;
}

TEST(JumpSimulator, EffectiveWeightTracksConfiguration) {
  // From all-initial, every ordered pair is effective (rule 1), so the
  // weight starts at n(n-1); it must stay consistent with a from-scratch
  // rebuild after arbitrary steps.
  const core::KPartitionProtocol protocol(5);
  const TransitionTable table(protocol);
  const std::uint32_t n = 12;
  JumpSimulator sim(table, all_initial(protocol, n), 9);
  EXPECT_EQ(sim.effective_weight(), static_cast<std::uint64_t>(n) * (n - 1));

  NeverStableOracle oracle;
  for (int i = 0; i < 200; ++i) {
    if (!sim.step(oracle)) break;
    // Recompute the weight from the counts and compare.
    std::uint64_t expected = 0;
    const auto& counts = sim.counts();
    for (StateId p = 0; p < protocol.num_states(); ++p) {
      for (StateId q = 0; q < protocol.num_states(); ++q) {
        if (!table.effective(p, q) || counts[p] == 0) continue;
        const std::uint64_t cq = counts[q] - (p == q ? 1u : 0u);
        if (counts[q] == 0 || (p == q && counts[q] == 1)) continue;
        expected += static_cast<std::uint64_t>(counts[p]) * cq;
      }
    }
    ASSERT_EQ(sim.effective_weight(), expected) << "after step " << i;
  }
}

TEST(JumpSimulator, InteractionBudgetIsNeverOvershot) {
  // Regression: run/resume used to let the final geometric null skip sail
  // past the budget, overshooting by up to one skip length (huge near
  // silence).  The skip now clamps at the boundary -- exact by the
  // memorylessness of the geometric -- so a non-stabilizing run lands on
  // the budget to the interaction.  n = 49 = 1 (mod 3) keeps one free
  // agent at stability, so the configuration never goes silent and every
  // budget must be spent exactly.
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  for (const std::uint64_t budget : {1ULL, 2ULL, 500ULL, 44'444ULL}) {
    JumpSimulator sim(table, all_initial(protocol, 49), 17);
    NeverStableOracle oracle;
    const SimResult result = sim.run(oracle, budget);
    EXPECT_EQ(result.interactions, budget);
    EXPECT_EQ(sim.interactions(), budget);
  }
}

TEST(JumpSimulator, SparseConfigurationBudgetIsExact) {
  // The skip clamp matters most when p_eff is tiny: two leaders among many
  // followers make nearly every interaction null, so each geometric skip
  // dwarfs small budgets.  The counter must still stop exactly on budget.
  const protocols::LeaderElectionProtocol protocol;
  const TransitionTable table(protocol);
  for (const std::uint64_t budget : {1ULL, 10ULL, 1'000ULL}) {
    JumpSimulator sim(table, Counts{2, 998}, 21);
    NeverStableOracle oracle;
    const SimResult result = sim.run(oracle, budget);
    EXPECT_EQ(result.interactions, budget);
    // With p_eff = 2/(1000*999), a 1000-interaction budget almost surely
    // ends inside a null run: no effective interaction was applied.
    EXPECT_LE(result.effective, 1u);
  }
}

TEST(JumpSimulator, ChunkedResumeMatchesSingleRunBudget) {
  // Splitting one budget across resume() grants must consume exactly the
  // same total, chunk boundaries landing mid-skip included.
  const core::KPartitionProtocol protocol(3);
  const TransitionTable table(protocol);
  JumpSimulator sim(table, all_initial(protocol, 49), 31);
  NeverStableOracle oracle;
  oracle.reset(sim.counts());
  std::uint64_t total = 0;
  for (const std::uint64_t grant : {7ULL, 1ULL, 250ULL, 3'000ULL}) {
    const SimResult r = sim.resume(oracle, grant);
    EXPECT_EQ(r.interactions, grant);
    total += r.interactions;
  }
  EXPECT_EQ(sim.interactions(), total);
}

TEST(JumpSimulator, WatchMarksRecordStateEntries) {
  // Leader election: followers only ever increase, one per effective
  // interaction, so watching kFollower must mark exactly n - 1 entries at
  // strictly increasing interaction indices.
  const protocols::LeaderElectionProtocol protocol;
  const TransitionTable table(protocol);
  JumpSimulator sim(table, all_initial(protocol, 20), 13);
  std::vector<std::uint64_t> marks;
  sim.set_watch(protocols::LeaderElectionProtocol::kFollower, &marks);
  SilenceOracle oracle(table);
  const SimResult result = sim.run(oracle);
  ASSERT_TRUE(result.stabilized);
  ASSERT_EQ(marks.size(), 19u);
  for (std::size_t i = 1; i < marks.size(); ++i) {
    EXPECT_GT(marks[i], marks[i - 1]);
  }
  EXPECT_LE(marks.back(), result.interactions);
}

/// Forwards to the protocol's oracle and folds every applied rule
/// (p, q) -> (p', q') into an FNV-1a hash: two runs with equal hashes
/// applied the same rules in the same order.
class TrajectoryHash final : public StabilityOracle {
 public:
  explicit TrajectoryHash(std::unique_ptr<StabilityOracle> inner)
      : inner_(std::move(inner)) {}

  void reset(const Counts& counts) override { inner_->reset(counts); }
  void on_transition(StateId p, StateId q, StateId p_next,
                     StateId q_next) override {
    for (const StateId s : {p, q, p_next, q_next}) {
      hash_ = (hash_ ^ s) * 1099511628211ULL;
    }
    inner_->on_transition(p, q, p_next, q_next);
  }
  [[nodiscard]] bool stable() const override { return inner_->stable(); }

  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

 private:
  std::unique_ptr<StabilityOracle> inner_;
  std::uint64_t hash_ = 1469598103934665603ULL;
};

TEST(JumpSimulator, TrajectoriesArePinned) {
  // The engine's draws are part of its contract: a seeded trial must
  // reproduce bit for bit across changes to the engine's bookkeeping.
  // Each row pins a run to stabilization (interactions, effective draws,
  // rule-sequence hash) and a run cut at half that budget (effective
  // draws, counts mid-run), for seed derive_stream_seed(14, 100000 k + n).
  struct Pin {
    GroupId k;
    std::uint32_t n;
    std::uint64_t interactions;
    std::uint64_t effective;
    std::uint64_t trajectory;
    std::uint64_t half_effective;
    Counts half_counts;
  };
  const std::vector<Pin> pins = {
      {2, 16, 168ULL, 74ULL, 0x1ed1a593acd79de9ULL, 44ULL,
       {2, 2, 6, 6}},
      {2, 300, 200282ULL, 5942ULL, 0xf875ec96df0b5ae5ULL, 4616ULL,
       {1, 1, 149, 149}},
      {2, 5000, 73349642ULL, 133063ULL, 0xaf889da080da5c6dULL, 103774ULL,
       {0, 2, 2499, 2499}},
      {3, 16, 167ULL, 58ULL, 0x3096053604873d1fULL, 29ULL,
       {2, 1, 5, 3, 3, 1, 1}},
      {3, 300, 107144ULL, 3238ULL, 0xbba9a87ac4f55f39ULL, 2871ULL,
       {0, 1, 100, 99, 99, 1, 0}},
      {3, 5000, 49971999ULL, 94976ULL, 0xa0019a5ba90e7d56ULL, 75023ULL,
       {1, 1, 1666, 1666, 1666, 0, 0}},
      {8, 16, 2552ULL, 803ULL, 0x88c22d1038b48a6fULL, 533ULL,
       {0, 4, 3, 3, 2, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0}},
      {8, 300, 237400ULL, 16743ULL, 0x9a6fb4a8c5265400ULL, 15368ULL,
       {0, 1, 39, 39, 37, 37, 36, 36, 36, 36, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0,
        0}},
      {8, 5000, 113259987ULL, 516921ULL, 0x93d2b83706bb91dfULL, 479981ULL,
       {0, 1, 626, 625, 625, 625, 624, 624, 624, 624, 1, 0, 0, 1, 0, 0, 0, 0, 0,
        0, 0, 0}},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE("k=" + std::to_string(pin.k) + " n=" + std::to_string(pin.n));
    const core::KPartitionProtocol protocol(pin.k);
    const TransitionTable table(protocol);
    const std::uint64_t seed =
        derive_stream_seed(14, pin.k * 100000ULL + pin.n);

    JumpSimulator sim(table, all_initial(protocol, pin.n), seed);
    TrajectoryHash oracle(core::stable_pattern_oracle(protocol, pin.n));
    const SimResult result = sim.run(oracle);
    ASSERT_TRUE(result.stabilized);
    EXPECT_EQ(result.interactions, pin.interactions);
    EXPECT_EQ(result.effective, pin.effective);
    EXPECT_EQ(oracle.hash(), pin.trajectory);
    EXPECT_TRUE(core::matches_stable_pattern(protocol, pin.n, sim.counts()));

    JumpSimulator half(table, all_initial(protocol, pin.n), seed);
    NeverStableOracle never;
    const SimResult cut = half.run(never, pin.interactions / 2);
    EXPECT_EQ(cut.effective, pin.half_effective);
    EXPECT_EQ(half.counts(), pin.half_counts);
  }
}

TEST(JumpSimulator, InteractionCounterIsMonotoneAndSkipsAreCounted) {
  const core::KPartitionProtocol protocol(6);
  const TransitionTable table(protocol);
  JumpSimulator sim(table, all_initial(protocol, 60), 4);
  auto oracle = core::stable_pattern_oracle(protocol, 60);
  const SimResult result = sim.run(*oracle);
  ASSERT_TRUE(result.stabilized);
  // Total interactions must exceed effective ones: nulls were skipped but
  // still counted.
  EXPECT_GT(result.interactions, result.effective);
}

}  // namespace
}  // namespace ppk::pp
