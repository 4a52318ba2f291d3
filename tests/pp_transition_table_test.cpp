#include "pp/transition_table.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/bipartition.hpp"
#include "core/kpartition.hpp"
#include "protocols/approximate_majority.hpp"
#include "protocols/exact_majority.hpp"
#include "protocols/leader_election.hpp"

namespace ppk::pp {
namespace {

TEST(TransitionTable, CachesDeltaVerbatim) {
  const core::KPartitionProtocol protocol(4);
  const TransitionTable table(protocol);
  for (StateId p = 0; p < protocol.num_states(); ++p) {
    for (StateId q = 0; q < protocol.num_states(); ++q) {
      EXPECT_EQ(table.apply(p, q), protocol.delta(p, q));
    }
  }
}

TEST(TransitionTable, EffectiveMatchesStateChange) {
  const core::KPartitionProtocol protocol(5);
  const TransitionTable table(protocol);
  for (StateId p = 0; p < protocol.num_states(); ++p) {
    for (StateId q = 0; q < protocol.num_states(); ++q) {
      const Transition t = protocol.delta(p, q);
      EXPECT_EQ(table.effective(p, q), t.initiator != p || t.responder != q);
    }
  }
}

TEST(TransitionTable, EffectiveAdjacencyListsExactlyTheEffectivePairs) {
  // Asymmetric rules included: leader election's (L, L) -> (L, F).
  const core::KPartitionProtocol kpartition(5);
  const protocols::LeaderElectionProtocol leader;
  for (const Protocol* protocol :
       {static_cast<const Protocol*>(&kpartition),
        static_cast<const Protocol*>(&leader)}) {
    const TransitionTable table(*protocol);
    const EffectiveAdjacency& adjacency = table.effective_adjacency();
    EXPECT_EQ(&adjacency, &table.effective_adjacency());  // built once
    for (StateId s = 0; s < table.num_states(); ++s) {
      std::vector<StateId> responders;
      std::vector<StateId> initiators;
      for (StateId t = 0; t < table.num_states(); ++t) {
        if (table.effective(s, t)) responders.push_back(t);
        if (table.effective(t, s)) initiators.push_back(t);
      }
      const auto r = adjacency.responders_of(s);
      const auto i = adjacency.initiators_of(s);
      EXPECT_EQ(std::vector<StateId>(r.begin(), r.end()), responders);
      EXPECT_EQ(std::vector<StateId>(i.begin(), i.end()), initiators);
    }
  }
}

// The paper's protocol is symmetric (Theorem 1 statement); this is the
// machine check for a sweep of k.
TEST(TransitionTable, KPartitionIsSymmetricForAllK) {
  for (GroupId k = 2; k <= 12; ++k) {
    const core::KPartitionProtocol protocol(k);
    const TransitionTable table(protocol);
    EXPECT_TRUE(table.is_symmetric()) << "k=" << k;
    EXPECT_TRUE(table.is_swap_consistent()) << "k=" << k;
  }
}

TEST(TransitionTable, BasicStrategyIsSymmetric) {
  for (GroupId k = 3; k <= 8; ++k) {
    const core::BasicStrategyProtocol protocol(k);
    const TransitionTable table(protocol);
    EXPECT_TRUE(table.is_symmetric()) << "k=" << k;
    EXPECT_TRUE(table.is_swap_consistent()) << "k=" << k;
  }
}

TEST(TransitionTable, BipartitionIsSymmetric) {
  const core::BipartitionProtocol protocol;
  const TransitionTable table(protocol);
  EXPECT_TRUE(table.is_symmetric());
  EXPECT_TRUE(table.is_swap_consistent());
}

TEST(TransitionTable, LeaderElectionIsAsymmetric) {
  const protocols::LeaderElectionProtocol protocol;
  const TransitionTable table(protocol);
  EXPECT_FALSE(table.is_symmetric());
  ASSERT_EQ(table.asymmetric_diagonal_states().size(), 1u);
  EXPECT_EQ(table.asymmetric_diagonal_states()[0],
            protocols::LeaderElectionProtocol::kLeader);
}

TEST(TransitionTable, ApproximateMajorityIsSymmetricButNotSwapConsistent) {
  // AM has no diagonal rule mapping equals to distinct states, so it is
  // symmetric in the paper's sense -- but (X, Y) -> (X, B) blanks the
  // *responder*, so the ordered realization is not swap-consistent.
  const protocols::ApproximateMajorityProtocol protocol;
  const TransitionTable table(protocol);
  EXPECT_TRUE(table.is_symmetric());
  EXPECT_FALSE(table.is_swap_consistent());
}

TEST(TransitionTable, ExactMajorityIsSymmetricButUsessOrderedRules) {
  const protocols::ExactMajorityProtocol protocol;
  const TransitionTable table(protocol);
  // Its diagonal has no rules, so it is "symmetric" in the paper's sense...
  EXPECT_TRUE(table.is_symmetric());
  // ...and its off-diagonal rules are realized swap-consistently.
  EXPECT_TRUE(table.is_swap_consistent());
}

TEST(TransitionTable, NullPairsAreNotEffective) {
  const core::KPartitionProtocol protocol(4);
  const TransitionTable table(protocol);
  // Two committed group members never react.
  EXPECT_FALSE(table.effective(protocol.g(1), protocol.g(2)));
  EXPECT_FALSE(table.effective(protocol.g(3), protocol.g(3)));
  // d and m states do not react with each other.
  EXPECT_FALSE(table.effective(protocol.d(1), protocol.m(2)));
}

}  // namespace
}  // namespace ppk::pp
