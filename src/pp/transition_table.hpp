// Dense cache of a protocol's transition function, plus machine checks of
// the structural properties the paper relies on.
//
// Two distinct properties are checked:
//  - is_symmetric(): the paper's Definition (Section 2.1): a transition
//    (p,q) -> (p',q') is asymmetric iff p = q and p' != q'; a protocol is
//    symmetric iff no such transition exists.  Symmetric protocols need no
//    symmetry-breaking between identical agents.
//  - is_swap_consistent(): delta(q,p) is the swap of delta(p,q) for all
//    pairs, i.e. the rule set can be read as unordered rules.  Protocols
//    that use the initiator/responder distinction (leader election, exact
//    majority) are deliberately not swap-consistent on the diagonal.
//
// The simulators execute millions to billions of interactions per trial, so
// delta is flattened into a |Q|^2 array once and then every lookup is a
// single indexed load.  The table also precomputes which ordered pairs are
// *effective* (change at least one participant), which both engines and the
// silence detector rely on.  The effective pairs' adjacency lists (per
// initiator and per responder), which the skip-ahead engine walks, are
// built on first use and then shared.

#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "pp/protocol.hpp"

namespace ppk::pp {

/// A protocol's effective ordered pairs as adjacency lists in CSR form:
/// row p's responders are responders[responder_start[p] ..
/// responder_start[p + 1]), ascending, and column q's initiators likewise.
struct EffectiveAdjacency {
  std::vector<std::uint32_t> responder_start;
  std::vector<StateId> responders;
  std::vector<std::uint32_t> initiator_start;
  std::vector<StateId> initiators;

  /// Responders q with effective(p, q), ascending.
  [[nodiscard]] std::span<const StateId> responders_of(
      StateId p) const noexcept {
    return {responders.data() + responder_start[p],
            responders.data() + responder_start[p + 1]};
  }

  /// Initiators p with effective(p, q), ascending.
  [[nodiscard]] std::span<const StateId> initiators_of(
      StateId q) const noexcept {
    return {initiators.data() + initiator_start[q],
            initiators.data() + initiator_start[q + 1]};
  }
};

class TransitionTable {
 public:
  /// Materializes delta for every ordered pair.  O(|Q|^2) time and space.
  explicit TransitionTable(const Protocol& protocol);

  [[nodiscard]] StateId num_states() const noexcept { return num_states_; }

  /// Cached delta(p, q).
  [[nodiscard]] const Transition& apply(StateId p, StateId q) const noexcept {
    return table_[index(p, q)];
  }

  /// True iff delta(p, q) differs from (p, q).
  [[nodiscard]] bool effective(StateId p, StateId q) const noexcept {
    return effective_[index(p, q)] != 0;
  }

  /// The effective-pair adjacency, built on the first call (thread-safe)
  /// and shared by every later caller.
  [[nodiscard]] const EffectiveAdjacency& effective_adjacency() const;

  /// Paper's symmetry: no rule maps equal states to distinct states.
  [[nodiscard]] bool is_symmetric() const noexcept {
    return asymmetric_diagonal_.empty();
  }

  /// True iff delta(q, p) == swap(delta(p, q)) for all ordered pairs.
  [[nodiscard]] bool is_swap_consistent() const noexcept {
    return swap_consistent_;
  }

  /// States p with an asymmetric diagonal rule delta(p,p) = (p', q'),
  /// p' != q' (empty exactly for symmetric protocols).
  [[nodiscard]] const std::vector<StateId>& asymmetric_diagonal_states()
      const noexcept {
    return asymmetric_diagonal_;
  }

 private:
  [[nodiscard]] std::size_t index(StateId p, StateId q) const noexcept {
    return static_cast<std::size_t>(p) * num_states_ + q;
  }

  StateId num_states_;
  std::vector<Transition> table_;
  std::vector<char> effective_;  // char, not bool: avoids bitset proxy cost
  mutable std::once_flag adjacency_once_;
  mutable EffectiveAdjacency adjacency_;
  std::vector<StateId> asymmetric_diagonal_;
  bool swap_consistent_;
};

}  // namespace ppk::pp
