#include "pp/transition_table.hpp"

#include "util/assert.hpp"

namespace ppk::pp {

TransitionTable::TransitionTable(const Protocol& protocol)
    : num_states_(protocol.num_states()), swap_consistent_(true) {
  PPK_EXPECTS(num_states_ > 0);
  const std::size_t n = num_states_;
  table_.resize(n * n);
  effective_.resize(n * n);

  for (StateId p = 0; p < num_states_; ++p) {
    for (StateId q = 0; q < num_states_; ++q) {
      const Transition t = protocol.delta(p, q);
      PPK_ASSERT(t.initiator < num_states_ && t.responder < num_states_);
      table_[index(p, q)] = t;
      effective_[index(p, q)] =
          static_cast<char>(t.initiator != p || t.responder != q);
    }
  }

  for (StateId p = 0; p < num_states_; ++p) {
    const Transition diag = table_[index(p, p)];
    if (diag.initiator != diag.responder) {
      asymmetric_diagonal_.push_back(p);
    }
    for (StateId q = 0; q < num_states_; ++q) {
      const Transition forward = table_[index(p, q)];
      const Transition backward = table_[index(q, p)];
      if (backward.initiator != forward.responder ||
          backward.responder != forward.initiator) {
        swap_consistent_ = false;
      }
    }
  }
}

const EffectiveAdjacency& TransitionTable::effective_adjacency() const {
  std::call_once(adjacency_once_, [this] {
    const std::size_t n = num_states_;
    EffectiveAdjacency& a = adjacency_;
    a.responder_start.assign(n + 1, 0);
    a.initiator_start.assign(n + 1, 0);
    for (StateId p = 0; p < num_states_; ++p) {
      for (StateId q = 0; q < num_states_; ++q) {
        if (!effective(p, q)) continue;
        ++a.responder_start[p + 1];
        ++a.initiator_start[q + 1];
      }
    }
    // Prefix-sum the row and column sizes, then place every effective pair
    // in both lists (ascending, as p and q are visited in order).
    for (std::size_t s = 0; s < n; ++s) {
      a.responder_start[s + 1] += a.responder_start[s];
      a.initiator_start[s + 1] += a.initiator_start[s];
    }
    a.responders.resize(a.responder_start[n]);
    a.initiators.resize(a.initiator_start[n]);
    std::vector<std::uint32_t> next_initiator(a.initiator_start.begin(),
                                              a.initiator_start.end() - 1);
    for (StateId p = 0; p < num_states_; ++p) {
      std::uint32_t next_responder = a.responder_start[p];
      for (StateId q = 0; q < num_states_; ++q) {
        if (!effective(p, q)) continue;
        a.responders[next_responder++] = q;
        a.initiators[next_initiator[q]++] = p;
      }
    }
  });
  return adjacency_;
}

}  // namespace ppk::pp
