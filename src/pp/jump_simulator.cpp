#include "pp/jump_simulator.hpp"

#include <cmath>

#include "obs/sink.hpp"

namespace ppk::pp {

JumpSimulator::JumpSimulator(const TransitionTable& table, Counts initial,
                             std::uint64_t seed)
    : table_(&table),
      adjacency_(&table.effective_adjacency()),
      counts_(std::move(initial)),
      rng_(seed) {
  PPK_EXPECTS(counts_.size() == table.num_states());
  n_ = 0;
  for (auto c : counts_) n_ += c;
  PPK_EXPECTS(n_ >= 2);

  ordered_pairs_ = static_cast<double>(n_) * static_cast<double>(n_ - 1);
  rebuild_weights();
}

void JumpSimulator::rebuild_weights() {
  const StateId num_states = table_->num_states();
  row_sum_.assign(num_states, 0);
  total_weight_ = 0;
  for (StateId p = 0; p < num_states; ++p) {
    // Signed sum: the diagonal term c_p - 1 is -1 when c_p == 0, where the
    // c_p factor zeroes the row weight anyway.
    for (const StateId q : adjacency_->responders_of(p)) {
      row_sum_[p] += static_cast<std::int64_t>(counts_[q]) - (p == q ? 1 : 0);
    }
    total_weight_ += row_weight(p);
  }
}

void JumpSimulator::apply_count_change(StateId state, std::int64_t delta) {
  // Column `state` contributes to every row p with eff(p, state): each such
  // row sum moves by delta, and the total by c_p * delta (with the old
  // c_state on the diagonal row).  Then the c_state factor of row `state`
  // moves by delta against its new sum.  Unsigned wrap-around keeps the
  // total exact.
  std::uint64_t occupied = 0;
  for (const StateId p : adjacency_->initiators_of(state)) {
    row_sum_[p] += delta;
    occupied += counts_[p];
  }
  counts_[state] =
      static_cast<std::uint32_t>(static_cast<std::int64_t>(counts_[state]) +
                                 delta);
  total_weight_ += static_cast<std::uint64_t>(delta) *
                   (occupied + static_cast<std::uint64_t>(row_sum_[state]));
}

bool JumpSimulator::step(StabilityOracle& oracle) {
  return step_within(oracle, UINT64_MAX);
}

bool JumpSimulator::step_within(StabilityOracle& oracle, std::uint64_t budget) {
  if (total_weight_ == 0) return false;  // silent configuration

  // Skip the geometric run of null interactions.
  const double p_eff = static_cast<double>(total_weight_) / ordered_pairs_;
  const std::uint64_t nulls = rng_.geometric(p_eff);
  if (nulls >= budget) {
    // The null run carries past the budget: consume exactly `budget` nulls
    // and stop at the boundary without applying a pair.  Memorylessness
    // makes this exact -- the truncated run's first `budget` draws are
    // distributed as `budget` independent null draws, and the next
    // step_within() call re-samples the wait from scratch.
    interactions_ += budget;
    PPK_OBS_HOOK(obs_, on_skip(counts_, interactions_, budget,
                               obs::AdvanceKind::kJump));
    return true;
  }
  interactions_ += nulls + 1;
  ++effective_;
  // Counts are untouched during the null run, so reporting it before the
  // pair is applied gives the timeline exact configurations at boundaries
  // inside the run.
  if (nulls > 0) {
    PPK_OBS_HOOK(obs_, on_skip(counts_, interactions_ - 1, nulls,
                               obs::AdvanceKind::kJump));
  }

  // Sample the effective ordered pair with exact integer weights.
  std::uint64_t u = rng_.below(total_weight_);
  StateId p = 0;
  for (;; ++p) {
    const std::uint64_t w = row_weight(p);
    if (u < w) break;
    u -= w;
  }
  // u is uniform on [0, c_p * row_sum_p); reduce to a uniform responder
  // draw (row_weight is an exact multiple of row_sum, so % is unbiased).
  // Row p is occupied, so every responder's weight c_q - [p==q] is >= 0.
  std::uint64_t v = u % static_cast<std::uint64_t>(row_sum_[p]);
  StateId q = 0;
  for (const StateId candidate : adjacency_->responders_of(p)) {
    const std::uint64_t w = counts_[candidate] - (candidate == p ? 1u : 0u);
    if (v < w) {
      q = candidate;
      break;
    }
    v -= w;
  }

  // Apply the rule as net count changes: the touched states p, q, p', q'
  // may repeat, and a state whose count ends where it started needs no
  // row update.  Each duplicate folds into its first occurrence.
  const Transition& t = table_->apply(p, q);
  const StateId touched[4] = {p, q, t.initiator, t.responder};
  std::int64_t net[4] = {-1, -1, +1, +1};
  for (int i = 1; i < 4; ++i) {
    for (int j = 0; j < i; ++j) {
      if (touched[j] != touched[i]) continue;
      net[j] += net[i];
      net[i] = 0;
      break;
    }
  }
  for (int i = 0; i < 4; ++i) {
    if (net[i] != 0) apply_count_change(touched[i], net[i]);
  }

  if (watch_marks_ != nullptr) {
    const int delta = (t.initiator == watch_state_ ? 1 : 0) +
                      (t.responder == watch_state_ ? 1 : 0) -
                      (p == watch_state_ ? 1 : 0) -
                      (q == watch_state_ ? 1 : 0);
    for (int i = 0; i < delta; ++i) watch_marks_->push_back(interactions_);
  }
  oracle.on_transition(p, q, t.initiator, t.responder);
  PPK_OBS_HOOK(obs_,
               on_apply(counts_, interactions_, obs::AdvanceKind::kJump));
  return true;
}

Snapshot JumpSimulator::snapshot() const {
  SnapshotWriter w("jump");
  w.rng(rng_);
  w.u64(interactions_);
  w.u64(effective_);
  w.counts(counts_);
  return std::move(w).take();
}

void JumpSimulator::restore(const Snapshot& snap) {
  SnapshotReader r(snap, "jump");
  r.rng(rng_);
  interactions_ = r.u64();
  effective_ = r.u64();
  Counts counts = r.counts();
  r.finish();
  PPK_EXPECTS(counts.size() == counts_.size());
  counts_ = std::move(counts);
  std::uint64_t n = 0;
  for (const std::uint32_t c : counts_) n += c;
  PPK_EXPECTS(n == n_);
  rebuild_weights();
}

SimResult JumpSimulator::run(StabilityOracle& oracle,
                             std::uint64_t max_interactions) {
  oracle.reset(counts_);
  return resume(oracle, max_interactions);
}

SimResult JumpSimulator::resume(StabilityOracle& oracle,
                                std::uint64_t max_interactions) {
  SimResult result;
  const std::uint64_t start = interactions_;
  const std::uint64_t start_effective = effective_;
  while (!oracle.stable() && interactions_ - start < max_interactions) {
    const std::uint64_t remaining = max_interactions - (interactions_ - start);
    if (!step_within(oracle, remaining)) break;  // silent, oracle unsatisfied
  }
  result.interactions = interactions_ - start;
  result.effective = effective_ - start_effective;
  result.stabilized = oracle.stable();
  return result;
}

}  // namespace ppk::pp
