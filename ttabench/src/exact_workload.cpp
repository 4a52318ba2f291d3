// exact: expected stabilization times from the symmetry-lumped chain
// (verify::LumpedMarkovAnalysis), plus one first-passage CDF.  Building
// the chains (orbit enumeration and the lumpability certificate) is the
// set-up; the sparse solves and the CDF are the answer.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/bipartition.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/weak_kpartition.hpp"
#include "verify/lumped_markov.hpp"
#include "verify/markov.hpp"

namespace tta {
namespace {

namespace pp = ppk::pp;
namespace core = ppk::core;
namespace verify = ppk::verify;

/// One exact question: a protocol at n and the target it must reach.
struct Chain {
  std::string label;
  std::unique_ptr<pp::Protocol> protocol;
  std::unique_ptr<pp::TransitionTable> table;
  std::uint32_t n = 0;
  verify::ConfigPredicate target;
};

/// Silence: no effective pair among the present states.
verify::ConfigPredicate silence_of(const pp::TransitionTable& table) {
  return [&table](const pp::Counts& c) {
    for (pp::StateId p = 0; p < c.size(); ++p) {
      if (c[p] == 0) continue;
      for (pp::StateId q = 0; q < c.size(); ++q) {
        const bool present = p == q ? c[p] >= 2 : c[q] > 0;
        if (present && table.effective(p, q)) return false;
      }
    }
    return true;
  };
}

enum class Family { kKPartition, kWeak, kBipartition };

Chain make_chain(Family family, pp::GroupId k, std::uint32_t n) {
  Chain chain;
  chain.n = n;
  switch (family) {
    case Family::kKPartition: {
      auto protocol = std::make_unique<core::KPartitionProtocol>(k);
      const core::KPartitionProtocol* kp = protocol.get();
      chain.target = [kp, n](const pp::Counts& c) {
        return core::matches_stable_pattern(*kp, n, c);
      };
      chain.protocol = std::move(protocol);
      chain.label = "kpartition k=" + std::to_string(k);
      break;
    }
    case Family::kWeak:
      chain.protocol = std::make_unique<core::WeakKPartitionProtocol>(k);
      chain.label = "weak k=" + std::to_string(k);
      break;
    case Family::kBipartition:
      chain.protocol = std::make_unique<core::BipartitionProtocol>();
      chain.label = "bipartition";
      break;
  }
  chain.table = std::make_unique<pp::TransitionTable>(*chain.protocol);
  if (family == Family::kWeak) chain.target = silence_of(*chain.table);
  if (family == Family::kBipartition) {
    // Uniform bipartition: the two output groups differ by at most one and
    // no free agent is left (the protocol's stable pattern).
    const pp::Protocol* protocol = chain.protocol.get();
    chain.target = [protocol, n](const pp::Counts& c) {
      std::uint32_t g[2] = {0, 0};
      std::uint32_t free_agents = 0;
      for (pp::StateId s = 0; s < c.size(); ++s) {
        if (s == core::BipartitionProtocol::kInitial ||
            s == core::BipartitionProtocol::kInitialPrime) {
          free_agents += c[s];
        } else {
          g[protocol->group(s)] += c[s];
        }
      }
      const std::uint32_t gap = g[0] > g[1] ? g[0] - g[1] : g[1] - g[0];
      return free_agents <= n % 2 && gap <= 1;
    };
  }
  chain.label += " n=" + std::to_string(n);
  return chain;
}

pp::Counts initial_of(const Chain& chain) {
  pp::Counts initial(chain.table->num_states(), 0);
  initial[chain.protocol->initial_state()] = chain.n;
  return initial;
}

std::optional<verify::LumpedMarkovAnalysis> build(const Chain& chain,
                                                  bool certificate,
                                                  std::string* why) {
  verify::LumpedOptions options;
  options.check_lumpability = certificate;
  return verify::LumpedMarkovAnalysis::try_build(
      *chain.table, chain.protocol->symmetry(), initial_of(chain), options,
      why);
}

/// E[T] from the lumped chain; nullopt (and a reason) if unsolved.
std::optional<double> solve(const verify::LumpedMarkovAnalysis& analysis,
                            const Chain& chain, std::string* why) {
  try {
    const auto e = analysis.expected_hitting_time(chain.target);
    if (!e || !std::isfinite(*e)) *why = "target not reached a.s.";
    return e;
  } catch (const std::exception& error) {
    *why = error.what();
    return std::nullopt;
  }
}

bool agree(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

}  // namespace

void run_exact(const Options& options, Tracer& tracer, Report& report) {
  report.unit = "chains";
  Gauge gauge;
  std::vector<double> setup_samples;
  std::uint64_t failed = 0;
  // Traced runs: round 0's build figures (min of three builds each with
  // and without the certificate, so their difference is not timer noise).
  double build_s = 0.0;
  double nocert_s = 0.0;
  double orbits = 0.0;
  double raw = 0.0;
  std::vector<double> cdf;  // round 0's CDF, checked after the rounds
  double cdf_expected = 0.0;
  std::string cdf_label;

  const Rounds rounds = run_rounds(options.seconds, 1, gauge, [&](int r) {
    const auto round_span = tracer.span("exact.round");
    // Inputs: k = 2 (order-4 group) at n near 280, k = 3 and 4 (trivial
    // group), the weak family where orbit enumeration dominates, and the
    // CDF chain.
    std::vector<Chain> chains;
    // Even n only: the stable pattern of odd n keeps a free agent, which
    // halves E[T] and would make the seed change the amount of work.
    chains.push_back(make_chain(Family::kKPartition, 2,
                                276 + 2 * static_cast<std::uint32_t>(
                                              derive(options.seed, 1) % 5)));
    chains.push_back(make_chain(Family::kKPartition, 3, 39));
    chains.push_back(make_chain(Family::kKPartition, 4, 24));
    chains.push_back(make_chain(Family::kWeak, 3, 30));
    chains.push_back(make_chain(Family::kKPartition, 3, 18));
    const std::size_t cdf_chain = chains.size() - 1;
    const std::size_t absorption_chain = 1;
    report.attempted += chains.size();

    // Set-up: build every chain with its lumpability certificate.  The
    // round builds them again after its solves (untimed in the answer), so
    // the set-up samples are twice as many as the rounds and spread over
    // the run as they do.
    std::vector<std::optional<verify::LumpedMarkovAnalysis>> built;
    const double setup_start = now_s();
    for (const Chain& chain : chains) {
      const auto span = tracer.span("verify.build");
      std::string why;
      built.push_back(build(chain, true, &why));
      if (!built.back()) report.note("unbuilt " + chain.label + ": " + why);
    }
    setup_samples.push_back(gauge.scale(now_s() - setup_start));
    const auto setup_again = [&] {
      const double start = now_s();
      for (std::size_t i = 0; i < chains.size(); ++i) {
        std::string why;
        const auto again = build(chains[i], true, &why);
        report.check(again.has_value() == built[i].has_value(),
                     chains[i].label + ": rebuild");
      }
      setup_samples.push_back(gauge.scale(now_s() - start));
    };
    if (tracer.enabled() && r == 0) {
      for (std::size_t i = 0; i < chains.size(); ++i) {
        if (!built[i]) continue;
        orbits += static_cast<double>(built[i]->num_orbits());
        raw += static_cast<double>(built[i]->raw_config_count());
        double with = 1e300;
        double without = 1e300;
        for (int repeat = 0; repeat < 3; ++repeat) {
          for (const bool certificate : {true, false}) {
            std::string why;
            const double start = now_s();
            const auto again = build(chains[i], certificate, &why);
            const double spent = now_s() - start;
            report.check(again.has_value(), chains[i].label + ": rebuild");
            double& best = certificate ? with : without;
            best = std::min(best, spent);
          }
        }
        build_s += with;
        nocert_s += without;
      }
    }

    // Answer: the sparse solves, one absorption distribution and the CDF.
    double answer = 0.0;
    for (std::size_t i = 0; i < chains.size(); ++i) {
      if (!built[i]) {
        ++failed;
        continue;
      }
      std::string why;
      std::optional<double> e;
      {
        const auto span = tracer.span("verify.solve");
        const double start = now_s();
        e = solve(*built[i], chains[i], &why);
        const double spent = now_s() - start;
        answer += spent;
        gauge.after(spent);
      }
      if (!e || !std::isfinite(*e)) {
        ++failed;
        report.note("unsolved " + chains[i].label + ": " + why);
        continue;
      }
      if (i == absorption_chain) {
        const auto span = tracer.span("verify.absorption");
        const double start = now_s();
        const auto absorptions = built[i]->absorption_probabilities();
        const double spent = now_s() - start;
        answer += spent;
        gauge.after(spent);
        double total = 0.0;
        for (const auto& a : absorptions) total += a.probability;
        report.check(std::abs(total - 1.0) <= 1e-9,
                     chains[i].label + ": absorption probabilities sum to 1");
      }
      if (i == cdf_chain) {
        const auto span = tracer.span("verify.cdf");
        const auto horizon = static_cast<std::size_t>(std::ceil(60.0 * *e));
        const double start = now_s();
        std::vector<double> f =
            built[i]->hitting_time_cdf(chains[i].target, horizon);
        const double spent = now_s() - start;
        answer += spent;
        gauge.after(spent);
        if (r == 0) {
          cdf = std::move(f);
          cdf_expected = *e;
          cdf_label = chains[i].label;
        }
      }
      if (r == 0) {
        report.note("  " + chains[i].label + ": E[T] = " + std::to_string(*e) +
                    ", " + std::to_string(built[i]->num_orbits()) + " orbits");
      }
    }
    setup_again();
    return answer;
  });
  report.failed = failed;
  report.end_to_end["answer_s"] = rounds.answer_s();
  report.note(rounds.describe());
  report.end_to_end["setup_s"] = median(setup_samples);
  report.note("exact: " + std::to_string(rounds.seconds.size()) + " rounds");

  // Checks outside the timed rounds.
  // 1. Lumped == dense wherever dense reaches.
  struct Small {
    Family family;
    pp::GroupId k;
    std::uint32_t n;
  };
  for (const Small& s : {Small{Family::kKPartition, 2, 60},
                         Small{Family::kKPartition, 3, 16},
                         Small{Family::kKPartition, 4, 12},
                         Small{Family::kWeak, 3, 10}}) {
    const Chain chain = make_chain(s.family, s.k, s.n);
    std::string why;
    const auto lumped = build(chain, true, &why);
    verify::MarkovOptions dense_options;
    dense_options.method = verify::MarkovMethod::kDense;
    const auto dense = verify::MarkovAnalysis::try_create(
        *chain.table, initial_of(chain), dense_options, &why);
    report.check(lumped && dense, chain.label + ": dense and lumped build");
    if (!lumped || !dense) continue;
    const auto a = solve(*lumped, chain, &why);
    const auto b = dense->expected_hitting_time(chain.target);
    report.check(a && b && agree(*a, *b, 1e-9),
                 chain.label + ": lumped E[T] matches dense within 1e-9");
  }
  // 2. The k-partition at k = 2 is the bipartition protocol.
  {
    const Chain k2 = make_chain(Family::kKPartition, 2, 120);
    const Chain bi = make_chain(Family::kBipartition, 2, 120);
    std::string why;
    const auto a = build(k2, true, &why);
    const auto b = build(bi, true, &why);
    const auto ea = a ? solve(*a, k2, &why) : std::nullopt;
    const auto eb = b ? solve(*b, bi, &why) : std::nullopt;
    report.check(ea && eb && agree(*ea, *eb, 1e-9),
                 "k-partition k=2 and bipartition agree at n=120");
  }
  // 3. The CDF's tail sum reproduces the solved E[T].
  if (!cdf.empty()) {
    double tail = 0.0;
    for (std::size_t t = 0; t + 1 < cdf.size(); ++t) tail += 1.0 - cdf[t];
    report.check(1.0 - cdf.back() < 1e-12,
                 cdf_label + ": CDF horizon covers the tail");
    report.check(agree(tail, cdf_expected, 1e-6),
                 cdf_label + ": sum of (1 - F[t]) = " + std::to_string(tail) +
                     " matches E[T] = " + std::to_string(cdf_expected));
  } else {
    report.check(false, "no CDF computed");
  }

  if (tracer.enabled()) {
    report.layer["verify.build_s"] = build_s;
    report.layer["verify.lumpability_s"] = build_s - nocert_s;
    report.layer["verify.orbits"] = orbits;
    report.layer["verify.raw_configs"] = raw;
    report.layer["verify.orbits_per_s"] =
        build_s > 0.0 ? orbits / build_s : 0.0;
    // The answer spans cover every round; report them per round.
    const double per_round = 1.0 / static_cast<double>(rounds.seconds.size());
    report.layer["verify.solve_s"] = tracer.self_s("verify.solve") * per_round;
    report.layer["verify.cdf_s"] = tracer.self_s("verify.cdf") * per_round;
    report.layer["verify.absorption_s"] =
        tracer.self_s("verify.absorption") * per_round;
  }
}

}  // namespace tta
