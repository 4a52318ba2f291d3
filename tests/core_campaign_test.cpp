// Crash-safe campaign layer (core/campaign.hpp): checkpoint round trips,
// interrupt/resume bit-identity, thread-count invariance, retry/backoff
// supervision, and the refusal paths.  The SIGKILL version of the resume
// story lives in scripts/test_crash_resume.py; these tests drive the same
// machinery in-process where every step is assertable.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/campaign.hpp"
#include "core/invariants.hpp"
#include "core/kpartition.hpp"
#include "core/weak_kpartition.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "pp/fairness.hpp"
#include "pp/interaction_graph.hpp"
#include "pp/monte_carlo.hpp"
#include "pp/stability.hpp"
#include "pp/transition_table.hpp"
#include "util/rng.hpp"

#include <memory>
#include <vector>

namespace {

using ppk::core::CampaignCheckpoint;
using ppk::core::CampaignOptions;
using ppk::core::CampaignResult;
using ppk::core::KPartitionProtocol;
using ppk::obs::MetricsRegistry;

std::string registry_json(const MetricsRegistry& registry) {
  std::ostringstream out;
  ppk::io::JsonWriter json(out);
  registry.write_json(json);
  return out.str();
}

std::uint64_t counter_value(const MetricsRegistry& registry,
                            const std::string& name) {
  const auto it = registry.counters().find(name);
  return it != registry.counters().end() ? it->second.value() : 0;
}

/// Trial verdicts as one comparable string (everything the report carries).
std::string verdicts(const CampaignResult& result) {
  std::ostringstream out;
  for (const auto& t : result.trials) {
    out << t.result.interactions << '/' << t.result.effective << '/'
        << t.result.stabilized << t.result.timed_out << t.result.stalled
        << t.failed << t.censored << '/' << t.retries;
    for (const std::uint64_t m : t.result.watch_marks) out << ',' << m;
    out << '\n';
  }
  return out.str();
}

class CampaignTest : public ::testing::Test {
 protected:
  CampaignTest() : protocol_(3), table_(protocol_) {}

  [[nodiscard]] CampaignOptions base_options() const {
    CampaignOptions options;
    options.mc.trials = 8;
    options.mc.master_seed = 99;
    options.mc.max_interactions = 200'000;
    options.chunk_interactions = 512;
    options.checkpoint_every_chunks = 2;
    return options;
  }

  [[nodiscard]] CampaignResult run(const CampaignOptions& options) const {
    return ppk::core::run_campaign(
        protocol_, table_, kN,
        [&] { return ppk::core::stable_pattern_oracle(protocol_, kN); },
        options);
  }

  [[nodiscard]] std::string temp_checkpoint(const char* tag) const {
    const auto path = std::filesystem::temp_directory_path() /
                      (std::string("ppk_campaign_test_") + tag + ".json");
    std::filesystem::remove(path);
    return path.string();
  }

  static constexpr std::uint32_t kN = 40;
  KPartitionProtocol protocol_;
  ppk::pp::TransitionTable table_;
};

TEST_F(CampaignTest, CompletesAndCountsVerdicts) {
  const CampaignResult result = run(base_options());
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.error.empty());
  EXPECT_FALSE(result.resumed);
  EXPECT_EQ(result.trials.size(), 8u);
  EXPECT_EQ(result.completed_count(), 8u);
  EXPECT_EQ(result.failed_count(), 0u);
  EXPECT_EQ(result.censored_count(), 0u);
  for (const auto& t : result.trials) EXPECT_TRUE(t.result.stabilized);
  EXPECT_EQ(counter_value(result.metrics, "trials"), 8u);
  EXPECT_EQ(counter_value(result.metrics, "trials.stabilized"), 8u);
}

TEST_F(CampaignTest, ResultIsThreadCountInvariant) {
  CampaignOptions options = base_options();
  const CampaignResult one = run(options);
  options.mc.threads = 4;
  const CampaignResult four = run(options);
  EXPECT_EQ(verdicts(one), verdicts(four));
  EXPECT_EQ(registry_json(one.metrics), registry_json(four.metrics));
}

TEST_F(CampaignTest, CheckpointSerializationRoundTripsExactly) {
  // Run half the campaign (tiny deadline halts at the first chunk
  // boundaries), parse the checkpoint it wrote, re-serialize, and demand
  // the identical bytes: every field, including in-flight snapshots and
  // histogram buckets, must survive.
  CampaignOptions options = base_options();
  options.checkpoint_path = temp_checkpoint("roundtrip");
  options.campaign_deadline_seconds = 1e-9;
  const CampaignResult partial = run(options);
  EXPECT_FALSE(partial.complete);
  EXPECT_GT(partial.censored_count(), 0u);

  std::ifstream file(options.checkpoint_path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::string error;
  const auto ckpt =
      ppk::core::parse_campaign_checkpoint(buffer.str(), &error);
  ASSERT_TRUE(ckpt.has_value()) << error;
  EXPECT_EQ(ppk::core::serialize_campaign_checkpoint(*ckpt), buffer.str());
  std::filesystem::remove(options.checkpoint_path);
}

TEST_F(CampaignTest, InterruptedCampaignResumesBitIdentically) {
  const CampaignResult reference = run(base_options());
  ASSERT_TRUE(reference.complete);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    CampaignOptions options = base_options();
    options.mc.threads = threads;
    options.checkpoint_path = temp_checkpoint("resume");
    options.campaign_deadline_seconds = 1e-9;  // halt at the first boundary
    const CampaignResult partial = run(options);
    EXPECT_FALSE(partial.complete);

    options.campaign_deadline_seconds.reset();
    const CampaignResult resumed = run(options);
    EXPECT_TRUE(resumed.resumed);
    ASSERT_TRUE(resumed.complete) << "threads=" << threads;
    EXPECT_EQ(verdicts(resumed), verdicts(reference))
        << "threads=" << threads;
    EXPECT_EQ(registry_json(resumed.metrics),
              registry_json(reference.metrics))
        << "threads=" << threads;
    std::filesystem::remove(options.checkpoint_path);
  }
}

TEST_F(CampaignTest, StopFlagCensorsAndKeepsTheCampaignResumable) {
  CampaignOptions options = base_options();
  options.checkpoint_path = temp_checkpoint("stop");
  const std::atomic<bool> stop{true};
  options.stop = &stop;
  const CampaignResult halted = run(options);
  EXPECT_FALSE(halted.complete);
  EXPECT_EQ(halted.censored_count(), options.mc.trials);

  options.stop = nullptr;
  const CampaignResult resumed = run(options);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(verdicts(resumed), verdicts(run(base_options())));
  std::filesystem::remove(options.checkpoint_path);
}

TEST_F(CampaignTest, RetryBacksOffTheBudgetUntilStabilization) {
  CampaignOptions options = base_options();
  options.mc.trials = 4;
  options.mc.max_interactions = 40;  // far too small for n = 40
  options.max_retries = 12;
  options.retry_backoff = 2.0;
  MetricsRegistry runtime;
  options.runtime_metrics = &runtime;
  const CampaignResult result = run(options);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.failed_count(), 0u);
  EXPECT_GT(result.retried_count(), 0u);
  for (const auto& t : result.trials) {
    EXPECT_TRUE(t.result.stabilized);
    EXPECT_GT(t.retries, 0u);
    // Accumulated work spans every attempt, so it exceeds the base budget.
    EXPECT_GT(t.result.interactions, options.mc.max_interactions);
  }
  EXPECT_GT(runtime.counter("campaign.retries").value(), 0u);
  EXPECT_EQ(runtime.gauge("campaign.trials.failed").value(), 0);
}

TEST_F(CampaignTest, ExhaustedRetriesFailTheTrial) {
  CampaignOptions options = base_options();
  options.mc.trials = 2;
  options.mc.max_interactions = 10;
  options.max_retries = 1;
  options.retry_backoff = 1.0;  // no growth: it can never stabilize
  const CampaignResult result = run(options);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.failed_count(), 2u);
  for (const auto& t : result.trials) {
    EXPECT_TRUE(t.failed);
    EXPECT_FALSE(t.result.stabilized);
    EXPECT_EQ(t.retries, 1u);
  }
  EXPECT_EQ(counter_value(result.metrics, "trials.failed"), 2u);
}

TEST_F(CampaignTest, RefusesACheckpointFromADifferentConfiguration) {
  CampaignOptions options = base_options();
  options.checkpoint_path = temp_checkpoint("fingerprint");
  const CampaignResult first = run(options);
  ASSERT_TRUE(first.complete);

  options.mc.master_seed = 100;  // different campaign, same file
  const CampaignResult refused = run(options);
  EXPECT_FALSE(refused.error.empty());
  EXPECT_TRUE(refused.trials.empty());
  std::filesystem::remove(options.checkpoint_path);
}

TEST_F(CampaignTest, RefusesAMalformedCheckpointFile) {
  CampaignOptions options = base_options();
  options.checkpoint_path = temp_checkpoint("malformed");
  {
    std::ofstream file(options.checkpoint_path);
    file << "{\"schema\":\"ppk-campaign-v1\",\"garbage\":true}";
  }
  const CampaignResult refused = run(options);
  EXPECT_FALSE(refused.error.empty());
  EXPECT_TRUE(refused.trials.empty());
  std::filesystem::remove(options.checkpoint_path);
}

TEST_F(CampaignTest, RuntimeMetricsRecordCheckpointWrites) {
  CampaignOptions options = base_options();
  options.checkpoint_path = temp_checkpoint("runtime");
  MetricsRegistry runtime;
  options.runtime_metrics = &runtime;
  const CampaignResult result = run(options);
  EXPECT_TRUE(result.complete);
  EXPECT_GT(runtime.counter("campaign.checkpoints").value(), 0u);
  EXPECT_EQ(runtime.histogram("campaign.checkpoint.write_us").total(),
            runtime.counter("campaign.checkpoints").value());
  EXPECT_EQ(runtime.gauge("campaign.trials.censored").value(), 0);
  EXPECT_EQ(runtime.gauge("campaign.trials.failed").value(), 0);
  std::filesystem::remove(options.checkpoint_path);
}

TEST_F(CampaignTest, FingerprintCoversTheTrajectoryShapingKnobs) {
  const CampaignOptions base = base_options();
  ppk::pp::Counts initial(protocol_.num_states(), 0);
  initial[protocol_.initial_state()] = kN;
  const std::string fp = ppk::core::campaign_fingerprint(initial, base);

  CampaignOptions changed = base;
  changed.chunk_interactions = 1024;
  EXPECT_NE(ppk::core::campaign_fingerprint(initial, changed), fp);
  changed = base;
  changed.mc.master_seed = 7;
  EXPECT_NE(ppk::core::campaign_fingerprint(initial, changed), fp);
  changed = base;
  changed.max_retries = 3;
  EXPECT_NE(ppk::core::campaign_fingerprint(initial, changed), fp);

  // Supervision-only knobs deliberately stay out: they never change a
  // completed trial's trajectory, so resuming across them is sound.
  changed = base;
  changed.campaign_deadline_seconds = 5.0;
  changed.checkpoint_every_chunks = 99;
  EXPECT_EQ(ppk::core::campaign_fingerprint(initial, changed), fp);
}

TEST_F(CampaignTest, FingerprintCoversFairnessAndTopology) {
  const CampaignOptions base = base_options();
  ppk::pp::Counts initial(protocol_.num_states(), 0);
  initial[protocol_.initial_state()] = kN;
  const std::string fp = ppk::core::campaign_fingerprint(initial, base);

  // The fairness policy and its epsilon both shape every adversarial
  // trajectory; each must change the fingerprint on its own.
  CampaignOptions changed = base;
  changed.mc.fairness.policy = ppk::pp::FairnessPolicy::kWeakRoundRobin;
  EXPECT_NE(ppk::core::campaign_fingerprint(initial, changed), fp);
  changed = base;
  changed.mc.fairness.policy = ppk::pp::FairnessPolicy::kEpsilonFair;
  changed.mc.fairness.epsilon = 0.25;
  const std::string quarter = ppk::core::campaign_fingerprint(initial, changed);
  EXPECT_NE(quarter, fp);
  changed.mc.fairness.epsilon = 0.5;
  EXPECT_NE(ppk::core::campaign_fingerprint(initial, changed), quarter);

  // A caller-supplied topology tag distinguishes topologies the factory
  // presence bit cannot (ring vs star).
  changed = base;
  changed.topology_tag = "ring";
  const std::string ring = ppk::core::campaign_fingerprint(initial, changed);
  EXPECT_NE(ring, fp);
  changed.topology_tag = "star";
  EXPECT_NE(ppk::core::campaign_fingerprint(initial, changed), ring);
}

TEST_F(CampaignTest, RefusesAFairnessMismatchedCheckpoint) {
  // A checkpoint written under weak round-robin must NOT resume under the
  // default uniform-random fairness: the policies draw entirely different
  // trajectories, so finishing the campaign under the wrong one would
  // silently mix statistics.  (The pre-fix fingerprint omitted fairness
  // and resumed cleanly.)
  CampaignOptions options = base_options();
  options.checkpoint_path = temp_checkpoint("fairness_mismatch");
  options.mc.fairness.policy = ppk::pp::FairnessPolicy::kWeakRoundRobin;
  const std::atomic<bool> stop{true};
  options.stop = &stop;  // wind down immediately; the checkpoint still lands
  const CampaignResult halted = run(options);
  EXPECT_FALSE(halted.complete);

  options.stop = nullptr;
  options.mc.fairness = ppk::pp::FairnessSpec{};  // back to uniform-random
  const CampaignResult refused = run(options);
  EXPECT_FALSE(refused.error.empty());
  EXPECT_TRUE(refused.trials.empty());
  std::filesystem::remove(options.checkpoint_path);
}

TEST_F(CampaignTest, RefusesInFlightSnapshotsOfAnotherResolvedEngine) {
  // A kAuto campaign's checkpoint holds snapshots of the engine kAuto
  // resolved to when it was written.  When a later version resolves the
  // same population to another engine, restoring those snapshots would
  // trip the engine's snapshot-tag precondition; the fingerprint carries
  // the tag, so the file is refused by name instead.  Hand-make such a
  // file: agent snapshots at n = 300, relabelled as a kAuto campaign
  // (with and without the tag, the latter being the older format).
  constexpr std::uint32_t kLarge = 300;
  ASSERT_NE(ppk::pp::resolve_engine(ppk::pp::Engine::kAuto, kLarge, false),
            ppk::pp::Engine::kAgentArray);
  std::atomic<bool> stop{false};
  const auto campaign = [&](const CampaignOptions& options) {
    return ppk::core::run_campaign(
        protocol_, table_, kLarge,
        [&] {
          // Wind down at the first chunk boundary, which leaves the trial
          // in flight in the checkpoint.
          stop = true;
          return ppk::core::stable_pattern_oracle(protocol_, kLarge);
        },
        options);
  };
  CampaignOptions options = base_options();
  options.mc.trials = 1;
  options.mc.engine = ppk::pp::Engine::kAgentArray;
  options.checkpoint_path = temp_checkpoint("resolved_engine");
  options.stop = &stop;
  ASSERT_FALSE(campaign(options).complete);
  std::string text;
  {
    std::ifstream file(options.checkpoint_path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }
  const auto checkpoint = ppk::core::parse_campaign_checkpoint(text);
  ASSERT_TRUE(checkpoint.has_value());
  ASSERT_FALSE(checkpoint->in_flight.empty());
  EXPECT_EQ(checkpoint->in_flight.front().snapshot.engine, "agent");

  const std::string agent_engine =
      " engine=" + std::to_string(static_cast<int>(options.mc.engine));
  const std::string auto_engine =
      " engine=" + std::to_string(static_cast<int>(ppk::pp::Engine::kAuto));
  const std::string tag = " snapshot=agent";
  const std::size_t at = text.find(agent_engine + tag);
  ASSERT_NE(at, std::string::npos);
  options.stop = nullptr;
  options.mc.engine = ppk::pp::Engine::kAuto;
  for (const std::string& relabel : {auto_engine + tag, auto_engine}) {
    std::string forged = text;
    forged.replace(at, agent_engine.size() + tag.size(), relabel);
    {
      std::ofstream file(options.checkpoint_path, std::ios::trunc);
      file << forged;
    }
    const CampaignResult refused = campaign(options);
    EXPECT_NE(refused.error.find("written by a different campaign"),
              std::string::npos)
        << refused.error;
    EXPECT_TRUE(refused.trials.empty());
  }
  std::filesystem::remove(options.checkpoint_path);
}

TEST_F(CampaignTest, AdversarialFairnessRoutesToTheAdversarialEngine) {
  // An epsilon-fair campaign must draw the same trajectories as the
  // Monte-Carlo runner's adversarial route with the same seeds.  (Pre-fix
  // the campaign ignored `mc.fairness` and ran the uniform scheduler, so
  // the totals disagree.)
  CampaignOptions options = base_options();
  options.mc.trials = 4;
  options.mc.fairness =
      ppk::pp::FairnessSpec{ppk::pp::FairnessPolicy::kEpsilonFair, 0.5};
  const CampaignResult campaign = run(options);
  ASSERT_TRUE(campaign.complete);

  const ppk::pp::MonteCarloResult reference = ppk::pp::run_monte_carlo(
      protocol_, table_, kN,
      [&] { return ppk::core::stable_pattern_oracle(protocol_, kN); },
      options.mc);
  ASSERT_EQ(reference.trials.size(), campaign.trials.size());
  for (std::size_t t = 0; t < campaign.trials.size(); ++t) {
    EXPECT_EQ(campaign.trials[t].result.interactions,
              reference.trials[t].interactions)
        << "trial " << t;
    EXPECT_EQ(campaign.trials[t].result.effective,
              reference.trials[t].effective)
        << "trial " << t;
    EXPECT_TRUE(campaign.trials[t].result.stabilized) << "trial " << t;
  }
}

TEST_F(CampaignTest, CountsOnlyOverloadRejectsAdversarialFairness) {
  // Without a protocol the adversarial engine cannot probe for progress;
  // the counts-only overload must fail fast instead of silently running
  // the uniform scheduler.
  CampaignOptions options = base_options();
  options.mc.fairness.policy = ppk::pp::FairnessPolicy::kWeakRoundRobin;
  ppk::pp::Counts initial(protocol_.num_states(), 0);
  initial[protocol_.initial_state()] = kN;
  EXPECT_DEATH(
      (void)ppk::core::run_campaign(
          table_, initial,
          [&] { return ppk::core::stable_pattern_oracle(protocol_, kN); },
          options),
      "needs_adversarial_engine");
}

TEST_F(CampaignTest, WeakRoundRobinCheckpointResumesBitIdentically) {
  // The checkpoint-kill-resume story under kWeakRoundRobin: the
  // adversarial engine's snapshot carries the unscheduled remainder of
  // the current round, so a censored-and-resumed campaign must be
  // bit-identical to an uninterrupted one.  Uses the weak-fairness
  // k-partition family (the global-fairness family livelocks here).
  ppk::core::WeakKPartitionProtocol weak(3);
  ppk::pp::TransitionTable table(weak);
  CampaignOptions options = base_options();
  options.mc.trials = 4;
  const auto make_oracle = [&] {
    return std::make_unique<ppk::pp::SilenceOracle>(table);
  };
  options.mc.fairness.policy = ppk::pp::FairnessPolicy::kWeakRoundRobin;
  const CampaignResult reference =
      ppk::core::run_campaign(weak, table, kN, make_oracle, options);
  ASSERT_TRUE(reference.complete);
  for (const auto& t : reference.trials) EXPECT_TRUE(t.result.stabilized);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    CampaignOptions interrupted = options;
    interrupted.mc.threads = threads;
    interrupted.checkpoint_path = temp_checkpoint("weak_rr_resume");
    interrupted.campaign_deadline_seconds = 1e-9;  // censor at first boundary
    const CampaignResult partial =
        ppk::core::run_campaign(weak, table, kN, make_oracle, interrupted);
    EXPECT_FALSE(partial.complete);

    interrupted.campaign_deadline_seconds.reset();
    const CampaignResult resumed =
        ppk::core::run_campaign(weak, table, kN, make_oracle, interrupted);
    EXPECT_TRUE(resumed.resumed);
    ASSERT_TRUE(resumed.complete) << "threads=" << threads;
    EXPECT_EQ(verdicts(resumed), verdicts(reference)) << "threads=" << threads;
    EXPECT_EQ(registry_json(resumed.metrics), registry_json(reference.metrics))
        << "threads=" << threads;
    std::filesystem::remove(interrupted.checkpoint_path);
  }
}

TEST_F(CampaignTest, RejectsWatchOnTheShardedEngine) {
  // The sharded batch engine aggregates draws and has no per-interaction
  // indices; a forced watch must fail fast, as it does in the Monte-Carlo
  // runner, instead of returning empty marks for every trial.
  CampaignOptions options = base_options();
  options.mc.trials = 1;
  options.mc.engine = ppk::pp::Engine::kBatchSharded;
  options.mc.watch_state = protocol_.g(3);
  EXPECT_DEATH((void)run(options), "precondition");
}

/// One configuration of the shared trial driver: an engine (or kAuto), with
/// a watch wherever the engine records one, a randomized topology for the
/// graph engines, and a fairness policy for the adversarial route.
struct DriverRow {
  const char* name;
  ppk::pp::Engine engine;
  bool watch;
  bool graph;
  ppk::pp::FairnessSpec fairness;
};

void PrintTo(const DriverRow& row, std::ostream* out) { *out << row.name; }

class CampaignDriverTest : public CampaignTest,
                           public ::testing::WithParamInterface<DriverRow> {
 protected:
  /// Trial `trial` of `options` with its engine built directly and granted
  /// `options.chunk_interactions` per run()/resume() call -- the reference
  /// for the jump and batch engines, whose draws depend on where the grant
  /// boundaries fall (so a chunked trial is not the unchunked one).
  [[nodiscard]] ppk::pp::TrialResult chunked_reference(
      const CampaignOptions& options, std::uint32_t trial) const {
    const std::uint64_t seed =
        ppk::derive_stream_seed(options.mc.master_seed, trial);
    ppk::pp::Counts initial(protocol_.num_states(), 0);
    initial[protocol_.initial_state()] = kN;
    const auto oracle = ppk::core::stable_pattern_oracle(protocol_, kN);
    const std::uint64_t budget = options.mc.max_interactions;
    ppk::pp::TrialResult out;
    const auto drive = [&](auto& sim) {
      std::uint64_t consumed = 0;
      while (true) {
        const std::uint64_t grant =
            std::min(options.chunk_interactions, budget - consumed);
        const ppk::pp::SimResult r = consumed == 0
                                         ? sim.run(*oracle, grant)
                                         : sim.resume(*oracle, grant);
        consumed += r.interactions;
        out.interactions += r.interactions;
        out.effective += r.effective;
        if (r.stabilized) {
          out.stabilized = true;
          return;
        }
        if (r.interactions < grant) {
          out.stalled = true;
          return;
        }
        if (consumed >= budget) return;
      }
    };
    switch (options.mc.engine) {
      case ppk::pp::Engine::kJump: {
        ppk::pp::JumpSimulator sim(table_, initial, seed);
        if (options.mc.watch_state) {
          sim.set_watch(*options.mc.watch_state, &out.watch_marks);
        }
        drive(sim);
        break;
      }
      case ppk::pp::Engine::kBatch: {
        ppk::pp::BatchSimulator sim(table_, initial, seed);
        drive(sim);
        break;
      }
      case ppk::pp::Engine::kBatchSharded: {
        ppk::pp::BatchShardedSimulator sim(table_, initial, seed);
        drive(sim);
        break;
      }
      default:
        ADD_FAILURE() << "no chunked reference for this engine";
    }
    return out;
  }
};

TEST_P(CampaignDriverTest, CampaignTrialsAreMonteCarloTrials) {
  // A campaign without a checkpoint path is run_monte_carlo driven in
  // chunks: every trial's totals, outcome flags and watch marks must equal
  // the Monte-Carlo runner's when the budget is granted in one chunk, and
  // also in 997-interaction chunks wherever the engine's draws do not
  // depend on grant boundaries (the others are checked against the same
  // engine granted 997 at a time).
  const DriverRow& row = GetParam();
  CampaignOptions options = base_options();
  options.mc.trials = 6;
  options.mc.engine = row.engine;
  options.mc.fairness = row.fairness;
  if (row.watch) options.mc.watch_state = protocol_.g(3);
  if (row.graph) {
    // Sparse enough that some trials wedge or run out of budget, so the
    // stalled and budget outcomes are compared too.
    options.mc.graph = [](std::uint64_t seed) {
      return ppk::pp::InteractionGraph::erdos_renyi(kN, 0.3, seed);
    };
  }
  const auto oracle = [&] {
    return ppk::core::stable_pattern_oracle(protocol_, kN);
  };
  const ppk::pp::MonteCarloResult reference =
      ppk::pp::run_monte_carlo(protocol_, table_, kN, oracle, options.mc);
  const bool grant_sensitive = row.engine == ppk::pp::Engine::kJump ||
                               row.engine == ppk::pp::Engine::kBatch ||
                               row.engine == ppk::pp::Engine::kBatchSharded;

  for (const std::uint64_t chunk :
       {options.mc.max_interactions, std::uint64_t{997}}) {
    options.chunk_interactions = chunk;
    const CampaignResult campaign = run(options);
    ASSERT_TRUE(campaign.complete) << "chunk=" << chunk;
    ASSERT_EQ(campaign.trials.size(), reference.trials.size());
    for (std::size_t t = 0; t < campaign.trials.size(); ++t) {
      const ppk::pp::TrialResult& got = campaign.trials[t].result;
      const ppk::pp::TrialResult want =
          grant_sensitive && chunk < options.mc.max_interactions
              ? chunked_reference(options, static_cast<std::uint32_t>(t))
              : reference.trials[t];
      EXPECT_EQ(got.interactions, want.interactions)
          << "chunk=" << chunk << " trial " << t;
      EXPECT_EQ(got.effective, want.effective)
          << "chunk=" << chunk << " trial " << t;
      EXPECT_EQ(got.stabilized, want.stabilized)
          << "chunk=" << chunk << " trial " << t;
      EXPECT_EQ(got.timed_out, want.timed_out)
          << "chunk=" << chunk << " trial " << t;
      EXPECT_EQ(got.stalled, want.stalled)
          << "chunk=" << chunk << " trial " << t;
      EXPECT_EQ(got.watch_marks, want.watch_marks)
          << "chunk=" << chunk << " trial " << t;
    }
  }
}

constexpr ppk::pp::FairnessSpec kUniform{};

INSTANTIATE_TEST_SUITE_P(
    Engines, CampaignDriverTest,
    ::testing::Values(
        DriverRow{"agent", ppk::pp::Engine::kAgentArray, true, false, kUniform},
        DriverRow{"count", ppk::pp::Engine::kCountVector, true, false,
                  kUniform},
        DriverRow{"jump", ppk::pp::Engine::kJump, true, false, kUniform},
        DriverRow{"batch", ppk::pp::Engine::kBatch, false, false, kUniform},
        DriverRow{"batch_sharded", ppk::pp::Engine::kBatchSharded, false,
                  false, kUniform},
        DriverRow{"graph", ppk::pp::Engine::kGraph, false, true, kUniform},
        DriverRow{"graph_jump", ppk::pp::Engine::kGraphJump, true, true,
                  kUniform},
        DriverRow{"auto", ppk::pp::Engine::kAuto, true, false, kUniform},
        DriverRow{"auto_epsilon_fair", ppk::pp::Engine::kAuto, false, false,
                  {ppk::pp::FairnessPolicy::kEpsilonFair, 0.5}},
        DriverRow{"auto_weak_round_robin_topology", ppk::pp::Engine::kAuto,
                  false, true,
                  {ppk::pp::FairnessPolicy::kWeakRoundRobin, 1.0}}),
    [](const ::testing::TestParamInfo<DriverRow>& row_info) {
      return std::string(row_info.param.name);
    });

TEST_F(CampaignTest, StreamsTrialVerdictsAsTheyComplete) {
  CampaignOptions options = base_options();
  options.mc.threads = 4;
  std::vector<char> announced(options.mc.trials, 0);
  std::uint32_t events = 0;
  options.on_trial = [&](std::uint32_t trial,
                         const ppk::core::CampaignTrial& t) {
    // Serialized under the campaign lock, so plain writes are safe.
    ASSERT_LT(trial, announced.size());
    announced[trial] += 1;
    events += t.result.stabilized ? 1u : 0u;
  };
  const CampaignResult result = run(options);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(events, options.mc.trials);
  for (const char count : announced) EXPECT_EQ(count, 1);
}

}  // namespace
