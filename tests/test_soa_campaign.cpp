// Tests for the SoA campaign kernel and its per-event-class RNG facade
// (attack/campaign_rng.h), plus the engine's shared lazy-context path.
// Three contracts are pinned here (the kernel's exact bits are pinned
// separately, by tests/test_campaign_golden.cpp):
//
//  1. The draw-order contract: class ids are fixed and the facade's
//     words are exactly the base Rng::stream(id) words in per-class call
//     order.
//  2. Kernel determinism: a run's result does not depend on what ran
//     before it on the same thread (the per-thread scratch is handed back
//     clean) nor on the engine's thread count, and the kernel is
//     statistically equivalent to the preserved PR-1 legacy engine
//     (bench/legacy_campaign.h).
//  3. Shared contexts: structurally identical topologies share one
//     ReachabilityIndex, contexts are built lazily per scheduling round
//     (peak residency far below the cell count), and none of it changes
//     a single bit of the summaries.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "attack/campaign.h"
#include "attack/campaign_rng.h"
#include "bench/legacy_campaign.h"
#include "core/measurement.h"
#include "net/reachability_index.h"
#include "obs/metrics.h"
#include "scenario/presets.h"
#include "sim/executor.h"
#include "sim/shard_plan.h"
#include "stats/rng.h"

namespace divsec {
namespace {

using attack::CampaignOptions;
using attack::CampaignRng;
using attack::CampaignResult;
using attack::CampaignSimulator;
using attack::DrawClass;

// --- 1. The draw-order contract ---------------------------------------

TEST(CampaignRngContract, ClassIdsArePinned) {
  // The numeric ids ARE the contract (they select Rng::stream(id));
  // renumbering them silently changes every campaign result.
  EXPECT_EQ(static_cast<int>(DrawClass::kEntry), 0);
  EXPECT_EQ(static_cast<int>(DrawClass::kActivation), 1);
  EXPECT_EQ(static_cast<int>(DrawClass::kPrivesc), 2);
  EXPECT_EQ(static_cast<int>(DrawClass::kPropagation), 3);
  EXPECT_EQ(static_cast<int>(DrawClass::kPayload), 4);
  EXPECT_EQ(static_cast<int>(DrawClass::kSabotage), 5);
  EXPECT_EQ(static_cast<int>(DrawClass::kHostIds), 6);
  EXPECT_EQ(static_cast<int>(DrawClass::kAlarm), 7);
  EXPECT_EQ(attack::kDrawClassCount, 8u);
}

TEST(CampaignRngContract, FacadeWordsAreTheBaseClassStreams) {
  const stats::Rng base(2013, 7);
  CampaignRng facade(base);
  for (std::size_t c = 0; c < attack::kDrawClassCount; ++c) {
    stats::Rng direct = base.stream(c);
    for (int i = 0; i < 200; ++i)
      ASSERT_EQ(facade.next(static_cast<DrawClass>(c)), direct())
          << "class " << c << " word " << i;
  }
}

TEST(CampaignRngContract, FacadeDerivationConsumesNoBaseState) {
  stats::Rng base(99, 3);
  stats::Rng untouched(99, 3);
  { CampaignRng facade(base); (void)facade.next(DrawClass::kEntry); }
  // The facade worked off derived streams only: base still yields the
  // same next word as a never-touched twin.
  EXPECT_EQ(base(), untouched());
}

TEST(CampaignRngContract, ZigguratSamplesExpOne) {
  const stats::Rng base(7, 7);
  CampaignRng rng(base);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  int beyond_one = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exp_std(DrawClass::kEntry);
    ASSERT_GE(x, 0.0);
    sum += x;
    sum2 += x * x;
    if (x > 1.0) ++beyond_one;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  // Exp(1): mean 1, variance 1, P(X > 1) = 1/e. 5 sigma bands.
  EXPECT_NEAR(mean, 1.0, 5.0 / std::sqrt(static_cast<double>(n)));
  EXPECT_NEAR(var, 1.0, 0.05);
  EXPECT_NEAR(static_cast<double>(beyond_one) / n, std::exp(-1.0),
              5.0 * std::sqrt(std::exp(-1.0) * (1 - std::exp(-1.0)) / n));
}

// --- 2. Kernel determinism --------------------------------------------

void expect_same_result(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.time_of_entry, b.time_of_entry);
  EXPECT_EQ(a.first_root, b.first_root);
  EXPECT_EQ(a.first_plc_compromise, b.first_plc_compromise);
  EXPECT_EQ(a.time_to_attack, b.time_to_attack);
  EXPECT_EQ(a.time_to_detection, b.time_to_detection);
  EXPECT_EQ(a.hosts_compromised, b.hosts_compromised);
  EXPECT_EQ(a.plcs_compromised, b.plcs_compromised);
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.compromised_ratio.size(), b.compromised_ratio.size());
  for (std::size_t i = 0; i < a.compromised_ratio.size(); ++i) {
    EXPECT_EQ(a.compromised_ratio[i].first, b.compromised_ratio[i].first);
    EXPECT_EQ(a.compromised_ratio[i].second, b.compromised_ratio[i].second);
  }
}

class SoaKernelFixture : public ::testing::Test {
 protected:
  divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
};

/// Runs `sim` on replication `rep` on a new thread, i.e. on a fresh
/// per-thread scratch that no earlier run has touched.
CampaignResult run_on_fresh_thread(const CampaignSimulator& sim,
                                   std::uint64_t rep) {
  CampaignResult out;
  std::thread([&] {
    stats::Rng rng(2013, rep);
    out = sim.run(rng);
  }).join();
  return out;
}

TEST_F(SoaKernelFixture, ScratchReuseAcrossFleetsChangesNoBits) {
  // One thread's scratch serves every run on that thread: fleet sizes
  // change under it (plant_small -> e4096 -> plant_small -> e1024 ->
  // e4096, forcing state resizes both ways), and a non-halting run that
  // owns most of a fleet leaves the most touched nodes behind for the
  // halting run that follows on the same fleet. Each result must equal
  // the same run done first on a fresh thread.
  const auto make = [&](const char* preset, CampaignOptions opt,
                        attack::DetectionModel det) {
    return CampaignSimulator(
        scenario::make_preset(preset, cat, 17,
                              scenario::VariantPolicy::kMonoculture)
            .scenario,
        stuxnet, cat, det, opt);
  };
  const CampaignSimulator e4096 = make("enterprise4096", {}, {});
  const CampaignSimulator small = make("plant_small", {}, {});
  const CampaignSimulator e1024 = make("enterprise1024", {}, {});
  // Undetected for a year, the worm spreads over most of the fleet.
  CampaignOptions spread_opt;
  spread_opt.detection_halts_attack = false;
  spread_opt.t_max_hours = 8760.0;
  attack::DetectionModel blind;
  blind.host_detection_rate = 0.0;
  blind.alarm_detection_rate = 0.0;
  blind.failed_attempt_detection = 0.0;
  const CampaignSimulator e1024_spread = make("enterprise1024", spread_opt, blind);
  struct Step {
    const CampaignSimulator* sim;
    std::uint64_t rep;
  };
  const std::vector<Step> sequence = {
      {&small, 0},        {&e4096, 0}, {&small, 1},        {&e1024, 2},
      {&e4096, 3},        {&e1024_spread, 4}, {&e1024, 4},
      {&e1024_spread, 5}, {&small, 5}, {&e4096, 6},        {&e1024, 7},
  };
  std::vector<CampaignResult> fresh;
  for (const Step& s : sequence) fresh.push_back(run_on_fresh_thread(*s.sim, s.rep));

  // The sequence must really leave most of a fleet touched.
  std::size_t widest = 0;
  for (std::size_t i = 0; i < sequence.size(); ++i)
    if (sequence[i].sim == &e1024_spread)
      widest = std::max(widest, fresh[i].hosts_compromised);
  EXPECT_GT(widest, e1024_spread.scenario().topology.node_count() / 2);

  std::thread([&] {
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "step " << i);
      stats::Rng rng(2013, sequence[i].rep);
      expect_same_result(sequence[i].sim->run(rng), fresh[i]);
    }
  }).join();
}

void expect_bit_identical(const core::IndicatorSummary& a,
                          const core::IndicatorSummary& b) {
  EXPECT_EQ(a.tta.mean(), b.tta.mean());
  EXPECT_EQ(a.tta.variance(), b.tta.variance());
  EXPECT_EQ(a.ttsf.mean(), b.ttsf.mean());
  EXPECT_EQ(a.final_ratio.mean(), b.final_ratio.mean());
  EXPECT_EQ(a.tta_censored, b.tta_censored);
  EXPECT_EQ(a.ttsf_censored, b.ttsf_censored);
  EXPECT_EQ(a.successes, b.successes);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].tta, b.samples[i].tta) << "rep " << i;
    EXPECT_EQ(a.samples[i].ttsf, b.samples[i].ttsf) << "rep " << i;
    EXPECT_EQ(a.samples[i].final_ratio, b.samples[i].final_ratio) << "rep " << i;
  }
}

TEST_F(SoaKernelFixture, EngineBitIdenticalAcrossThreads) {
  core::ScenarioSweepPlan plan;
  plan.cells.push_back(
      {scenario::make_preset("enterprise128", cat, 17,
                             scenario::VariantPolicy::kMonoculture)
           .scenario,
       101});
  plan.cells.push_back(
      {scenario::make_preset("enterprise128", cat, 17,
                             scenario::VariantPolicy::kZoneStratified)
           .scenario,
       202});

  // Reference bits: a serial run.
  std::vector<core::IndicatorSummary> reference;
  {
    sim::Executor serial{1};
    core::MeasurementOptions mo;
    mo.replications = 12;
    mo.executor = &serial;
    reference = core::MeasurementEngine(cat, stuxnet, mo).measure_scenarios(plan);
  }
  for (const std::size_t threads : {2u, 4u, 8u}) {
    sim::Executor ex{threads};
    core::MeasurementOptions mo;
    mo.replications = 12;
    mo.executor = &ex;
    const auto got =
        core::MeasurementEngine(cat, stuxnet, mo).measure_scenarios(plan);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t c = 0; c < got.size(); ++c) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads << " cell=" << c);
      expect_bit_identical(reference[c], got[c]);
    }
  }
}

TEST_F(SoaKernelFixture, KernelStatisticallyMatchesLegacyEngine) {
  // The PR-1 engine is preserved verbatim in bench/legacy_campaign.h:
  // same event LAW, different draw sequence, so equality holds in
  // distribution, not in bits. Compare success probability and the
  // final compromised ratio over a replication set, 5 sigma bands.
  const auto made = scenario::make_preset("plant_small", cat, 17,
                                          scenario::VariantPolicy::kMonoculture);
  CampaignOptions opt;
  opt.detection_halts_attack = false;
  const CampaignSimulator soa(made.scenario, stuxnet, cat, {}, opt);
  const bench::legacy::CampaignSimulator legacy(made.scenario, stuxnet, cat, {},
                                                opt);
  const int n = 400;
  double ratio_a = 0.0, ratio_b = 0.0, ratio2_a = 0.0, ratio2_b = 0.0;
  int succ_a = 0, succ_b = 0;
  for (std::uint64_t rep = 0; rep < n; ++rep) {
    stats::Rng ra(2013, rep), rb(4027, rep);
    const auto a = soa.run(ra);
    const auto b = legacy.run(rb);
    const double fa = a.compromised_ratio.back().second;
    const double fb = b.compromised_ratio.back().second;
    ratio_a += fa;
    ratio_b += fb;
    ratio2_a += fa * fa;
    ratio2_b += fb * fb;
    succ_a += a.attack_succeeded() ? 1 : 0;
    succ_b += b.attack_succeeded() ? 1 : 0;
  }
  const double ma = ratio_a / n, mb = ratio_b / n;
  const double va = ratio2_a / n - ma * ma, vb = ratio2_b / n - mb * mb;
  EXPECT_NEAR(ma, mb, 5.0 * std::sqrt((va + vb) / n) + 1e-3);
  const double pa = static_cast<double>(succ_a) / n;
  const double pb = static_cast<double>(succ_b) / n;
  EXPECT_NEAR(pa, pb,
              5.0 * std::sqrt((pa * (1 - pa) + pb * (1 - pb)) / n) + 1e-3);
}

// --- 3. Shared contexts ------------------------------------------------

TEST_F(SoaKernelFixture, SharedReachabilityIndexGivesIdenticalRuns) {
  const auto made = scenario::make_preset("plant_medium", cat, 17,
                                          scenario::VariantPolicy::kMonoculture);
  const CampaignSimulator own(made.scenario, stuxnet, cat);
  const CampaignSimulator shared(made.scenario, stuxnet, cat, {}, {},
                                 own.shared_reachability());
  EXPECT_EQ(&own.reachability(), &shared.reachability());
  for (std::uint64_t rep = 0; rep < 8; ++rep) {
    stats::Rng ra(1, rep), rb(1, rep);
    expect_same_result(own.run(ra), shared.run(rb));
  }
}

TEST_F(SoaKernelFixture, SharedIndexRejectsWrongTopologySize) {
  const auto small = scenario::make_preset("plant_small", cat, 17,
                                           scenario::VariantPolicy::kMonoculture);
  const auto medium = scenario::make_preset("plant_medium", cat, 17,
                                            scenario::VariantPolicy::kMonoculture);
  const CampaignSimulator donor(small.scenario, stuxnet, cat);
  EXPECT_THROW(CampaignSimulator(medium.scenario, stuxnet, cat, {}, {},
                                 donor.shared_reachability()),
               std::invalid_argument);
}

TEST(StructuralKey, EqualForStructurallyIdenticalInputsOnly) {
  const auto cat = divers::VariantCatalog::standard(2013);
  // Same preset + seed, different variant policy: identical structure
  // (policies only change software assignments, not topology/firewall).
  const auto a = scenario::make_preset("plant_medium", cat, 17,
                                       scenario::VariantPolicy::kMonoculture);
  const auto b = scenario::make_preset("plant_medium", cat, 17,
                                       scenario::VariantPolicy::kZoneStratified);
  const auto c = scenario::make_preset("plant_medium", cat, 18,
                                       scenario::VariantPolicy::kMonoculture);
  const auto ka = net::ReachabilityIndex::structural_key(a.scenario.topology,
                                                         a.scenario.firewall);
  const auto kb = net::ReachabilityIndex::structural_key(b.scenario.topology,
                                                         b.scenario.firewall);
  const auto kc = net::ReachabilityIndex::structural_key(c.scenario.topology,
                                                         c.scenario.firewall);
  EXPECT_TRUE(ka == kb);
  EXPECT_EQ(ka.fingerprint(), kb.fingerprint());
  // Different generator seed: different link structure.
  EXPECT_FALSE(ka == kc);
}

TEST_F(SoaKernelFixture, LazyContextsShareIndexesAndBoundResidency) {
  // 64 same-topology cells: the whole sweep must build exactly one
  // reachability index, one context per cell, and never hold more than
  // a pool's worth of contexts alive at once.
  core::ScenarioSweepPlan plan;
  for (std::uint64_t c = 0; c < 64; ++c)
    plan.cells.push_back(
        {scenario::make_preset("plant_small", cat, 17,
                               scenario::VariantPolicy::kMonoculture)
             .scenario,
         1000 + c});
  sim::Executor pool{4};
  core::MeasurementOptions mo;
  mo.replications = 4;
  mo.executor = &pool;
  mo.keep_samples = false;
  // The bespoke ContextStats struct became the core.context.* metrics;
  // the registry is process-cumulative, so read per-sweep deltas by
  // zeroing it before each measured call.
  obs::reset();
  const auto summaries =
      core::MeasurementEngine(cat, stuxnet, mo).measure_scenarios(plan);
  ASSERT_EQ(summaries.size(), 64u);
#if DIVSEC_OBS
  {
    const obs::Snapshot snap = obs::snapshot();
    EXPECT_EQ(snap.counter("core.context.built"), 64u);
    EXPECT_EQ(snap.counter("core.context.reach_builds"), 1u);
    EXPECT_EQ(snap.counter("core.context.reach_dedup_hits"), 63u);
    // A context lives only while its cell has blocks in flight, so the
    // live set is bounded by the pool (plus one being built), never by
    // the 64-cell fleet.
    EXPECT_LE(snap.gauge("core.context.peak_live"), pool.thread_count() + 1);
  }
#endif

  // Two distinct topologies in one sweep: two indexes, no more.
  plan.cells.push_back(
      {scenario::make_preset("plant_medium", cat, 17,
                             scenario::VariantPolicy::kMonoculture)
           .scenario,
       9999});
  obs::reset();
  const auto with_medium =
      core::MeasurementEngine(cat, stuxnet, mo).measure_scenarios(plan);
  ASSERT_EQ(with_medium.size(), 65u);
#if DIVSEC_OBS
  {
    const obs::Snapshot snap = obs::snapshot();
    EXPECT_EQ(snap.counter("core.context.built"), 65u);
    EXPECT_EQ(snap.counter("core.context.reach_builds"), 2u);
  }
#endif
}

TEST_F(SoaKernelFixture, CarriedContextsAcrossCallsChangeNoBits) {
  // A 64-cell plan measured superblock round by superblock round on one
  // engine — the adaptive driver's call pattern — must give the bits of
  // one whole call. The engine carries a bounded set of contexts from
  // round to round and keeps the shared index alive while it does: one
  // reach build for the run, and never more than the carry cap plus a
  // pool's worth of contexts alive.
  core::ScenarioSweepPlan plan;
  for (std::uint64_t c = 0; c < 64; ++c)
    plan.cells.push_back(
        {scenario::make_preset("plant_small", cat, 17,
                               scenario::VariantPolicy::kMonoculture)
             .scenario,
         2000 + c});
  sim::Executor pool{4};
  core::MeasurementOptions mo;
  mo.replications = 12;
  mo.replication_block = 2;
  mo.superblock = 4;  // 3 superblocks per cell
  mo.executor = &pool;
  const core::MeasurementEngine whole_engine(cat, stuxnet, mo);
  const sim::ShardPlan shard = whole_engine.shard_plan(plan.cell_count());
  const std::size_t per_cell = shard.superblocks_per_group();
  ASSERT_EQ(per_cell, 3u);
  std::vector<std::uint64_t> all(shard.task_count());
  for (std::size_t t = 0; t < all.size(); ++t) all[t] = t;
  const std::vector<core::IndicatorAccumulator> whole =
      whole_engine.measure_scenario_tasks(plan, shard, all);

  obs::reset();
  const core::MeasurementEngine engine(cat, stuxnet, mo);
  std::vector<core::IndicatorAccumulator> rounds(all.size());
  // Cells 8..15 sit round 1 out and then trail the others by one
  // superblock: their carried contexts are dropped when a call does not
  // list them, and rebuilt when they return.
  const auto lagging = [](std::size_t c) { return c >= 8 && c < 16; };
  for (std::size_t round = 0; round <= per_cell; ++round) {
    std::vector<std::uint64_t> tasks;
    for (std::size_t c = 0; c < plan.cell_count(); ++c) {
      const std::size_t sb =
          lagging(c) && round >= 1 ? round - 1 : round;
      if (sb < per_cell && (round != 1 || !lagging(c)))
        tasks.push_back(c * per_cell + sb);
    }
    const auto partials = engine.measure_scenario_tasks(plan, shard, tasks);
    ASSERT_EQ(partials.size(), tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i)
      rounds[tasks[i]] = partials[i];
  }

  for (std::size_t t = 0; t < all.size(); ++t) {
    SCOPED_TRACE(::testing::Message() << "task " << t);
    const core::IndicatorSummary a = rounds[t].summarize();
    const core::IndicatorSummary b = whole[t].summarize();
    EXPECT_EQ(rounds[t].count(), whole[t].count());
    EXPECT_EQ(a.tta.mean(), b.tta.mean());
    EXPECT_EQ(a.tta.variance(), b.tta.variance());
    EXPECT_EQ(a.ttsf.mean(), b.ttsf.mean());
    EXPECT_EQ(a.final_ratio.mean(), b.final_ratio.mean());
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.tta_event.restricted_mean, b.tta_event.restricted_mean);
    EXPECT_EQ(a.ttsf_event.q90, b.ttsf_event.q90);
  }
#if DIVSEC_OBS
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter("core.context.reach_builds"), 1u);
  EXPECT_LE(snap.gauge("core.context.peak_live"),
            core::kCarriedContextsPerThread * pool.thread_count() +
                pool.thread_count());
  // Carrying saved builds: fewer than one per listed (cell, call).
  EXPECT_LT(snap.counter("core.context.built"), 64u * per_cell);
#endif
}

TEST_F(SoaKernelFixture, LazySharedPathChangesNoBits) {
  // The pre-refactor eager path is gone; its bits must not be. The
  // sweep's summaries must equal per-cell direct simulation — context
  // construction shares indexes and consumes no randomness, so
  // replication r of cell c is still exactly Rng(cell.seed, r).
  core::ScenarioSweepPlan plan;
  for (std::uint64_t c = 0; c < 6; ++c)
    plan.cells.push_back(
        {scenario::make_preset("plant_small", cat, 17,
                               scenario::VariantPolicy::kMonoculture)
             .scenario,
         500 + c});
  sim::Executor ex{4};
  core::MeasurementOptions mo;
  mo.replications = 10;
  mo.executor = &ex;
  const auto summaries =
      core::MeasurementEngine(cat, stuxnet, mo).measure_scenarios(plan);
  for (std::size_t c = 0; c < plan.cell_count(); ++c) {
    const CampaignSimulator direct(plan.cells[c].scenario, stuxnet, cat);
    for (std::uint64_t rep = 0; rep < 10; ++rep) {
      stats::Rng rng(plan.cells[c].seed, rep);
      const auto r = direct.run(rng);
      EXPECT_EQ(summaries[c].samples[rep].final_ratio,
                r.compromised_ratio.back().second)
          << "cell " << c << " rep " << rep;
    }
  }
}

TEST(UnionInCsr, InvertsUnionGraphExactly) {
  const auto cat = divers::VariantCatalog::standard(2013);
  const auto made = scenario::make_preset("plant_medium", cat, 17,
                                          scenario::VariantPolicy::kMonoculture);
  const net::ReachabilityIndex index(made.scenario.topology,
                                     made.scenario.firewall);
  const std::vector<net::Channel> channels = {net::Channel::kHttp,
                                              net::Channel::kSmbShare,
                                              net::Channel::kUsb};
  const auto out = index.union_graph(channels);
  const auto csr = index.union_in_csr(channels);
  ASSERT_EQ(csr.off.size(), index.node_count() + 1);
  // Rebuild the in-edge lists the old way and compare element-wise.
  std::vector<std::vector<net::NodeId>> expect(index.node_count());
  for (net::NodeId j = 0; j < out.size(); ++j)
    for (net::NodeId i : out[j]) expect[i].push_back(j);
  for (net::NodeId i = 0; i < index.node_count(); ++i) {
    const std::vector<net::NodeId> got(
        csr.edge.begin() + static_cast<std::ptrdiff_t>(csr.off[i]),
        csr.edge.begin() + static_cast<std::ptrdiff_t>(csr.off[i + 1]));
    EXPECT_EQ(got, expect[i]) << "node " << i;
  }
}

}  // namespace
}  // namespace divsec
