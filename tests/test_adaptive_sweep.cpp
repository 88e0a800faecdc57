// Tests for the adaptive sweep: the shared stopping rule
// (sim/stopping.h), schedule resolution, the adaptive driver
// (dist::run_adaptive), and the replay contract — the recorded per-cell
// achieved counts reproduce the adaptive results bit for bit through any
// thread count and any shard cut.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dist/adaptive.h"
#include "dist/state_codec.h"
#include "dist/sweep.h"
#include "obs/metrics.h"
#include "sim/executor.h"
#include "sim/replication.h"
#include "sim/stopping.h"
#include "stats/rng.h"

namespace divsec {
namespace {

// ---- the stopping predicate ------------------------------------------------

stats::OnlineStats filled_stats(double mean, double spread, std::size_t n) {
  stats::OnlineStats s;
  for (std::size_t i = 0; i < n; ++i)
    s.add(mean + (i % 2 == 0 ? spread : -spread));
  return s;
}

TEST(StoppingRule, NeverStopsBelowMinReplications) {
  sim::StoppingRule rule;
  rule.min_replications = 10;
  rule.max_replications = 100;
  // Zero variance: converged by any precision measure — but min wins.
  const stats::OnlineStats nine = filled_stats(5.0, 0.0, 9);
  EXPECT_FALSE(sim::should_stop(nine, rule));
  const stats::OnlineStats ten = filled_stats(5.0, 0.0, 10);
  EXPECT_TRUE(sim::should_stop(ten, rule));
}

TEST(StoppingRule, AlwaysStopsAtMaxReplications) {
  sim::StoppingRule rule;
  rule.min_replications = 2;
  rule.max_replications = 50;
  rule.relative_precision = 1e-12;  // unreachable
  const stats::OnlineStats noisy = filled_stats(1.0, 10.0, 50);
  EXPECT_FALSE(sim::precision_reached(noisy, rule));
  EXPECT_TRUE(sim::should_stop(noisy, rule));  // the cap, not convergence
}

TEST(StoppingRule, PrecisionNeedsTwoSamples) {
  sim::StoppingRule rule;
  rule.relative_precision = 1e9;  // any CI would pass
  stats::OnlineStats one;
  one.add(3.0);
  EXPECT_FALSE(sim::precision_reached(one, rule));
  one.add(3.0);
  EXPECT_TRUE(sim::precision_reached(one, rule));
}

TEST(StoppingRule, AbsoluteFloorCoversNearZeroMeans) {
  // The near-zero-mean failure of the pure relative rule: mean ~ 0 makes
  // rel * |mean| ~ 0, so the relative criterion can never be met even
  // when the half-width is tiny in absolute terms.
  const stats::OnlineStats near_zero = filled_stats(1e-9, 1e-3, 1000);
  sim::StoppingRule relative_only;
  relative_only.relative_precision = 0.05;
  relative_only.absolute_precision = 0.0;
  EXPECT_FALSE(sim::precision_reached(near_zero, relative_only));

  sim::StoppingRule with_floor = relative_only;
  with_floor.absolute_precision = 0.01;  // hw ~ 6e-5 passes the floor
  EXPECT_TRUE(sim::precision_reached(near_zero, with_floor));
}

TEST(StoppingRule, EitherCriterionStops) {
  const stats::OnlineStats tight = filled_stats(100.0, 0.1, 400);
  sim::StoppingRule rel;
  rel.relative_precision = 0.05;
  EXPECT_TRUE(sim::precision_reached(tight, rel));
  sim::StoppingRule abs;
  abs.relative_precision = 0.0;
  abs.absolute_precision = 0.05;
  EXPECT_TRUE(sim::precision_reached(tight, abs));
  sim::StoppingRule neither;
  neither.relative_precision = 0.0;
  neither.absolute_precision = 0.0;
  EXPECT_FALSE(sim::precision_reached(tight, neither));
}

TEST(RunSequential, AbsoluteFloorStopsNearZeroMeanExperiment) {
  // A near-zero-mean experiment: the relative-only rule burns the whole
  // budget, the absolute floor stops as soon as the half-width is small.
  const sim::Experiment near_zero = [](stats::Rng& rng) {
    return rng.uniform(-1e-3, 1e-3);
  };
  sim::SequentialOptions relative_only;
  relative_only.min_replications = 10;
  relative_only.max_replications = 400;
  relative_only.relative_precision = 0.05;
  const auto burned = sim::run_sequential(near_zero, relative_only, 99);
  EXPECT_EQ(burned.stats.count(), 400u);  // capped, never converged

  sim::SequentialOptions with_floor = relative_only;
  with_floor.absolute_precision = 1e-3;
  const auto stopped = sim::run_sequential(near_zero, with_floor, 99);
  EXPECT_LT(stopped.stats.count(), 400u);
  EXPECT_GE(stopped.stats.count(), 10u);
  const double hw = stopped.confidence_interval(0.95).half_width();
  EXPECT_LE(hw, 1e-3);
}

// ---- schedule resolution ---------------------------------------------------

TEST(AdaptiveSchedule, DefaultsAndClamping) {
  dist::AdaptiveSweepOptions opts;
  // Defaults: min = one superblock, max = budget, round = one superblock.
  const auto def = dist::resolve_adaptive_schedule(opts, 1000, 64);
  EXPECT_EQ(def.rule.min_replications, 64u);
  EXPECT_EQ(def.rule.max_replications, 1000u);
  EXPECT_EQ(def.first_superblocks, 1u);
  EXPECT_EQ(def.round_superblocks, 1u);

  // Explicit knobs clamp to the budget and round up to superblocks.
  opts.min_replications = 200;   // ceil(200/64) = 4 superblocks
  opts.max_replications = 5000;  // above budget -> clamped
  opts.round_replications = 100;
  const auto expl = dist::resolve_adaptive_schedule(opts, 1000, 64);
  EXPECT_EQ(expl.rule.min_replications, 200u);
  EXPECT_EQ(expl.rule.max_replications, 1000u);
  EXPECT_EQ(expl.first_superblocks, 4u);
  EXPECT_EQ(expl.round_superblocks, 2u);

  // min above the budget collapses to the budget (max stays >= min).
  opts.min_replications = 4000;
  const auto clamped = dist::resolve_adaptive_schedule(opts, 1000, 64);
  EXPECT_EQ(clamped.rule.min_replications, 1000u);
  EXPECT_GE(clamped.rule.max_replications, clamped.rule.min_replications);
}

// ---- the adaptive driver --------------------------------------------------

/// Small but multi-superblock sweep (plant_small, 3 policy arms).
dist::SweepSpec small_spec() {
  dist::SweepSpec spec;
  spec.preset = "plant_small";
  spec.seed = 4242;
  spec.replications = 256;
  spec.replication_block = 8;
  spec.superblock = 32;  // 8 superblocks per cell
  return spec;
}

void expect_bit_identical(const core::IndicatorSummary& a,
                          const core::IndicatorSummary& b) {
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.tta.mean(), b.tta.mean());
  EXPECT_EQ(a.tta.variance(), b.tta.variance());
  EXPECT_EQ(a.ttsf.mean(), b.ttsf.mean());
  EXPECT_EQ(a.ttsf.variance(), b.ttsf.variance());
  EXPECT_EQ(a.final_ratio.mean(), b.final_ratio.mean());
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.tta_event.restricted_mean, b.tta_event.restricted_mean);
  EXPECT_EQ(a.ttsf_event.q90, b.ttsf_event.q90);
}

dist::AdaptiveSweepOptions coordinator_options(std::size_t shards) {
  dist::AdaptiveSweepOptions options;
  options.shards = shards;
  options.relative_precision = 0.10;
  options.absolute_precision = 0.02;
  return options;
}

TEST(RunAdaptive, LooseTargetStopsEveryCellAtMin) {
  dist::AdaptiveSweepOptions options = coordinator_options(2);
  options.relative_precision = 0.0;
  options.absolute_precision = 1e6;  // any half-width passes
  const dist::AdaptiveResult result = dist::run_adaptive(small_spec(), options);
  ASSERT_EQ(result.summaries.size(), 3u);
  EXPECT_EQ(result.rounds.size(), 1u);
  for (std::size_t c = 0; c < result.summaries.size(); ++c) {
    EXPECT_EQ(result.meta.achieved[c], 32u);  // min = one superblock
    EXPECT_EQ(result.cell_rounds[c], 1u);
    EXPECT_EQ(result.summaries[c].replications, 32u);
  }
  EXPECT_EQ(result.total_replications, 96u);
}

TEST(RunAdaptive, UnreachableTargetCapsAtBudgetAndMatchesFixedRun) {
  const dist::SweepSpec spec = small_spec();
  dist::AdaptiveSweepOptions options = coordinator_options(3);
  options.relative_precision = 1e-12;  // unreachable
  options.absolute_precision = 0.0;
  const dist::AdaptiveResult result = dist::run_adaptive(spec, options);
  for (std::size_t c = 0; c < result.summaries.size(); ++c)
    EXPECT_EQ(result.meta.achieved[c], spec.replications);

  // Exhausting the budget must land exactly on the fixed-budget result —
  // the adaptive fold visits the identical superblocks in the identical
  // order.
  const auto fixed_sums = dist::run_in_process(spec);
  ASSERT_EQ(result.summaries.size(), fixed_sums.size());
  for (std::size_t c = 0; c < fixed_sums.size(); ++c)
    expect_bit_identical(result.summaries[c], fixed_sums[c]);
  EXPECT_EQ(dist::sweep_csv(result.meta, result.summaries),
            dist::sweep_csv(dist::make_meta(spec), fixed_sums));
}

TEST(RunAdaptive, ResultIndependentOfThreadCount) {
  std::optional<dist::AdaptiveResult> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    const sim::Executor executor(threads);
    dist::AdaptiveResult result =
        dist::run_adaptive(small_spec(), coordinator_options(2), &executor);
    if (!reference) {
      reference = std::move(result);
      continue;
    }
    ASSERT_EQ(result.summaries.size(), reference->summaries.size());
    EXPECT_EQ(result.meta.achieved, reference->meta.achieved);
    EXPECT_EQ(result.cell_rounds, reference->cell_rounds);
    EXPECT_EQ(result.rounds.size(), reference->rounds.size());
    for (std::size_t c = 0; c < reference->summaries.size(); ++c)
      expect_bit_identical(result.summaries[c], reference->summaries[c]);
    EXPECT_EQ(dist::sweep_csv(result.meta, result.summaries),
              dist::sweep_csv(reference->meta, reference->summaries));
  }
}

TEST(RunAdaptive, ShardCountDoesNotChangeResults) {
  const dist::SweepSpec spec = small_spec();
  const dist::AdaptiveResult one =
      dist::run_adaptive(spec, coordinator_options(1));
  const dist::AdaptiveResult three =
      dist::run_adaptive(spec, coordinator_options(3));

  EXPECT_EQ(one.meta.achieved, three.meta.achieved);
  EXPECT_EQ(one.cell_rounds, three.cell_rounds);
  EXPECT_EQ(one.total_replications, three.total_replications);
  ASSERT_EQ(one.summaries.size(), three.summaries.size());
  for (std::size_t c = 0; c < one.summaries.size(); ++c)
    expect_bit_identical(one.summaries[c], three.summaries[c]);
  EXPECT_EQ(dist::sweep_csv(one.meta, one.summaries),
            dist::sweep_csv(three.meta, three.summaries));
}

TEST(RunAdaptive, OneReachabilityBuildPerRun) {
  // Every round is a measure call on the run's one engine, which carries
  // each still-active cell's context into the next round, and the three
  // policy arms share one topology: the whole run builds one
  // ReachabilityIndex and one context per cell, however many rounds it
  // takes and however many shards its partials are dealt to.
  obs::Counter& reach_builds = obs::counter("core.context.reach_builds");
  obs::Counter& built = obs::counter("core.context.built");
  const std::uint64_t reach_before = reach_builds.total();
  const std::uint64_t built_before = built.total();
  const dist::AdaptiveResult result =
      dist::run_adaptive(small_spec(), coordinator_options(3));
  ASSERT_GT(result.rounds.size(), 1u) << "spec too loose: one round only";
#if DIVSEC_OBS
  EXPECT_EQ(reach_builds.total() - reach_before, 1u);
  EXPECT_EQ(built.total() - built_before, result.meta.cells);
#else
  (void)reach_before;
  (void)built_before;
#endif
}

TEST(RunAdaptive, RecordsProvenance) {
  const dist::AdaptiveResult result =
      dist::run_adaptive(small_spec(), coordinator_options(2));
  ASSERT_FALSE(result.rounds.empty());
  EXPECT_EQ(result.rounds.front().round, 1u);
  EXPECT_EQ(result.rounds.front().active_cells, 3u);
  std::uint64_t logged_reps = 0;
  for (const auto& r : result.rounds) logged_reps += r.replications;
  EXPECT_EQ(logged_reps, result.total_replications);
  for (std::size_t c = 0; c < result.cell_rounds.size(); ++c) {
    EXPECT_GE(result.cell_rounds[c], 1u);
    EXPECT_LE(result.cell_rounds[c], result.rounds.size());
  }
  EXPECT_EQ(result.budget_replications,
            result.meta.cells * result.meta.replications);
  EXPECT_TRUE(result.meta.merged);
}

TEST(RunAdaptive, RejectsInvalidInputs) {
  // Every rejection happens up front: no replication runs.
  obs::Counter& events = obs::counter("campaign.events.executed");
  const std::uint64_t before = events.total();

  dist::SweepSpec replay_input = small_spec();
  replay_input.achieved = {32, 32, 32};
  EXPECT_THROW((void)dist::run_adaptive(replay_input, coordinator_options(1)),
               std::invalid_argument);

  dist::AdaptiveSweepOptions no_shards = coordinator_options(0);
  EXPECT_THROW((void)dist::run_adaptive(small_spec(), no_shards),
               std::invalid_argument);

  // Both precision criteria disabled: no cell could ever converge.
  dist::AdaptiveSweepOptions no_target = coordinator_options(1);
  no_target.relative_precision = 0.0;
  no_target.absolute_precision = 0.0;
  EXPECT_THROW((void)dist::run_adaptive(small_spec(), no_target),
               std::invalid_argument);

  for (const double level : {1.5, 0.0, 1.0, -0.5, std::nan("")}) {
    dist::AdaptiveSweepOptions bad_level = coordinator_options(1);
    bad_level.confidence_level = level;
    EXPECT_THROW((void)dist::run_adaptive(small_spec(), bad_level),
                 std::invalid_argument)
        << "confidence_level " << level;
  }
  EXPECT_EQ(events.total() - before, 0u);

#if DIVSEC_OBS
  // The counter is live: a valid run does execute events.
  (void)dist::run_adaptive(small_spec(), coordinator_options(1));
  EXPECT_GT(events.total() - before, 0u);
#endif
}

// ---- the replay contract ---------------------------------------------------

/// Replay the recorded achieved counts over `shard_count` contiguous
/// slices of the achieved task list (the CLI's `run --replay --shard
/// i/K` cut) and merge.
dist::MergeResult replay(const dist::ShardState& recorded,
                         std::size_t shard_count,
                         const sim::Executor* executor = nullptr) {
  const dist::SweepSpec spec = dist::spec_from_meta(recorded.meta);
  const std::vector<std::uint64_t> tasks = dist::achieved_tasks(recorded.meta);
  std::vector<dist::ShardState> states;
  for (std::size_t i = 0; i < shard_count; ++i) {
    const std::size_t base = tasks.size() / shard_count;
    const std::size_t rem = tasks.size() % shard_count;
    const std::size_t begin = i * base + std::min(i, rem);
    const std::size_t end = begin + base + (i < rem ? 1 : 0);
    states.push_back(dist::run_shard_tasks(
        spec, {tasks.begin() + begin, tasks.begin() + end}, i, shard_count,
        executor));
  }
  return dist::merge_shards(states);
}

TEST(AdaptiveReplay, ReproducesTheAdaptiveRunForAnyShardCut) {
  const dist::AdaptiveResult result =
      dist::run_adaptive(small_spec(), coordinator_options(2));
  const dist::ShardState recorded = dist::adaptive_state(result);
  const std::string adaptive_csv =
      dist::sweep_csv(result.meta, result.summaries);

  for (const std::size_t cut : {std::size_t{1}, std::size_t{3}}) {
    const dist::MergeResult replayed = replay(recorded, cut);
    ASSERT_EQ(replayed.summaries.size(), result.summaries.size());
    for (std::size_t c = 0; c < result.summaries.size(); ++c)
      expect_bit_identical(replayed.summaries[c], result.summaries[c]);
    EXPECT_EQ(dist::sweep_csv(replayed.meta, replayed.summaries),
              adaptive_csv);
    EXPECT_EQ(replayed.meta.achieved, result.meta.achieved);
  }
}

TEST(AdaptiveReplay, ThreadCountDoesNotChangeTheReplay) {
  const dist::AdaptiveResult result =
      dist::run_adaptive(small_spec(), coordinator_options(1));
  const dist::ShardState recorded = dist::adaptive_state(result);
  const sim::Executor one(1), eight(8);
  const dist::MergeResult serial = replay(recorded, 2, &one);
  const dist::MergeResult parallel = replay(recorded, 2, &eight);
  for (std::size_t c = 0; c < serial.summaries.size(); ++c)
    expect_bit_identical(serial.summaries[c], parallel.summaries[c]);
  EXPECT_EQ(dist::sweep_csv(serial.meta, serial.summaries),
            dist::sweep_csv(parallel.meta, parallel.summaries));
}

TEST(AdaptiveReplay, MergeValidatesTheAchievedTaskSet) {
  const dist::AdaptiveResult result =
      dist::run_adaptive(small_spec(), coordinator_options(1));
  const dist::ShardState recorded = dist::adaptive_state(result);
  const dist::SweepSpec spec = dist::spec_from_meta(recorded.meta);
  const std::vector<std::uint64_t> tasks = dist::achieved_tasks(recorded.meta);
  ASSERT_LT(tasks.size(),
            static_cast<std::size_t>(
                dist::sweep_shard_plan(recorded.meta).task_count()))
      << "spec too loose: every cell hit the cap, nothing to validate";

  // Missing coverage: drop the last achieved task.
  {
    std::vector<std::uint64_t> short_list(tasks.begin(), tasks.end() - 1);
    const dist::ShardState partial =
        dist::run_shard_tasks(spec, short_list, 0, 1);
    EXPECT_THROW((void)dist::merge_shards({partial}), std::invalid_argument);
  }

  // A task outside the achieved prefix of its cell: swap in the first
  // task id the recorded counts do NOT cover.
  {
    std::uint64_t foreign = 0;
    std::vector<char> covered(
        static_cast<std::size_t>(
            dist::sweep_shard_plan(recorded.meta).task_count()),
        0);
    for (const auto t : tasks) covered[static_cast<std::size_t>(t)] = 1;
    while (covered[static_cast<std::size_t>(foreign)] != 0) ++foreign;
    std::vector<std::uint64_t> with_foreign(tasks.begin(), tasks.end() - 1);
    with_foreign.push_back(foreign);
    std::sort(with_foreign.begin(), with_foreign.end());
    const dist::ShardState wrong =
        dist::run_shard_tasks(spec, with_foreign, 0, 1);
    EXPECT_THROW((void)dist::merge_shards({wrong}), std::invalid_argument);
  }
}

// ---- state codec v3 --------------------------------------------------------

TEST(AdaptiveState, EncodeDecodeEncodeIsByteStable) {
  const dist::AdaptiveResult result =
      dist::run_adaptive(small_spec(), coordinator_options(2));
  const dist::ShardState state = dist::adaptive_state(result);
  ASSERT_FALSE(state.meta.achieved.empty());
  ASSERT_FALSE(state.rounds.empty());
  ASSERT_FALSE(state.cell_rounds.empty());

  const std::string bytes = dist::encode_shard_state(state);
  const dist::ShardState decoded = dist::decode_shard_state(bytes);
  EXPECT_EQ(dist::encode_shard_state(decoded), bytes);

  EXPECT_EQ(decoded.meta.achieved, state.meta.achieved);
  EXPECT_EQ(decoded.cell_rounds, state.cell_rounds);
  ASSERT_EQ(decoded.rounds.size(), state.rounds.size());
  for (std::size_t r = 0; r < state.rounds.size(); ++r) {
    EXPECT_EQ(decoded.rounds[r].round, state.rounds[r].round);
    EXPECT_EQ(decoded.rounds[r].active_cells, state.rounds[r].active_cells);
    EXPECT_EQ(decoded.rounds[r].tasks, state.rounds[r].tasks);
    EXPECT_EQ(decoded.rounds[r].replications, state.rounds[r].replications);
    EXPECT_EQ(decoded.rounds[r].wall_ms, state.rounds[r].wall_ms);
    EXPECT_EQ(decoded.rounds[r].merge_ms, state.rounds[r].merge_ms);
  }
}

TEST(AdaptiveState, AchievedCountsAreSweepIdentity) {
  // A fixed-budget meta and an adaptive meta of the same spec must not
  // cross-merge: the achieved counts are part of the fingerprint.
  const dist::SweepSpec spec = small_spec();
  const dist::SweepMeta fixed = dist::make_meta(spec);
  dist::SweepSpec adaptive_spec = spec;
  adaptive_spec.achieved = {32, 64, 32};
  const dist::SweepMeta adaptive = dist::make_meta(adaptive_spec);
  EXPECT_NE(dist::sweep_fingerprint(fixed), dist::sweep_fingerprint(adaptive));

  dist::SweepSpec other = spec;
  other.achieved = {32, 64, 64};  // one cell differs
  EXPECT_NE(dist::sweep_fingerprint(adaptive),
            dist::sweep_fingerprint(dist::make_meta(other)));
}

TEST(AdaptiveState, MakeMetaValidatesAchieved) {
  dist::SweepSpec wrong_size = small_spec();
  wrong_size.achieved = {32, 32};  // 3 cells
  EXPECT_THROW((void)dist::make_meta(wrong_size), std::invalid_argument);

  dist::SweepSpec zero = small_spec();
  zero.achieved = {32, 0, 32};
  EXPECT_THROW((void)dist::make_meta(zero), std::invalid_argument);

  dist::SweepSpec above_budget = small_spec();
  above_budget.achieved = {32, 32, 1000};  // budget is 256
  EXPECT_THROW((void)dist::make_meta(above_budget), std::invalid_argument);
}

TEST(AdaptiveState, AchievedTasksCoversEachCellPrefix) {
  dist::SweepSpec spec = small_spec();  // superblock 32, 8 per cell
  spec.achieved = {32, 33, 256};        // 1, 2, and 8 superblocks
  const dist::SweepMeta meta = dist::make_meta(spec);
  const std::vector<std::uint64_t> tasks = dist::achieved_tasks(meta);
  const std::vector<std::uint64_t> expected = {0,  8,  9,  16, 17, 18,
                                               19, 20, 21, 22, 23};
  EXPECT_EQ(tasks, expected);

  // A fixed-budget meta covers the full task space.
  const dist::SweepMeta fixed = dist::make_meta(small_spec());
  EXPECT_EQ(dist::achieved_tasks(fixed).size(), 24u);
}

}  // namespace
}  // namespace divsec
