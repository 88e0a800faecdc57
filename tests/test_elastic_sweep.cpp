// Tests for elastic sweep scheduling: the block-granular work queue must
// reproduce the serial ascending block fold for any thread count, a
// cost-weighted LPT plan must cover the task space exactly once and
// merge bit-identically to the in-process run, the cost model must
// round-trip through the state codec byte-stably, and weights/tasks
// files from a different sweep must be rejected by fingerprint.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/measurement.h"
#include "dist/cost_model.h"
#include "dist/state_codec.h"
#include "dist/sweep.h"
#include "sim/executor.h"
#include "sim/shard_plan.h"
#include "sim/streaming.h"

namespace divsec {
namespace {

// ---- the reduction primitive against its contract --------------------------

/// Order-sensitive accumulator: x' = x * 1.0000001 + v is not
/// associative, so any deviation in fold or merge order changes the bits.
struct OrderSensitive {
  double x = 0.0;
  std::uint64_t folds = 0;
  void fold(double v) {
    x = x * 1.0000001 + v;
    ++folds;
  }
  void merge(const OrderSensitive& o) {
    x = x * 1.0000001 + o.x;
    folds += o.folds;
  }
};

/// The reduction contract itself, written out serially: group g's result
/// is make(g) merged with its block partials in ascending block order,
/// each block's samples added in ascending index order.
template <typename Acc, typename Make, typename Sample, typename Add>
std::vector<Acc> serial_ascending_fold(std::size_t groups, std::size_t count,
                                       std::size_t block, const Make& make,
                                       const Sample& sample, const Add& add) {
  std::vector<Acc> out;
  for (std::size_t g = 0; g < groups; ++g) {
    Acc acc = make(g);
    for (std::size_t lo = 0; lo < count; lo += block) {
      Acc partial = make(g);
      for (std::size_t i = lo; i < std::min(count, lo + block); ++i)
        add(partial, sample(g, i));
      acc.merge(partial);
    }
    out.push_back(acc);
  }
  return out;
}

const auto add_value = [](auto& acc, double v) { acc.fold(v); };

TEST(ElasticSchedule, ReduceGroupsBitIdenticalToSerialAscendingFold) {
  const auto make = [](std::size_t g) {
    OrderSensitive acc;
    acc.x = static_cast<double>(g) * 0.25;
    return acc;
  };
  const auto sample = [](std::size_t g, std::size_t i) {
    return static_cast<double>(g * 7919 + i) * 1e-3;
  };
  // 1000 / 64 leaves a partial last block; 50 / 64 is one block per group.
  for (const std::size_t count : {std::size_t{1000}, std::size_t{50}}) {
    constexpr std::size_t kBlock = 64;
    for (const std::size_t groups : {0u, 1u, 3u, 13u}) {
      const std::vector<OrderSensitive> expected =
          serial_ascending_fold<OrderSensitive>(groups, count, kBlock, make,
                                                sample, add_value);
      for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(::testing::Message() << "count=" << count << " groups="
                                          << groups << " threads=" << threads);
        const sim::Executor ex(threads);
        std::vector<int> completions(groups, 0);
        std::vector<double> seconds(groups, -1.0);
        const std::vector<OrderSensitive> got =
            sim::reduce_groups<OrderSensitive>(
                ex, groups, count, kBlock, make, sample, add_value,
                [&](std::size_t g, double s) {
                  ++completions[g];
                  seconds[g] = s;
                });
        ASSERT_EQ(got.size(), groups);
        for (std::size_t g = 0; g < groups; ++g) {
          EXPECT_EQ(got[g].x, expected[g].x) << "group " << g;
          EXPECT_EQ(got[g].folds, count);
          EXPECT_EQ(completions[g], 1);
          EXPECT_GE(seconds[g], 0.0);
        }
      }
    }
  }
}

/// OrderSensitive that counts live instances, to watch in-flight memory.
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak_live{0};
struct Tracked : OrderSensitive {
  Tracked() { note(); }
  Tracked(const Tracked& o) : OrderSensitive(o) { note(); }
  Tracked(Tracked&& o) noexcept : OrderSensitive(o) { note(); }
  Tracked& operator=(const Tracked&) = default;
  Tracked& operator=(Tracked&&) = default;
  ~Tracked() { g_live.fetch_sub(1); }
  void merge(const Tracked& o) { OrderSensitive::merge(o); }
  static void note() {
    const std::int64_t now = g_live.fetch_add(1) + 1;
    std::int64_t peak = g_peak_live.load();
    while (now > peak && !g_peak_live.compare_exchange_weak(peak, now)) {
    }
  }
};

TEST(ElasticSchedule, SlowBlockParksBoundedPartialsAndKeepsOrder) {
  // Block 0 of group 0 stalls while the other threads race ahead through
  // its successors: they must park (bounded by the in-flight cap, not by
  // the 2 x 64 blocks), wait once the cap fills, and still merge in
  // ascending block order once the slow block lands.
  constexpr std::size_t kGroups = 2;
  constexpr std::size_t kCount = 64;
  const auto make = [](std::size_t g) {
    Tracked acc;
    acc.x = static_cast<double>(g);
    return acc;
  };
  const auto sample = [](std::size_t g, std::size_t i) {
    if (g == 0 && i == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return static_cast<double>(g * 131 + i);
  };
  const std::vector<Tracked> expected =
      serial_ascending_fold<Tracked>(kGroups, kCount, 1, make, sample,
                                     add_value);

  const sim::Executor ex(8);
  g_live = 0;
  g_peak_live = 0;
  const std::vector<Tracked> got =
      sim::reduce_groups<Tracked>(ex, kGroups, kCount, 1, make, sample,
                                  add_value);
  ASSERT_EQ(got.size(), kGroups);
  for (std::size_t g = 0; g < kGroups; ++g)
    EXPECT_EQ(got[g].x, expected[g].x) << "group " << g;
  EXPECT_LE(g_peak_live.load(),
            static_cast<std::int64_t>(kGroups +
                                      sim::reduction_in_flight_bound(ex)));
}

// ---- short-queue slicing ----------------------------------------------------

TEST(ElasticSchedule, ShortQueueSlicesStayBitIdenticalAcrossThreads) {
  // Fewer block items than threads: the blocks split into slices whose
  // completions arrive out of order (uneven per-index costs), yet every
  // block partial must see its samples in ascending index order.
  const auto make = [](std::size_t g) {
    OrderSensitive acc;
    acc.x = static_cast<double>(g) * 0.5;
    return acc;
  };
  const auto sample = [](std::size_t g, std::size_t i) {
    if ((g * 31 + i) % 11 == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    return static_cast<double>(g * 104729 + i) * 1e-3;
  };
  constexpr std::size_t kBlock = 64;
  struct Shape {
    std::size_t groups, count;
  };
  // 1 x 100 is two blocks (one short); 3 x 64 is one block per group.
  for (const Shape shape : {Shape{1, 100}, Shape{3, 64}, Shape{1, 5}}) {
    const std::size_t items =
        shape.groups * ((shape.count + kBlock - 1) / kBlock);
    const std::vector<OrderSensitive> expected =
        serial_ascending_fold<OrderSensitive>(shape.groups, shape.count,
                                              kBlock, make, sample, add_value);
    for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
      SCOPED_TRACE(::testing::Message() << "groups=" << shape.groups
                                        << " count=" << shape.count
                                        << " threads=" << threads);
      const std::size_t slices =
          sim::slices_per_block(threads, items, kBlock);
      if (threads == 1) {
        EXPECT_EQ(slices, 1u);
      }
      if (items < threads) {
        EXPECT_GT(slices, 1u);
      }
      const sim::Executor ex(threads);
      std::vector<int> completions(shape.groups, 0);
      const std::vector<OrderSensitive> got =
          sim::reduce_groups<OrderSensitive>(
              ex, shape.groups, shape.count, kBlock, make, sample, add_value,
              [&](std::size_t g, double) { ++completions[g]; });
      ASSERT_EQ(got.size(), shape.groups);
      for (std::size_t g = 0; g < shape.groups; ++g) {
        EXPECT_EQ(got[g].x, expected[g].x) << "group " << g;
        EXPECT_EQ(got[g].folds, shape.count);
        EXPECT_EQ(completions[g], 1);
      }
    }
  }
  // A long queue is never sliced.
  EXPECT_EQ(sim::slices_per_block(4, 8, 256), 1u);
  EXPECT_EQ(sim::slices_per_block(4, 7, 256), 3u);
}

/// A sample value that counts live instances into g_live (a moved-from
/// or consumed sample no longer counts), so buffered slices show up in
/// the same in-flight tally as the Tracked partials.
struct TrackedSample {
  double v = 0.0;
  bool counted = false;
  explicit TrackedSample(double value) : v(value), counted(true) {
    Tracked::note();
  }
  TrackedSample(TrackedSample&& o) noexcept : v(o.v), counted(o.counted) {
    o.counted = false;
  }
  TrackedSample(const TrackedSample&) = delete;
  TrackedSample& operator=(const TrackedSample&) = delete;
  TrackedSample& operator=(TrackedSample&&) = delete;
  ~TrackedSample() { release(); }
  void release() {
    if (counted) g_live.fetch_sub(1);
    counted = false;
  }
};

TEST(ElasticSchedule, SlicedReductionHoldsItsInFlightBound) {
  // One block of 32 on 8 threads -> 32 one-index slices, the first of
  // which stalls: every later slice must buffer, the buffered slices
  // count against the park cap (so claims stop once it fills, well
  // before the 31 other slices are all computed), and the partials plus
  // buffered slices alive at once stay within reduction_in_flight_bound
  // (plus one sample per thread on its way from sample() to add()).
  constexpr std::size_t kGroups = 1;
  constexpr std::size_t kCount = 32;
  const sim::Executor ex(8);
  ASSERT_EQ(sim::slices_per_block(ex.thread_count(), 1, kCount), kCount);
  const auto make = [](std::size_t g) {
    Tracked acc;
    acc.x = static_cast<double>(g) + 0.5;
    return acc;
  };
  std::atomic<bool> first_done{false};
  std::atomic<std::size_t> computed_while_stalled{0};
  const auto sample = [&](std::size_t g, std::size_t i) {
    if (i == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      first_done = true;
    } else if (!first_done) {
      computed_while_stalled.fetch_add(1);
    }
    return TrackedSample(static_cast<double>(g * 131 + i));
  };
  const auto add = [](Tracked& acc, TrackedSample&& s) {
    acc.fold(s.v);
    s.release();
  };
  const std::vector<Tracked> expected = serial_ascending_fold<Tracked>(
      kGroups, kCount, kCount, make,
      [](std::size_t g, std::size_t i) {
        return static_cast<double>(g * 131 + i);
      },
      add_value);

  g_live = 0;
  g_peak_live = 0;
  const std::vector<Tracked> got = sim::reduce_groups<Tracked>(
      ex, kGroups, kCount, kCount, make, sample, add);
  ASSERT_EQ(got.size(), kGroups);
  EXPECT_EQ(got[0].x, expected[0].x);
  EXPECT_EQ(got[0].folds, kCount);
  EXPECT_LE(computed_while_stalled.load(),
            sim::kParkedPerThread * ex.thread_count() + ex.thread_count());
  EXPECT_LE(g_peak_live.load(),
            static_cast<std::int64_t>(kGroups +
                                      sim::reduction_in_flight_bound(ex) +
                                      ex.thread_count()));
}

TEST(ElasticSchedule, ExceptionInSlicedBlockStopsClaimsAndRethrows) {
  // One block on 4 threads -> 16 slices of 4. A failure in a later slice
  // (thrown by sample on its computing thread) or in the prefix add that
  // absorbs a buffered slice must stop further claims and surface.
  constexpr std::size_t kCount = 64;
  const sim::Executor ex(4);
  ASSERT_EQ(sim::slices_per_block(ex.thread_count(), 1, kCount), 16u);
  const auto make = [](std::size_t) { return OrderSensitive{}; };
  for (const bool in_add : {false, true}) {
    SCOPED_TRACE(in_add ? "throw in add" : "throw in sample");
    std::atomic<std::size_t> samples{0};
    const auto sample = [&](std::size_t, std::size_t i) {
      samples.fetch_add(1);
      if (!in_add && i == 4) throw std::runtime_error("sample failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      return static_cast<double>(i);
    };
    const auto add = [&](OrderSensitive& acc, double v) {
      if (in_add && v == 4.0) throw std::runtime_error("add failed");
      acc.fold(v);
    };
    EXPECT_THROW(
        {
          const auto out = sim::reduce_groups<OrderSensitive>(
              ex, 1, kCount, kCount, make, sample, add);
          (void)out;
        },
        std::runtime_error);
    EXPECT_LT(samples.load(), kCount);
  }
}

// ---- thread-count equivalence at the measurement engine --------------------

dist::SweepSpec small_spec() {
  dist::SweepSpec spec;
  spec.preset = "plant_small";
  spec.seed = 4242;
  spec.replications = 50;
  spec.replication_block = 8;
  spec.superblock = 16;  // 4 superblocks per cell -> 12 tasks
  return spec;
}

void expect_same_bits(const core::IndicatorSummary& a,
                      const core::IndicatorSummary& b) {
  EXPECT_EQ(a.tta.mean(), b.tta.mean());
  EXPECT_EQ(a.tta.variance(), b.tta.variance());
  EXPECT_EQ(a.ttsf.mean(), b.ttsf.mean());
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.tta_event.restricted_mean, b.tta_event.restricted_mean);
  EXPECT_EQ(a.ttsf_event.median, b.ttsf_event.median);
  EXPECT_EQ(a.ttsf_event.q90, b.ttsf_event.q90);
}

TEST(ElasticSchedule, WorkQueueRunBitIdenticalAcrossThreads) {
  // The 12-task spec feeds every tested pool from whole tasks; the
  // one-cell spec (1 superblock of 8 blocks) has fewer tasks than
  // threads, so only block-granular claims keep the pool busy.
  dist::SweepSpec one_task = small_spec();
  one_task.policies = {scenario::VariantPolicy::kMonoculture};
  one_task.replications = 64;
  one_task.superblock = 64;
  for (const dist::SweepSpec& spec : {small_spec(), one_task}) {
    const divers::VariantCatalog catalog =
        divers::VariantCatalog::standard(spec.seed);
    const attack::ThreatProfile profile = dist::threat_profile(spec.threat);
    const core::ScenarioSweepPlan plan = dist::expand_plan(spec, catalog);
    std::vector<core::IndicatorSummary> reference;
    for (const std::size_t threads : {1u, 4u, 8u}) {
      SCOPED_TRACE(::testing::Message() << "cells=" << plan.cell_count()
                                        << " threads=" << threads);
      const sim::Executor ex(threads);
      const core::MeasurementEngine engine(catalog, profile,
                                           dist::sweep_options(spec, &ex));
      const auto summaries = engine.measure_scenarios(plan);
      if (reference.empty()) reference = summaries;
      ASSERT_EQ(summaries.size(), reference.size());
      for (std::size_t c = 0; c < summaries.size(); ++c)
        expect_same_bits(summaries[c], reference[c]);

      // The shard entry point times every task it folds.
      const sim::ShardPlan shard = engine.shard_plan(plan.cell_count());
      std::vector<std::uint64_t> tasks(shard.task_count());
      std::iota(tasks.begin(), tasks.end(), std::uint64_t{0});
      std::vector<double> seconds;
      (void)engine.measure_scenario_tasks(plan, shard, tasks, &seconds);
      ASSERT_EQ(seconds.size(), tasks.size());
      for (const double s : seconds) EXPECT_GT(s, 0.0);
    }
  }
}

// ---- cost model ------------------------------------------------------------

TEST(CostModel, SecPerRepFallbacks) {
  dist::CostModel cost;
  EXPECT_FALSE(cost.measured());
  EXPECT_EQ(cost.sec_per_rep(0), 1.0);  // no data: uniform

  cost.cells = {{100, 2.0}, {0, 0.0}, {50, 0.5}};
  EXPECT_TRUE(cost.measured());
  EXPECT_DOUBLE_EQ(cost.sec_per_rep(0), 0.02);
  EXPECT_DOUBLE_EQ(cost.sec_per_rep(2), 0.01);
  // Unmeasured cell: mean measured rate (2.5 s over 150 reps).
  EXPECT_DOUBLE_EQ(cost.sec_per_rep(1), 2.5 / 150.0);

  dist::CostModel other;
  other.cells = {{100, 1.0}, {10, 0.1}, {0, 0.0}};
  cost.merge(other);
  EXPECT_EQ(cost.cells[0].replications, 200u);
  EXPECT_DOUBLE_EQ(cost.cells[0].seconds, 3.0);
  EXPECT_EQ(cost.cells[1].replications, 10u);

  dist::CostModel mismatched;
  mismatched.cells = {{1, 1.0}};
  EXPECT_THROW(cost.merge(mismatched), std::invalid_argument);
}

TEST(CostModel, FingerprintCoversDynamicsNotReplicationCounts) {
  const dist::SweepSpec spec = small_spec();
  const dist::SweepMeta meta = dist::make_meta(spec);

  // Cost transfers across replication/aggregation parameters...
  dist::SweepSpec calibration = spec;
  calibration.replications = 500;
  calibration.superblock = 32;
  EXPECT_EQ(dist::cost_fingerprint(dist::make_meta(calibration)),
            dist::cost_fingerprint(meta));
  // ...but not across anything that changes the cells or their dynamics.
  dist::SweepSpec other = spec;
  other.seed = 7;
  EXPECT_NE(dist::cost_fingerprint(dist::make_meta(other)),
            dist::cost_fingerprint(meta));
  other = spec;
  other.preset = "plant_medium";
  EXPECT_NE(dist::cost_fingerprint(dist::make_meta(other)),
            dist::cost_fingerprint(meta));

  // The full sweep fingerprint stays strict: a different replication
  // count is a different task space.
  EXPECT_NE(dist::sweep_fingerprint(dist::make_meta(calibration)),
            dist::sweep_fingerprint(meta));
}

TEST(CostModel, ShardRunsMeasureTheirCells) {
  const dist::SweepSpec spec = small_spec();
  const dist::ShardState state = dist::run_shard(spec, 0, 2);
  ASSERT_EQ(state.cost.cells.size(), 3u);
  // Shard 0 of 2 owns tasks [0, 6): all of cell 0, half of cell 1.
  EXPECT_EQ(state.cost.cells[0].replications, spec.replications);
  EXPECT_GT(state.cost.cells[1].replications, 0u);
  EXPECT_EQ(state.cost.cells[2].replications, 0u);
  EXPECT_TRUE(state.cost.measured());
}

TEST(CostModel, FewTasksThanThreadsStillMeasuresAndMergesExactly) {
  // A shard owning fewer tasks than executor threads spreads their blocks
  // over the pool — costs must still land per cell and the payload must
  // stay identical to the single-threaded run.
  const dist::SweepSpec spec = small_spec();  // 12 tasks
  const sim::Executor eight(8);
  const sim::Executor one(1);
  std::vector<dist::ShardState> states;
  for (std::size_t i = 0; i < 6; ++i)  // 2 tasks per shard < 8 threads
    states.push_back(dist::run_shard(spec, i, 6, i == 0 ? &eight : &one));
  EXPECT_TRUE(states[0].cost.measured());
  EXPECT_GT(states[0].cost.cells[0].replications, 0u);
  const dist::MergeResult merged = dist::merge_shards(states);
  const auto reference = dist::run_in_process(spec);
  for (std::size_t c = 0; c < reference.size(); ++c) {
    EXPECT_EQ(merged.summaries[c].tta.mean(), reference[c].tta.mean());
    EXPECT_EQ(merged.summaries[c].successes, reference[c].successes);
  }
}

// ---- cost-weighted plans ---------------------------------------------------

TEST(CostWeightedPlan, ExactCoverageForAnyShardCount) {
  const sim::ShardPlan plan = sim::ShardPlan::make(3, 50, 8, 16);  // 12 tasks
  dist::CostModel cost;
  cost.cells = {{50, 5.0}, {50, 1.0}, {50, 1.0}};  // cell 0 is 5x heavier

  for (const std::size_t k : {std::size_t{2}, std::size_t{3}, std::size_t{5}}) {
    const auto assignment = dist::cost_weighted_assignment(plan, cost, k);
    ASSERT_EQ(assignment.size(), k);
    std::set<std::uint64_t> seen;
    for (const auto& list : assignment) {
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (i > 0) {
          EXPECT_LT(list[i - 1], list[i]);  // strictly ascending
        }
        EXPECT_LT(list[i], plan.task_count());
        EXPECT_TRUE(seen.insert(list[i]).second) << "task assigned twice";
      }
    }
    EXPECT_EQ(seen.size(), plan.task_count()) << "K=" << k;

    // The LPT loads must beat the contiguous split's worst shard: the
    // contiguous front shard takes every cell-0 (5x) task.
    const auto loads = dist::assignment_cost(plan, cost, assignment);
    std::vector<std::vector<std::uint64_t>> contiguous(k);
    for (std::size_t s = 0; s < k; ++s) {
      const auto [lo, hi] = plan.shard_range(s, k);
      for (std::uint64_t t = lo; t < hi; ++t) contiguous[s].push_back(t);
    }
    const auto contiguous_loads = dist::assignment_cost(plan, cost, contiguous);
    const double lpt_worst = *std::max_element(loads.begin(), loads.end());
    const double contiguous_worst =
        *std::max_element(contiguous_loads.begin(), contiguous_loads.end());
    EXPECT_LT(lpt_worst, contiguous_worst) << "K=" << k;
  }
}

TEST(CostWeightedPlan, UniformCostsStillCoverExactly) {
  const sim::ShardPlan plan = sim::ShardPlan::make(2, 100, 8, 16);
  const auto assignment =
      dist::cost_weighted_assignment(plan, dist::CostModel{}, 3);
  std::size_t total = 0;
  for (const auto& list : assignment) total += list.size();
  EXPECT_EQ(total, plan.task_count());
  EXPECT_THROW(dist::cost_weighted_assignment(plan, dist::CostModel{}, 0),
               std::invalid_argument);
}

// ---- task-plan files -------------------------------------------------------

TEST(TaskPlanFile, RoundTripsAndValidates) {
  dist::TaskPlan plan;
  plan.fingerprint = 0xDEADBEEFCAFEF00DULL;
  plan.shards = {{0, 2, 5}, {1, 3}, {4}};
  const std::string text = dist::encode_task_plan(plan);
  const dist::TaskPlan back = dist::decode_task_plan(text);
  EXPECT_EQ(back.fingerprint, plan.fingerprint);
  EXPECT_EQ(back.shards, plan.shards);
  EXPECT_EQ(dist::encode_task_plan(back), text);

  // Structural rejections: bad header, incomplete coverage, duplicates,
  // descending lists, trailing garbage.
  EXPECT_THROW((void)dist::decode_task_plan("not a plan"), std::runtime_error);
  dist::TaskPlan hole = plan;
  hole.shards[2].clear();  // task 4 unassigned
  EXPECT_THROW((void)dist::decode_task_plan(dist::encode_task_plan(hole)),
               std::runtime_error);
  std::string dup = text;
  // "shard 2 1 4" -> claim task 1 twice instead.
  dup.replace(dup.rfind("1 4"), 3, "1 1");
  EXPECT_THROW((void)dist::decode_task_plan(dup), std::runtime_error);
  EXPECT_THROW((void)dist::decode_task_plan(text + "extra"),
               std::runtime_error);
}

TEST(TaskPlanFile, ForeignFingerprintIsRejectedLoudly) {
  const dist::SweepMeta meta = dist::make_meta(small_spec());
  dist::SweepSpec other = small_spec();
  other.seed = 9;
  const dist::SweepMeta foreign = dist::make_meta(other);
  try {
    dist::require_fingerprint(dist::sweep_fingerprint(meta),
                              dist::sweep_fingerprint(foreign),
                              "task plan test.tasks");
    FAIL() << "foreign fingerprint accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("task plan test.tasks"), std::string::npos);
    EXPECT_NE(what.find("different sweep"), std::string::npos);
  }
  // Matching fingerprints pass silently.
  dist::require_fingerprint(dist::sweep_fingerprint(meta),
                            dist::sweep_fingerprint(meta), "task plan");
}

// ---- elastic end to end ----------------------------------------------------

TEST(ElasticSweep, CostWeightedShardsMergeBitIdenticalToInProcess) {
  const dist::SweepSpec spec = small_spec();
  const std::vector<core::IndicatorSummary> reference =
      dist::run_in_process(spec);

  // Calibrate from a static 2-shard run, plan K=3 by measured cost, run
  // the explicit lists, merge — the full elastic workflow in-process.
  std::vector<dist::ShardState> calibration;
  for (std::size_t i = 0; i < 2; ++i)
    calibration.push_back(dist::run_shard(spec, i, 2));
  const dist::MergeResult calibrated = dist::merge_shards(calibration);
  EXPECT_TRUE(calibrated.cost.measured());

  const sim::ShardPlan plan = dist::sweep_shard_plan(calibrated.meta);
  const auto assignment =
      dist::cost_weighted_assignment(plan, calibrated.cost, 3);
  std::vector<dist::ShardState> elastic;
  for (std::size_t i = 0; i < 3; ++i)
    elastic.push_back(dist::run_shard_tasks(spec, assignment[i], i, 3));
  const dist::MergeResult merged = dist::merge_shards(elastic);

  ASSERT_EQ(merged.summaries.size(), reference.size());
  for (std::size_t c = 0; c < reference.size(); ++c)
    expect_same_bits(merged.summaries[c], reference[c]);
  EXPECT_EQ(dist::sweep_csv(merged.meta, merged.summaries),
            dist::sweep_csv(dist::make_meta(spec), reference));

  // A task list the sweep does not know is rejected before any work.
  const divers::VariantCatalog catalog =
      divers::VariantCatalog::standard(spec.seed);
  const attack::ThreatProfile profile = dist::threat_profile(spec.threat);
  const core::MeasurementOptions options = dist::sweep_options(spec);
  const core::MeasurementEngine engine(catalog, profile, options);
  const std::vector<std::uint64_t> outside{plan.task_count()};
  EXPECT_THROW((void)engine.measure_scenario_tasks(
                   dist::expand_plan(spec, catalog), plan, outside),
               std::out_of_range);
  const std::vector<std::uint64_t> unsorted{3, 1};
  EXPECT_THROW((void)engine.measure_scenario_tasks(
                   dist::expand_plan(spec, catalog), plan, unsorted),
               std::invalid_argument);
}

}  // namespace
}  // namespace divsec
