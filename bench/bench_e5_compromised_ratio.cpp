// E5 — indicator (iii), compromised ratio c(t): "the number of
// compromised components at time t with respect to the total number of
// components". Mean step curves from the node-level campaign simulator
// for monoculture / partial / full diversity. Expected shape: the
// monoculture curve rises fast and saturates high; diversity flattens and
// caps it.
//
// Fleet phase: on a generated enterprise1024 preset, the campaign
// kernel is validated statistically (same indicator distributions,
// 5-sigma gate) against the preserved pre-refactor implementation
// (legacy_campaign.h, the independent oracle), its own fold is pinned bit
// for bit, and it is timed against the oracle — the phase fails unless
// the kernel is >= 5x faster per replication. A MeasurementEngine
// scenario sweep is timed on top. Records land in BENCH_e5_fleet.json.
// `--fleet-smoke` runs only the gated fleet-scale phases (CI's Release
// smoke pass).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "bench/bench_util.h"
#include "bench/legacy_campaign.h"
#include "core/indicator_accumulator.h"
#include "core/indicators.h"
#include "core/measurement.h"
#include "core/optimizer.h"
#include "dist/adaptive.h"
#include "dist/cost_model.h"
#include "dist/sweep.h"
#include "net/epidemic.h"
#include "obs/metrics.h"
#include "scenario/presets.h"
#include "sim/executor.h"
#include "sim/shard_plan.h"
#include "sim/streaming.h"
#include "stats/survival.h"
#include "stats/tdigest.h"

namespace {

using namespace divsec;

double wall_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

/// The campaign kernel against the preserved pre-refactor engine
/// (bench/legacy_campaign.h), the independent oracle, on a generated
/// enterprise1024 fleet. The oracle walks per-node event chains with
/// log-based exponentials from one stream; the kernel draws per-class
/// ziggurat streams over exactly thinned superpositions. Both sample the
/// same model through different draws, so they agree only statistically.
/// Gates:
///   * equivalence: over the same kReps replications, the means of the
///     final compromised ratio, TTSF and success agree within 5 standard
///     errors;
///   * the pinned fold: the kernel's own kReps fold equals, bit for bit,
///     the values pinned below;
///   * speed: the kernel runs a replication >= 5x faster than the oracle.
/// kReps kernel replications take a few milliseconds, far below the
/// host's scheduling jitter, so each engine is timed over whole passes of
/// the same kReps replications: the check pass sizes a set to last
/// >= kMinSetMs (25% margin), the sets run as kPairs interleaved
/// oracle/kernel pairs, and each engine keeps its fastest set. A set that
/// still ran short re-sizes and the pairs repeat. BENCH_e5_fleet.json
/// records the kernel's per-replication wall, with its own wall_floor_ms
/// so tools/check_bench.py gates it, and the oracle/kernel ratio as its
/// speedup. A MeasurementEngine sweep of the same fleet is timed on top.
bool fleet_speedup_phase() {
  constexpr std::size_t kNodes = 1024;
  constexpr std::size_t kReps = 96;
  constexpr std::uint64_t kSeed = 2013;
  constexpr double kMinSetMs = 200.0;
  constexpr int kPairs = 5;
  constexpr int kSizingAttempts = 4;
  const std::string preset = "enterprise" + std::to_string(kNodes);

  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
  // The monoculture arm is the heavy one: the worm actually spreads, so
  // compromise-volume-proportional work (ratio snapshots, spoof checks,
  // per-root scanning) dominates — exactly what the paper's baseline
  // configuration looks like at fleet scale.
  const scenario::GeneratedScenario fleet = scenario::make_preset(
      preset, cat, kSeed, scenario::VariantPolicy::kMonoculture);

  bench::section("E5 fleet: " + preset + " campaign, legacy oracle vs kernel");
  std::printf("nodes=%zu links=%zu entries=%zu target PLCs=%zu\n",
              fleet.scenario.topology.node_count(),
              fleet.scenario.topology.link_count(),
              fleet.scenario.entry_nodes.size(),
              fleet.scenario.target_plcs.size());

  // Sustained-throughput configuration: incident response does not
  // freeze the attacker, so the worm keeps scanning until the horizon —
  // the event-volume regime a fleet-scale engine must survive. Both
  // engines run the identical configuration.
  attack::CampaignOptions opts;
  opts.detection_halts_attack = false;

  const bench::legacy::CampaignSimulator legacy_sim(fleet.scenario, stuxnet, cat,
                                                    {}, opts);
  const attack::CampaignSimulator kernel_sim(fleet.scenario, stuxnet, cat, {},
                                             opts);

  struct Fold {
    stats::OnlineStats ratio, ttsf, success;
    std::size_t events = 0;
  };
  // One pass over the kReps replications, folded.
  const auto run_pass = [&](const auto& sim, Fold& fold) {
    for (std::size_t r = 0; r < kReps; ++r) {
      stats::Rng rng(kSeed, r);
      const auto res = sim.run(rng);
      fold.ratio.add(res.compromised_ratio.back().second);
      fold.ttsf.add(res.time_to_detection.value_or(opts.t_max_hours));
      fold.success.add(res.attack_succeeded() ? 1.0 : 0.0);
      fold.events += res.events_executed;
    }
  };
  const auto time_passes = [&](const auto& sim, std::size_t passes, Fold& fold) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t p = 0; p < passes; ++p) run_pass(sim, fold);
    return wall_ms_since(start);
  };

  // Check pass: the statistics the gates read, and the first sizing.
  Fold legacy, kernel;
  const double legacy_check_ms = time_passes(legacy_sim, 1, legacy);
  const double kernel_check_ms = time_passes(kernel_sim, 1, kernel);

  // The fold of the kernel on this fleet, seed and rep count (the
  // per-run bit-identity is pinned by tests/test_campaign_golden.cpp).
  const bool pinned = kernel.ratio.mean() == 0x1.ebdfffffffffdp-4 &&
                      kernel.ttsf.mean() == 0x1.0232a3080701cp+8 &&
                      kernel.success.mean() == 0x1.5555555555557p-4 &&
                      kernel.events == 72640;

  const auto close = [&](const stats::OnlineStats& a, const stats::OnlineStats& b,
                         double floor) {
    const double se = std::sqrt(a.variance() / static_cast<double>(kReps) +
                                b.variance() / static_cast<double>(kReps));
    return std::abs(a.mean() - b.mean()) <= 5.0 * se + floor;
  };
  const bool equivalent = close(legacy.ratio, kernel.ratio, 1e-3) &&
                          close(legacy.ttsf, kernel.ttsf, 1e-6) &&
                          close(legacy.success, kernel.success, 1e-3);

  // Timed sets: whole passes, a 25% margin over kMinSetMs at the last
  // measured pass wall (never fewer passes than before).
  const auto resize = [](std::size_t passes, double set_ms) {
    const double pass_ms = std::max(set_ms, 1e-3) / static_cast<double>(passes);
    return std::max(passes, static_cast<std::size_t>(
                                std::ceil(1.25 * kMinSetMs / pass_ms)));
  };
  std::size_t legacy_passes = resize(1, legacy_check_ms);
  std::size_t kernel_passes = resize(1, kernel_check_ms);
  double legacy_set_ms = 0.0, kernel_set_ms = 0.0;  // fastest set of each
  bool sets_long_enough = false;
  for (int attempt = 0; attempt < kSizingAttempts && !sets_long_enough;
       ++attempt) {
    if (attempt > 0) {
      legacy_passes = resize(legacy_passes, legacy_set_ms);
      kernel_passes = resize(kernel_passes, kernel_set_ms);
    }
    for (int p = 0; p < kPairs; ++p) {
      Fold discard;
      const double l = time_passes(legacy_sim, legacy_passes, discard);
      const double k = time_passes(kernel_sim, kernel_passes, discard);
      legacy_set_ms = p == 0 ? l : std::min(legacy_set_ms, l);
      kernel_set_ms = p == 0 ? k : std::min(kernel_set_ms, k);
    }
    sets_long_enough = legacy_set_ms >= kMinSetMs && kernel_set_ms >= kMinSetMs;
  }
  const double legacy_ms =
      legacy_set_ms / static_cast<double>(legacy_passes * kReps);
  const double kernel_ms =
      kernel_set_ms / static_cast<double>(kernel_passes * kReps);
  const double speedup = kernel_ms > 0.0 ? legacy_ms / kernel_ms : 0.0;

  bench::row({"engine", "ms/replication", "events/rep", "fastest set ms",
              "speedup"},
             18);
  bench::row({"legacy (oracle)", bench::fmt(legacy_ms, 4),
              bench::fmt_int(static_cast<long long>(legacy.events / kReps)),
              bench::fmt(legacy_set_ms, 1) + " (" +
                  std::to_string(legacy_passes) + "x" + std::to_string(kReps) + ")",
              bench::fmt(1.0, 2)},
             18);
  bench::row({"kernel", bench::fmt(kernel_ms, 4),
              bench::fmt_int(static_cast<long long>(kernel.events / kReps)),
              bench::fmt(kernel_set_ms, 1) + " (" +
                  std::to_string(kernel_passes) + "x" + std::to_string(kReps) + ")",
              bench::fmt(speedup, 2)},
             18);
  std::printf(
      "equivalence (%zu reps): %s  ratio %.4f vs %.4f | mean TTSF %.1f vs "
      "%.1f | success %.3f vs %.3f   pinned fold: %s\n"
      "timing: %d pairs, sets >= %.0f ms: %s   speedup %.2fx (gate >= 5x)\n",
      kReps, equivalent ? "OK" : "FAILED", legacy.ratio.mean(),
      kernel.ratio.mean(), legacy.ttsf.mean(), kernel.ttsf.mean(),
      legacy.success.mean(), kernel.success.mean(), pinned ? "yes" : "NO (BUG)",
      kPairs, kMinSetMs, sets_long_enough ? "yes" : "NO", speedup);

  // The new measurement flavour: the same fleet swept through
  // MeasurementEngine (monoculture + stratified cells) on the shared
  // executor — the wall clock CI tracks for fleet-scale throughput.
  core::MeasurementOptions mo;
  mo.engine = core::Engine::kCampaign;
  mo.replications = 32;
  mo.seed = kSeed;
  mo.keep_samples = false;
  core::ScenarioSweepPlan plan;
  plan.cells.push_back({fleet.scenario, kSeed});  // the monoculture arm
  plan.cells.push_back(
      {scenario::make_preset(preset, cat, kSeed,
                             scenario::VariantPolicy::kZoneStratified)
           .scenario,
       kSeed + 1});
  const core::MeasurementEngine engine(cat, stuxnet, mo);
  const auto sweep_start = std::chrono::steady_clock::now();
  const auto summaries = engine.measure_scenarios(plan);
  const double sweep_ms = wall_ms_since(sweep_start);
  const int threads = static_cast<int>(engine.executor().thread_count());
  std::printf(
      "sweep: %zu cells x %zu reps in %.1f ms on %d threads "
      "(monoculture success=%.2f, stratified success=%.2f)\n",
      plan.cell_count(), mo.replications, sweep_ms,
      threads, summaries[0].attack_success_probability(),
      summaries[1].attack_success_probability());

  // The kernel's per-replication wall is sub-millisecond: its record
  // carries its own noise floor so the wall gate sees it.
  util::BenchRecord kernel_record{"fleet_campaign_kernel_" + std::to_string(kNodes),
                                  kernel_ms, 1, speedup};
  kernel_record.wall_floor_ms = 0.01;
  bench::write_bench_json(
      "BENCH_e5_fleet.json",
      {{"fleet_campaign_legacy_" + std::to_string(kNodes), legacy_ms, 1, 1.0},
       kernel_record,
       {"fleet_sweep_2x32_" + std::to_string(kNodes), sweep_ms, threads, 1.0}});
  return equivalent && pinned && sets_long_enough && speedup >= 5.0;
}

/// Streaming vs buffered aggregation at fleet scale: the identical
/// enterprise256 sweep once through the streaming backend
/// (keep_samples=false → O(cells + threads × block) aggregation state)
/// and once through the retain-everything path (the full cells × reps
/// sample matrix). Both fold through the same blocked reduction, so the
/// summaries must be bit-identical; the phase gates on that, on the
/// aggregation-footprint reduction (>= 10x), and on streaming wall time
/// no worse than buffered (15% noise allowance). The streaming pass runs
/// first so the peak-RSS high-water deltas attribute the sample matrix
/// to the buffered pass.
bool streaming_aggregation_phase(std::size_t reps) {
  constexpr std::uint64_t kSeed = 2013;
  const std::string preset = "enterprise256";
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();

  core::ScenarioSweepPlan plan;
  plan.cells.push_back(
      {scenario::make_preset(preset, cat, kSeed,
                             scenario::VariantPolicy::kMonoculture)
           .scenario,
       kSeed});
  plan.cells.push_back(
      {scenario::make_preset(preset, cat, kSeed,
                             scenario::VariantPolicy::kZoneStratified)
           .scenario,
       kSeed + 1});

  core::MeasurementOptions mo;
  mo.engine = core::Engine::kCampaign;
  mo.replications = reps;
  mo.seed = kSeed;
  mo.keep_samples = false;

  bench::section("E5 streaming: " + preset + " sweep, streaming vs buffered");
  std::printf("cells=%zu replications=%zu block=%zu\n", plan.cell_count(), reps,
              sim::kDefaultReductionBlock);

  const core::MeasurementEngine streaming_engine(cat, stuxnet, mo);
  {
    // Warm-up pass (allocator, page cache, code paths): the streaming
    // pass runs first for RSS attribution and must not also pay the
    // process cold-start.
    core::MeasurementOptions warm = mo;
    warm.replications = 512;
    const core::MeasurementEngine warm_engine(cat, stuxnet, warm);
    (void)warm_engine.measure_scenarios(plan);
  }

  const double rss_base = bench::peak_rss_mb();
  const auto stream_start = std::chrono::steady_clock::now();
  const auto streamed = streaming_engine.measure_scenarios(plan);
  double stream_ms = wall_ms_since(stream_start);
  const double rss_stream = bench::peak_rss_mb();

  mo.keep_samples = true;
  const core::MeasurementEngine buffered_engine(cat, stuxnet, mo);
  const auto buffered_start = std::chrono::steady_clock::now();
  const auto buffered = buffered_engine.measure_scenarios(plan);
  double buffered_ms = wall_ms_since(buffered_start);
  const double rss_buffered = bench::peak_rss_mb();

  // Second timed pass of each path (ABAB), keeping the minimum: the
  // wall-clock comparison must not hinge on which path ran first on a
  // cold cache — the RSS deltas above already needed streaming first.
  {
    const auto t0 = std::chrono::steady_clock::now();
    (void)streaming_engine.measure_scenarios(plan);
    stream_ms = std::min(stream_ms, wall_ms_since(t0));
    const auto t1 = std::chrono::steady_clock::now();
    (void)buffered_engine.measure_scenarios(plan);
    buffered_ms = std::min(buffered_ms, wall_ms_since(t1));
  }

  // Both paths fold through the same blocked reduction: exact agreement.
  bool identical = streamed.size() == buffered.size();
  for (std::size_t c = 0; identical && c < streamed.size(); ++c)
    identical = streamed[c].tta.mean() == buffered[c].tta.mean() &&
                streamed[c].ttsf.variance() == buffered[c].ttsf.variance() &&
                streamed[c].successes == buffered[c].successes &&
                streamed[c].tta_censored == buffered[c].tta_censored &&
                streamed[c].tta_event.restricted_mean ==
                    buffered[c].tta_event.restricted_mean &&
                streamed[c].samples.empty() &&
                buffered[c].samples.size() == reps;

  // Aggregation state the two backends allocate (deterministic, unlike
  // the RSS high-water deltas also recorded below): the buffered sample
  // matrix vs the per-cell + in-flight block accumulators. Per
  // accumulator, the heap beyond the struct is two survival count arrays,
  // two t-digests at their 2x-compression compaction ceiling, and the
  // ratio-curve bin sums; per buffered sample, the ratio_counts vector.
  const double accumulator_bytes =
      static_cast<double>(sizeof(core::IndicatorAccumulator)) +
      2.0 * static_cast<double>((mo.survival_bins + (mo.survival_bins + 1)) *
                                sizeof(std::uint64_t)) +
      2.0 * 2.0 * stats::CensoredTimeAccumulator::kSketchCompression *
          static_cast<double>(sizeof(stats::TDigest::Centroid)) +
      static_cast<double>(mo.survival_bins * sizeof(std::uint64_t));
  const std::size_t in_flight =
      sim::reduction_in_flight_bound(streaming_engine.executor());
  const double streaming_mb =
      static_cast<double>(plan.cell_count() + in_flight) * accumulator_bytes /
      (1024.0 * 1024.0);
  const double buffered_mb =
      static_cast<double>(plan.cell_count()) * static_cast<double>(reps) *
      (static_cast<double>(sizeof(core::IndicatorSample)) +
       static_cast<double>(mo.survival_bins * sizeof(std::uint32_t))) /
      (1024.0 * 1024.0);
  const double footprint_ratio =
      streaming_mb > 0.0 ? buffered_mb / streaming_mb : 0.0;
  const double rss_stream_delta = rss_stream - rss_base;
  const double rss_buffered_delta = rss_buffered - rss_stream;
  const double wall_ratio = stream_ms > 0.0 ? buffered_ms / stream_ms : 0.0;

  bench::row({"path", "wall ms", "agg MiB", "peak-RSS delta MiB"}, 20);
  bench::row({"streaming", bench::fmt(stream_ms, 1), bench::fmt(streaming_mb, 3),
              bench::fmt(rss_stream_delta, 1)},
             20);
  bench::row({"buffered", bench::fmt(buffered_ms, 1), bench::fmt(buffered_mb, 3),
              bench::fmt(rss_buffered_delta, 1)},
             20);
  std::printf(
      "aggregation footprint reduction: %.0fx   wall buffered/streaming: "
      "%.2f   summaries identical: %s\n",
      footprint_ratio, wall_ratio, identical ? "yes" : "NO (BUG)");
  std::printf(
      "censor-aware TTA (monoculture): rmean=%.1f h  biased mean=%.1f h  "
      "censored=%zu/%zu\n",
      streamed[0].tta_event.restricted_mean, streamed[0].tta.mean(),
      streamed[0].tta_censored, reps);

  const int threads = static_cast<int>(streaming_engine.executor().thread_count());
  bench::write_bench_json(
      "BENCH_e5_streaming.json",
      {{"e5.streaming_sweep_2x" + std::to_string(reps), stream_ms, threads, 1.0,
        streaming_mb},
       {"e5.buffered_sweep_2x" + std::to_string(reps), buffered_ms, threads,
        stream_ms > 0.0 ? buffered_ms / stream_ms : 0.0, buffered_mb},
       {"e5.streaming_peak_rss_delta", stream_ms, threads, 1.0, rss_stream_delta},
       {"e5.buffered_peak_rss_delta", buffered_ms, threads, 1.0,
        rss_buffered_delta}});

  // Measured backstop for the analytic footprint ratio: had the
  // streaming path materialized the sample matrix after all, its
  // peak-RSS delta would grow by ~buffered_mb — require it to stay well
  // under half that (1 MiB floor for allocator noise; skipped where
  // getrusage is unavailable).
  const bool rss_ok = !std::isfinite(rss_stream_delta) ||
                      rss_stream_delta <= std::max(1.0, 0.5 * buffered_mb);
  // Wall-clock gate with tolerance: the paths do the same simulation
  // work; anything past 15% is a real streaming-backend regression.
  return identical && footprint_ratio >= 10.0 && rss_ok &&
         stream_ms <= buffered_ms * 1.15;
}

/// Elastic scheduling at fleet scale: the same skewed-policy
/// enterprise256 sweep sharded two ways — contiguous balanced task
/// ranges (the pre-elastic assignment) vs a cost-weighted LPT plan built
/// from the costs the static run itself measured. The monoculture arm
/// simulates ~5x slower than the diversified arms, so the static split
/// parks the whole expensive cell on the front shards while the tail
/// idles; LPT deals its superblocks across the fleet. Gates: the merged
/// measurement CSVs must agree byte for byte (the elastic deal must not
/// move a single bit), and the worst shard's measured task work must
/// improve by >= 1.3x. Shards run sequentially in one process, so
/// per-shard work times are comparable even on a single-core runner;
/// wall times (which add per-process plan expansion) are reported and
/// recorded alongside.
bool elastic_scheduling_phase() {
  dist::SweepSpec spec;
  spec.preset = "enterprise256";
  spec.seed = 2013;
  spec.replications = 24576;
  spec.replication_block = 256;
  spec.superblock = 3072;  // 8 superblocks per cell -> 24 tasks over 3 cells
  constexpr std::size_t kShards = 4;

  bench::section("E5 elastic: cost-weighted LPT vs static contiguous shards (" +
                 spec.preset + ")");
  std::printf("cells=%zu replications=%zu superblock=%zu tasks=%zu shards=%zu\n",
              spec.policies.size(), spec.replications, spec.superblock,
              spec.policies.size() * (spec.replications / spec.superblock),
              kShards);

  const auto shard_work_s = [](const dist::ShardState& s) {
    double total = 0.0;
    for (const auto& c : s.cost.cells) total += c.seconds;
    return total;
  };

  // Static contiguous shards — also the calibration run: every shard
  // state carries the per-cell costs it measured.
  std::vector<dist::ShardState> static_states;
  for (std::size_t i = 0; i < kShards; ++i)
    static_states.push_back(dist::run_shard(spec, i, kShards));
  const dist::MergeResult static_merged = dist::merge_shards(static_states);

  // Cost-weighted plan from the merged measurements, then the same sweep
  // through the explicit task lists.
  const sim::ShardPlan task_space = dist::sweep_shard_plan(static_merged.meta);
  const auto assignment = dist::cost_weighted_assignment(
      task_space, static_merged.cost, kShards);
  std::vector<dist::ShardState> elastic_states;
  for (std::size_t i = 0; i < kShards; ++i)
    elastic_states.push_back(
        dist::run_shard_tasks(spec, assignment[i], i, kShards));
  const dist::MergeResult elastic_merged = dist::merge_shards(elastic_states);

  const bool identical =
      dist::sweep_csv(static_merged.meta, static_merged.summaries) ==
      dist::sweep_csv(elastic_merged.meta, elastic_merged.summaries);

  double static_worst_work = 0.0, static_worst_wall = 0.0;
  double elastic_worst_work = 0.0, elastic_worst_wall = 0.0;
  bench::row({"shard", "static work s", "static wall ms", "elastic work s",
              "elastic wall ms"},
             17);
  for (std::size_t i = 0; i < kShards; ++i) {
    const double sw = shard_work_s(static_states[i]);
    const double ew = shard_work_s(elastic_states[i]);
    static_worst_work = std::max(static_worst_work, sw);
    elastic_worst_work = std::max(elastic_worst_work, ew);
    static_worst_wall =
        std::max(static_worst_wall, static_states[i].meta.wall_ms);
    elastic_worst_wall =
        std::max(elastic_worst_wall, elastic_states[i].meta.wall_ms);
    bench::row({bench::fmt_int(static_cast<long long>(i)), bench::fmt(sw, 3),
                bench::fmt(static_states[i].meta.wall_ms, 1),
                bench::fmt(ew, 3),
                bench::fmt(elastic_states[i].meta.wall_ms, 1)},
               17);
  }
  const double work_gain =
      elastic_worst_work > 0.0 ? static_worst_work / elastic_worst_work : 0.0;
  const double wall_gain =
      elastic_worst_wall > 0.0 ? static_worst_wall / elastic_worst_wall : 0.0;
  std::printf(
      "worst shard: work %.3f s -> %.3f s (%.2fx), wall %.1f ms -> %.1f ms "
      "(%.2fx)   merged CSV identical: %s\n",
      static_worst_work, elastic_worst_work, work_gain, static_worst_wall,
      elastic_worst_wall, wall_gain, identical ? "yes" : "NO (BUG)");

  std::vector<util::BenchRecord> records;
  for (std::size_t i = 0; i < kShards; ++i) {
    records.push_back({"e5.static_shard" + std::to_string(i),
                       static_states[i].meta.wall_ms,
                       static_cast<int>(static_states[i].meta.threads), 1.0});
    records.push_back({"e5.elastic_shard" + std::to_string(i),
                       elastic_states[i].meta.wall_ms,
                       static_cast<int>(elastic_states[i].meta.threads), 1.0});
  }
  // The trajectory records CI gates on: `speedup` is the worst-shard
  // improvement of the cost-weighted deal over the static one.
  records.push_back({"e5.elastic_worst_shard_work", elastic_worst_work * 1e3,
                     1, work_gain});
  records.push_back({"e5.elastic_worst_shard_wall", elastic_worst_wall, 1,
                     wall_gain});
  bench::write_bench_json("BENCH_e5_elastic.json", records);

  return identical && work_gain >= 1.3;
}

/// Adaptive controller vs the fixed budget: the PR-7 acceptance gate.
/// The same skewed enterprise256 sweep the elastic phase runs, but
/// driven by the variance-based stopping rule — every cell must reach
/// the CI half-width target (1% relative with a 0.002 absolute floor —
/// tight enough that the cells stop at genuinely different counts) or
/// its budget cap, the controller must spend >= 3x fewer replications
/// than the fixed budget, and a 2-shard replay of the recorded per-cell
/// achieved counts must reproduce the adaptive CSV byte for byte.
/// Records land in BENCH_e5_adaptive.json; the merge record times
/// repeated decode + merge passes over the sweep's partials, enough work
/// (tens of ms) for the 25% wall gate to resolve.
bool adaptive_sweep_phase() {
  dist::SweepSpec spec;
  spec.preset = "enterprise256";
  spec.seed = 2013;
  spec.replications = 24576;  // the per-cell budget cap
  spec.replication_block = 256;
  spec.superblock = 512;  // 48 superblocks per cell
  constexpr std::size_t kShards = 4;

  dist::AdaptiveSweepOptions options;
  options.shards = kShards;
  options.relative_precision = 0.01;
  options.absolute_precision = 0.002;

  bench::section("E5 adaptive: variance-driven replication allocation (" +
                 spec.preset + ")");
  std::printf("cells=%zu budget=%zu/cell superblock=%zu shards=%zu "
              "precision=1%% abs-floor=0.002\n",
              spec.policies.size(), spec.replications, spec.superblock,
              kShards);

  const dist::AdaptiveResult result = dist::run_adaptive(spec, options);

  // Per-cell verdict against the same resolved rule the controller used.
  const dist::AdaptiveSchedule sched = dist::resolve_adaptive_schedule(
      options, spec.replications, spec.superblock);
  bool precision_ok = true;
  bench::row({"cell", "achieved", "rounds", "verdict"}, 14);
  for (std::size_t c = 0; c < result.meta.cells; ++c) {
    const bool capped = result.meta.achieved[c] >= sched.rule.max_replications;
    const bool converged = result.accumulators[c].precision_reached(sched.rule);
    if (!capped && !converged) precision_ok = false;
    bench::row({bench::fmt_int(static_cast<long long>(c)),
                bench::fmt_int(static_cast<long long>(result.meta.achieved[c])),
                bench::fmt_int(static_cast<long long>(result.cell_rounds[c])),
                converged ? "converged" : (capped ? "capped" : "NEITHER (BUG)")},
               14);
  }

  const double savings =
      result.total_replications > 0
          ? static_cast<double>(result.budget_replications) /
                static_cast<double>(result.total_replications)
          : 0.0;

  // Replay the recorded achieved counts across a DIFFERENT shard cut (2
  // instead of 4) and demand the byte-identical CSV — the reproducibility
  // contract is the counts, never the round schedule or the deal.
  const dist::ShardState adaptive_st = dist::adaptive_state(result);
  const dist::SweepSpec replay_spec = dist::spec_from_meta(adaptive_st.meta);
  const std::vector<std::uint64_t> tasks =
      dist::achieved_tasks(adaptive_st.meta);
  const std::size_t half = tasks.size() / 2;
  std::vector<dist::ShardState> replay_states;
  replay_states.push_back(dist::run_shard_tasks(
      replay_spec, {tasks.begin(), tasks.begin() + half}, 0, 2));
  replay_states.push_back(dist::run_shard_tasks(
      replay_spec, {tasks.begin() + half, tasks.end()}, 1, 2));
  const dist::MergeResult replayed = dist::merge_shards(replay_states);
  const bool identical =
      dist::sweep_csv(result.meta, result.summaries) ==
      dist::sweep_csv(replayed.meta, replayed.summaries);

  double rounds_merge_ms = 0.0, replay_worst_wall = 0.0;
  for (const dist::RoundLog& r : result.rounds) rounds_merge_ms += r.merge_ms;
  for (const auto& s : replay_states)
    replay_worst_wall = std::max(replay_worst_wall, s.meta.wall_ms);

  // The rounds' merge walls sum to a fraction of a millisecond — too
  // little work for a 25% wall bound to resolve. The gated merge record
  // times kMergePasses repeats of that work over the whole sweep
  // instead: decode the shard-state bytes of every achieved partial and
  // left-fold them per cell (merge_shards, the fold the rounds perform).
  // Best of kMergeSets such sets, so one descheduled slice does not
  // decide the record.
  constexpr int kMergePasses = 128;
  constexpr int kMergeSets = 3;
  std::vector<std::string> replay_bytes;
  for (const auto& s : replay_states)
    replay_bytes.push_back(dist::encode_shard_state(s));
  std::size_t merged_cells = 0;
  double merge_passes_ms = 0.0;
  for (int set = 0; set < kMergeSets; ++set) {
    const auto merge_start = std::chrono::steady_clock::now();
    for (int pass = 0; pass < kMergePasses; ++pass) {
      std::vector<dist::ShardState> decoded;
      for (const std::string& bytes : replay_bytes)
        decoded.push_back(dist::decode_shard_state(bytes));
      merged_cells += dist::merge_shards(decoded).accumulators.size();
    }
    const double ms = wall_ms_since(merge_start);
    merge_passes_ms = set == 0 ? ms : std::min(merge_passes_ms, ms);
  }
  const bool merges_ok = merged_cells == kMergeSets * kMergePasses *
                                             static_cast<std::size_t>(result.meta.cells);

  std::printf("replications %llu of %llu budget (%.2fx saved) in %zu "
              "round(s), %.1f ms   2-shard replay CSV identical: %s\n",
              static_cast<unsigned long long>(result.total_replications),
              static_cast<unsigned long long>(result.budget_replications),
              savings, result.rounds.size(), result.meta.wall_ms,
              identical ? "yes" : "NO (BUG)");
  std::printf("round merges %.3f ms total; %d decode+merge passes over the "
              "sweep's partials %.1f ms (best of %d)\n",
              rounds_merge_ms, kMergePasses, merge_passes_ms, kMergeSets);

  std::vector<util::BenchRecord> records;
  // `speedup` on the sweep record is the replications-saved ratio — the
  // metric CI gates against the >= 3x acceptance bar (speedup may not
  // drop more than 20% below baseline).
  records.push_back({"e5.adaptive_sweep", result.meta.wall_ms,
                     static_cast<int>(result.meta.threads), savings});
  records.push_back({"e5.adaptive_replay_worst_shard", replay_worst_wall,
                     static_cast<int>(replay_states[0].meta.threads), 1.0});
  records.push_back(
      {"e5.adaptive_round_merge_total", merge_passes_ms, 1, 1.0});
  bench::write_bench_json("BENCH_e5_adaptive.json", records);

  return precision_ok && identical && merges_ok && savings >= 3.0;
}

/// Context residency at 10^4 cells: a same-topology enterprise128 sweep
/// through measure_scenarios with streaming aggregation. The engine
/// builds each context on the first claim of its cell and shares the one
/// reachability index, so the sweep's peak-RSS delta — measured AFTER
/// plan construction, whose 10^4 Scenario copies are the caller's own
/// storage — must stay far below what 10^4 eager contexts would cost
/// (the pre-SoA path held every context for the whole call). Gates:
/// one reachability build, peak residency a small multiple of the thread
/// count, RSS delta <= 64 MiB. The counters come from the obs::
/// registry (core.context.*, the successor of the bespoke ContextStats
/// struct); the registry is process-cumulative, so the phase reads a
/// delta by zeroing it first. A DIVSEC_OBS=0 build keeps the RSS gate
/// and skips the counter gate (the counters read as zero). Records land
/// in BENCH_e5_soa.json.
bool context_residency_phase() {
  constexpr std::size_t kCells = 10000;
  constexpr std::uint64_t kSeed = 2013;
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
  const scenario::GeneratedScenario fleet = scenario::make_preset(
      "enterprise128", cat, kSeed, scenario::VariantPolicy::kMonoculture);

  bench::section("E5 SoA: context residency, 10^4-cell enterprise128 sweep");

  core::ScenarioSweepPlan plan;
  plan.cells.reserve(kCells);
  for (std::size_t c = 0; c < kCells; ++c)
    plan.cells.push_back({fleet.scenario, kSeed + c});

  core::MeasurementOptions mo;
  mo.engine = core::Engine::kCampaign;
  mo.replications = 4;
  mo.seed = kSeed;
  mo.keep_samples = false;
  mo.campaign.t_max_hours = 24.0;  // residency phase, not a throughput one
  const core::MeasurementEngine engine(cat, stuxnet, mo);

  obs::reset();
  const double rss_base = bench::peak_rss_mb();  // after plan construction
  const auto start = std::chrono::steady_clock::now();
  const auto summaries = engine.measure_scenarios(plan);
  const double wall_ms = wall_ms_since(start);
  const double rss_delta = bench::peak_rss_mb() - rss_base;

  const obs::Snapshot snap = obs::snapshot();
  const std::uint64_t built = snap.counter("core.context.built");
  const std::uint64_t reach_builds = snap.counter("core.context.reach_builds");
  const std::uint64_t peak_live = snap.gauge("core.context.peak_live");

  const std::size_t threads = engine.executor().thread_count();
  std::printf(
      "cells=%zu reps=%zu horizon=%.0fh threads=%zu: wall %.1f ms, contexts "
      "built=%llu peak_live=%llu reach_builds=%llu, peak-RSS delta %.1f MiB\n",
      plan.cell_count(), mo.replications, mo.campaign.t_max_hours, threads,
      wall_ms, static_cast<unsigned long long>(built),
      static_cast<unsigned long long>(peak_live),
      static_cast<unsigned long long>(reach_builds), rss_delta);

  bench::write_bench_json(
      "BENCH_e5_soa.json",
      {{"e5.soa_sweep10000_wall", wall_ms, static_cast<int>(threads), 1.0},
       {"e5.soa_sweep10000_peak_rss_delta", wall_ms, static_cast<int>(threads),
        1.0, std::isfinite(rss_delta) ? rss_delta : 0.0}});

  const bool residency_ok =
      !obs::enabled() || (built == kCells && reach_builds == 1 &&
                          peak_live <= 8 * threads + 8);
  const bool rss_ok = !std::isfinite(rss_delta) || rss_delta <= 64.0;
  return summaries.size() == kCells && residency_ok && rss_ok;
}

/// Telemetry-overhead phase: the identical enterprise256 in-process
/// sweep with the obs:: hot path recording vs runtime-disabled
/// (obs::set_enabled(false) — the same relaxed-load kill switch every
/// Counter::add checks). A 2% bar can only be read off walls far longer
/// than the host's scheduling jitter, so a calibration run first sizes
/// the sweep until one arm takes >= kMinArmMs at the executor's thread
/// count (a fixed replication count shrank to 16–32 ms arms as the kernel
/// got faster, and the gate read noise). The arms then run as kPairs
/// interleaved ABAB pairs and each takes its min-of-N wall, so machine
/// drift hits both equally. Two gates:
///   * metrics-on wall <= 1.02x metrics-off (the acceptance
///     bar of the striped-atomic recording hot path), and
///   * the sweep CSV is byte-identical across every timed run of both
///     arms — the out-of-band invariant, checked at bench scale.
/// Records land in BENCH_e5_obs.json for the CI trajectory.
bool obs_overhead_phase() {
  constexpr int kPairs = 8;
  constexpr double kMinArmMs = 200.0;
  constexpr std::size_t kCalibrationReps = 4096;
  dist::SweepSpec spec;
  spec.preset = "enterprise256";
  spec.seed = 2013;
  spec.replications = kCalibrationReps;
  spec.horizon_hours = 720.0;

  bench::section("E5 obs: telemetry overhead, " + spec.preset +
                 " metrics-on vs metrics-off");

  const sim::Executor executor(0);  // DIVSEC_THREADS default
  const bool was_enabled = obs::enabled();

  // Calibrate with metrics off (these runs also warm caches and the
  // pool): the fastest of three small runs estimates the unloaded cost,
  // and the budget scales to a 25% margin over kMinArmMs, in whole
  // blocks, so even the min-of-N arm wall stays above kMinArmMs.
  obs::set_enabled(false);
  double calibration_ms = 0.0;
  for (int i = 0; i < 3; ++i) {
    const auto start = std::chrono::steady_clock::now();
    (void)dist::run_in_process(spec, &executor);
    const double ms = wall_ms_since(start);
    calibration_ms = i == 0 ? ms : std::min(calibration_ms, ms);
  }
  const double scale =
      std::max(1.0, 1.25 * kMinArmMs / std::max(calibration_ms, 1e-3));
  constexpr std::size_t kBlock = sim::kDefaultReductionBlock;
  const auto scaled = static_cast<std::size_t>(
      std::ceil(static_cast<double>(kCalibrationReps) * scale /
                static_cast<double>(kBlock)));
  spec.replications = scaled * kBlock;
  const dist::SweepMeta meta = dist::make_meta(spec);

  std::string reference_csv;
  bool csv_identical = true;
  const auto run_arm = [&](bool on) {
    obs::set_enabled(on);
    const auto start = std::chrono::steady_clock::now();
    const auto summaries = dist::run_in_process(spec, &executor);
    const double ms = wall_ms_since(start);
    const std::string csv = dist::sweep_csv(meta, summaries);
    if (reference_csv.empty()) reference_csv = csv;
    else if (csv != reference_csv) csv_identical = false;
    return ms;
  };

  double off_ms = 0.0, on_ms = 0.0;
  for (int t = 0; t < kPairs; ++t) {
    const double off = run_arm(false);
    const double on = run_arm(true);
    off_ms = t == 0 ? off : std::min(off_ms, off);
    on_ms = t == 0 ? on : std::min(on_ms, on);
  }
  obs::set_enabled(was_enabled);

  const double overhead =
      off_ms > 0.0 ? (on_ms - off_ms) / off_ms * 100.0 : 0.0;
  const std::size_t threads = executor.thread_count();
  std::printf(
      "threads=%zu reps/cell=%zu (calibration %.1f ms at %zu) pairs=%d "
      "(min wall): metrics-off %.1f ms, metrics-on %.1f ms, overhead "
      "%+.2f%% (gate <= +2%%), CSV identical: %s\n",
      threads, spec.replications, calibration_ms, kCalibrationReps, kPairs,
      off_ms, on_ms, overhead, csv_identical ? "yes" : "NO");

  std::vector<util::BenchRecord> records;
  records.push_back({"e5.obs_sweep_metrics_off", off_ms,
                     static_cast<int>(threads), 1.0});
  records.push_back({"e5.obs_sweep_metrics_on", on_ms,
                     static_cast<int>(threads),
                     on_ms > 0.0 ? off_ms / on_ms : 1.0});
  bench::write_bench_json("BENCH_e5_obs.json", records);

  return csv_identical && on_ms <= off_ms * 1.02;
}

/// State-codec phase at 10^4 cells: the v4 packed shard-state format
/// against its own fixed-width field walk (identical sections, 8-byte
/// scalars instead of varints/RLE — the honest "uncompressed
/// equivalent"). A 10^4-cell enterprise256 sweep with a small
/// fixed budget is encoded once as a single shard and once as a 4-shard
/// cut, every state pushed through encode -> decode -> re-encode (the
/// bytes a real shard file carries), and both cuts merged. Gates: the
/// re-encode is byte-identical (exact state round-trip), the merged CSVs
/// of the two cuts agree byte for byte (the codec moves no bits), and
/// the packed encoding is >= 4x smaller than the fixed-width equivalent.
/// Encoded size lands in BENCH_e5_codec.json as `state_bytes`, which CI
/// gates lower-is-better so the format cannot quietly bloat back.
bool codec_phase() {
  constexpr std::size_t kCells = 10000;
  constexpr std::size_t kShards = 4;
  dist::SweepSpec spec;
  spec.preset = "enterprise256";
  spec.seed = 2013;
  spec.replications = 8;
  spec.replication_block = 8;
  spec.superblock = 8;        // one superblock task per cell
  spec.horizon_hours = 24.0;  // codec phase, not a throughput one
  spec.policies.clear();
  spec.policies.reserve(kCells);
  constexpr scenario::VariantPolicy kCycle[3] = {
      scenario::VariantPolicy::kMonoculture,
      scenario::VariantPolicy::kZoneStratified,
      scenario::VariantPolicy::kRandomPerNode};
  for (std::size_t c = 0; c < kCells; ++c)
    spec.policies.push_back(kCycle[c % 3]);

  bench::section("E5 codec: v4 packed shard state, 10^4-cell " + spec.preset +
                 " sweep");

  const auto run_start = std::chrono::steady_clock::now();
  const dist::ShardState single = dist::run_shard(spec, 0, 1);
  const double sweep_ms = wall_ms_since(run_start);

  const auto encode_start = std::chrono::steady_clock::now();
  const std::string encoded = dist::encode_shard_state(single);
  const double encode_ms = wall_ms_since(encode_start);
  const auto decode_start = std::chrono::steady_clock::now();
  const dist::ShardState decoded = dist::decode_shard_state(encoded);
  const double decode_ms = wall_ms_since(decode_start);
  const bool roundtrip = dist::encode_shard_state(decoded) == encoded;

  const std::size_t equivalent = dist::uncompressed_equivalent_bytes(single);
  const double ratio =
      encoded.empty() ? 0.0
                      : static_cast<double>(equivalent) /
                            static_cast<double>(encoded.size());
  const dist::StateSectionSizes sizes = dist::state_section_sizes(encoded);
  bench::row({"section", "header", "meta", "tasks", "accums", "cost", "rounds"},
             12);
  bench::row({"bytes", bench::fmt_int(static_cast<long long>(sizes.header)),
              bench::fmt_int(static_cast<long long>(sizes.meta)),
              bench::fmt_int(static_cast<long long>(sizes.tasks)),
              bench::fmt_int(static_cast<long long>(sizes.accumulators)),
              bench::fmt_int(static_cast<long long>(sizes.cost)),
              bench::fmt_int(static_cast<long long>(sizes.rounds))},
             12);

  // The 4-shard cut, with every state pushed through the codec exactly
  // as the file-based flow would; merged CSVs of the two cuts must agree
  // byte for byte.
  std::vector<dist::ShardState> shard_states;
  for (std::size_t i = 0; i < kShards; ++i)
    shard_states.push_back(dist::decode_shard_state(
        dist::encode_shard_state(dist::run_shard(spec, i, kShards))));
  const dist::MergeResult merged_single = dist::merge_shards({decoded});
  const dist::MergeResult merged_cut = dist::merge_shards(shard_states);
  const bool identical =
      dist::sweep_csv(merged_single.meta, merged_single.summaries) ==
      dist::sweep_csv(merged_cut.meta, merged_cut.summaries);

  std::printf(
      "cells=%zu reps=%zu: packed %zu bytes vs %zu fixed-width (%.2fx), "
      "encode %.1f ms decode %.1f ms\n"
      "re-encode byte-identical: %s   1-vs-%zu-shard merged CSV identical: "
      "%s\n",
      kCells, spec.replications, encoded.size(), equivalent, ratio, encode_ms,
      decode_ms, roundtrip ? "yes" : "NO (BUG)", kShards,
      identical ? "yes" : "NO (BUG)");

  // `speedup` on the encode record is the compression ratio (>= 4x bar:
  // the -20% speedup tolerance keeps it above ~3.2 even on refresh);
  // `state_bytes` is the absolute ceiling CI gates lower-is-better.
  util::BenchRecord encode_rec{"e5.codec_encode_10000c", encode_ms, 1, ratio};
  encode_rec.wall_floor_ms = 0.5;
  encode_rec.state_bytes = static_cast<double>(encoded.size());
  util::BenchRecord decode_rec{"e5.codec_decode_10000c", decode_ms, 1, 1.0};
  decode_rec.wall_floor_ms = 0.5;
  bench::write_bench_json(
      "BENCH_e5_codec.json",
      {{"e5.codec_sweep10000_wall", sweep_ms,
        static_cast<int>(single.meta.threads), 1.0},
       encode_rec, decode_rec});

  return roundtrip && identical && ratio >= 4.0;
}

struct Setup {
  divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  core::SystemDescription desc = core::make_scope_description(cat);
  attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
  core::MeasurementOptions mo;
  Setup() {
    mo.engine = core::Engine::kCampaign;
    mo.replications = 200;
    mo.seed = 51;
  }
};

void print_curves() {
  Setup s;
  std::vector<double> grid;
  for (double t = 0.0; t <= 2160.0; t += 120.0) grid.push_back(t);

  const core::Configuration mono = s.desc.baseline_configuration();
  stats::Rng rng(1);
  const core::Configuration partial = core::place_resilient_components(
      s.desc, 2, core::PlacementStrategy::kStrategic, s.stuxnet, s.mo, rng);
  const core::Configuration full = core::place_resilient_components(
      s.desc, 7, core::PlacementStrategy::kStrategic, s.stuxnet, s.mo, rng);

  const auto c_mono =
      core::mean_compromised_ratio_curve(s.desc, mono, s.stuxnet, s.mo, grid);
  const auto c_part =
      core::mean_compromised_ratio_curve(s.desc, partial, s.stuxnet, s.mo, grid);
  const auto c_full =
      core::mean_compromised_ratio_curve(s.desc, full, s.stuxnet, s.mo, grid);

  // Mean-field SI baseline over the same reachability graph (no exploit
  // failure, no detection): the upper envelope a pure worm model gives.
  const attack::Scenario base = s.desc.instantiate(mono);
  net::MeanFieldEpidemic epidemic(
      base.topology, base.firewall,
      {net::Channel::kUsb, net::Channel::kSmbShare, net::Channel::kPrintSpooler},
      base.entry_nodes, {0.02, 0.5});
  const auto c_mf = epidemic.ratio_curve(grid);

  bench::section("E5: mean compromised ratio c(t), 200 campaigns each");
  bench::row({"t (h)", "monoculture", "2 diversified", "7 diversified",
              "mean-field SI"},
             16);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    bench::row({bench::fmt(grid[i], 0), bench::fmt(c_mono[i]),
                bench::fmt(c_part[i]), bench::fmt(c_full[i]),
                bench::fmt(c_mf[i])},
               16);
  }
  std::printf(
      "\nShape check: monoculture saturates high and early, tracking the\n"
      "mean-field SI envelope; each diversity step lowers both the growth\n"
      "rate and the plateau of c(t) far below what a topology-only worm\n"
      "model can explain — the reduction is the diversity effect.\n");
}

void BM_OneCampaign(benchmark::State& state) {
  Setup s;
  const attack::CampaignSimulator sim(
      s.desc.instantiate(s.desc.baseline_configuration()), s.stuxnet, s.cat);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    stats::Rng rng(9, seed++);
    auto r = sim.run(rng);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_OneCampaign)->Unit(benchmark::kMicrosecond);

void BM_MeanRatioCurve(benchmark::State& state) {
  Setup s;
  s.mo.replications = 50;
  std::vector<double> grid{0, 500, 1000, 1500, 2000};
  for (auto _ : state) {
    auto c = core::mean_compromised_ratio_curve(
        s.desc, s.desc.baseline_configuration(), s.stuxnet, s.mo, grid);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_MeanRatioCurve)->Unit(benchmark::kMillisecond);

/// Every gated fleet-scale phase, each run even when an earlier one
/// fails; false if any gate failed.
bool fleet_phases() {
  // The acceptance-scale streaming comparison: >= 1e5 replications per
  // enterprise256 cell.
  constexpr std::size_t kStreamingReps = 100000;
  const bool fleet_ok = fleet_speedup_phase();
  const bool residency_ok = context_residency_phase();
  const bool streaming_ok = streaming_aggregation_phase(kStreamingReps);
  const bool elastic_ok = elastic_scheduling_phase();
  const bool adaptive_ok = adaptive_sweep_phase();
  const bool codec_ok = codec_phase();
  const bool obs_ok = obs_overhead_phase();
  return fleet_ok && residency_ok && streaming_ok && elastic_ok && adaptive_ok &&
         codec_ok && obs_ok;
}

}  // namespace

int main(int argc, char** argv) {
  // CI smoke mode: only the gated fleet-scale phases (JSON emission),
  // skipping the slower paper-curve tables and google-benchmark timings.
  // Exits non-zero if any phase's gate fails.
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--fleet-smoke") == 0) return fleet_phases() ? 0 : 1;
  print_curves();
  const bool ok = fleet_phases();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ok ? 0 : 1;
}
