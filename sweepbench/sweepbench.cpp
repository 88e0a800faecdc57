// sweepbench.cpp — the divsec sweep benchmark: time from SweepSpec to the
// indicator CSV on three named sweep workloads, plus a traced per-layer
// ledger.
//
//   sweepbench --workload NAME --seed N --seconds S --trace 0|1
//              [--out DIR]
//
// Load model: a closed loop with one client. One process submits one
// sweep at a time through the library's public entry points
// (dist::run_in_process / dist::run_adaptive, then dist::sweep_csv),
// waits for its CSV, and submits the next, for S seconds. The program
// only ever sees the SweepSpec generated from the seed.
//
// --trace 0 prints the end-to-end metrics over a fixed set of specs
// derived from the seed (run_specs): per spec the median over whole
// passes, then the mean over specs. --trace 1 is the separate traced run
// on the seed's own spec: it times the calls into each module (scenario,
// net, attack, core, sim, dist) from this file, snapshots the obs::
// registry, writes the benchmark's obs::Span session as a Chrome trace
// under DIR, and prints the per-layer metrics.
//
// Layer ledger: the end-to-end metric each per-layer metric should move,
// and on which workload.
//   scenario.expand_ms ............................ setup_s, largest on e4096
//   net.reach_build_ms, core.context.reach_builds . setup_s on e4096;
//                                                   time_to_result_s on adapt
//   attack.tables_build_ms ........................ setup_s
//   attack.kernel_us_per_rep, attack.events_per_rep (exact),
//   attack.kernel_ns_per_event .................... time_to_result_s,
//                                                   reps_per_s, cpu_s on e4096
//   core.fold_us_per_rep, core.measure_ms, core.kernel_share,
//   core.context.built, core.context.peak_live .... reps_per_s on both fixed
//                                                   workloads; peak_rss_mb
//   sim.executor.idle_share, .jobs, .chunks ....... time_to_result_s on
//                                                   e1024 and adapt
//   dist.encode_ms, dist.decode_ms, dist.state_bytes (exact), dist.merge_ms,
//   dist.csv_ms, adapt.rounds (exact), adapt.round_ms_p50/_p90
//                                                   time_to_result_s on adapt;
//                                                   near zero on fixed
//   obs.trace_overhead_pct ........................ traced vs untraced wall
//   trace.closure_pct ............................. outer spans vs sweep wall
//
// Every run checks its outputs outside the timed region: fixed-budget
// CSVs against a K-shard run → encode → decode → merge of the same spec,
// adaptive CSVs against a replay of the achieved counts on another shard
// cut, every repeated sweep against the first, and (seed 2013 only) the
// CSV digest pinned below. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "attack/campaign.h"
#include "core/indicator_accumulator.h"
#include "dist/adaptive.h"
#include "dist/fnv.h"
#include "dist/state_codec.h"
#include "dist/sweep.h"
#include "net/reachability_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/executor.h"
#include "stats/rng.h"

namespace {

using namespace divsec;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 2013;

// ---- workloads --------------------------------------------------------

struct Workload {
  const char* name;
  const char* preset;
  std::size_t threads;
  /// Fixed budget per cell; for the adaptive workload, the per-cell cap.
  std::size_t replications;
  bool adaptive;
  /// Fixed: shards of the output check's K-shard run. Adaptive: the
  /// coordinator's in-process shards (the replay check uses shards - 1).
  std::size_t shards;
  std::size_t superblock;  // 0 = the library default
  /// Specs one end-to-end run measures (see run_specs).
  std::size_t specs_per_run;
  /// FNV-1a of the CSV at kDefaultSeed.
  std::uint64_t pinned_digest;
};

// Sizes are chosen so one sweep takes a few tenths of a second on a
// 4-core host and one pass over a run's specs about 10 s: short sweeps,
// so a run averages over many scenario draws, and short runs, so a set of
// runs spans little of the host's minute-scale speed drift.
constexpr Workload kWorkloads[] = {
    {"fixed-e4096-1t", "enterprise4096", 1, 16384, false, 4, 0, 12,
     0x2b86b709ccd19d9bULL},
    {"fixed-e1024-4t", "enterprise1024", 4, 65536, false, 4, 0, 18,
     0xb2b7e5878b546880ULL},
    {"adapt-e256-4shard", "enterprise256", 4, 1u << 22, true, 4, 512, 26,
     0xa05d13c48d8fa2b9ULL},
};

dist::SweepSpec make_spec(const Workload& w, std::uint64_t seed) {
  dist::SweepSpec spec;  // stuxnet, the 3-arm policy sweep
  spec.preset = w.preset;
  spec.seed = seed;
  spec.replications = w.replications;
  spec.superblock = w.superblock;
  spec.horizon_hours = 2160.0;
  return spec;
}

/// 0.5% relative / 0.001 absolute: the adaptive sweep still runs as
/// dozens of 512-rep rounds, each paying expansion, reach builds, the
/// codec, the merge and the LPT deal, but finishes in a few tenths of a
/// second, so a run can average over many specs.
dist::AdaptiveSweepOptions adaptive_options(const Workload& w) {
  dist::AdaptiveSweepOptions o;
  o.shards = w.shards;
  o.relative_precision = 0.005;
  o.absolute_precision = 0.001;
  return o;
}

// ---- small measurement helpers ---------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- outcome ledger -----------------------------------------------------

/// Counts operations attempted and failed: a failed output check or a
/// call that threw. A count that differs where it must repeat is a
/// failed check too.
struct Ledger {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "sweepbench: check failed: %s\n", what.c_str());
    }
  }

  /// Run one operation; an exception counts as a failure. Returns
  /// whether it completed.
  bool guard(const std::string& what, const std::function<void()>& op) {
    try {
      op();
      ++attempted;
      return true;
    } catch (const std::exception& e) {
      check(false, what + " threw: " + e.what());
      return false;
    }
  }
};

// ---- one sweep through the public entry points -----------------------

struct SweepResult {
  std::string csv;
  std::uint64_t replications = 0;
  std::vector<std::uint64_t> achieved;  // adaptive only
  std::vector<dist::RoundLog> rounds;   // adaptive only
};

/// SweepSpec → CSV, exactly as a user of the library runs it.
SweepResult run_sweep(const Workload& w, const dist::SweepSpec& spec,
                      const sim::Executor& executor) {
  SweepResult out;
  if (w.adaptive) {
    dist::AdaptiveResult r =
        dist::run_adaptive(spec, adaptive_options(w), &executor);
    out.csv = dist::sweep_csv(r.meta, r.summaries);
    out.replications = r.total_replications;
    out.achieved = std::move(r.meta.achieved);
    out.rounds = std::move(r.rounds);
  } else {
    const std::vector<core::IndicatorSummary> cells =
        dist::run_in_process(spec, &executor);
    out.csv = dist::sweep_csv(dist::make_meta(spec), cells);
    out.replications = spec.replications * spec.policies.size();
  }
  return out;
}

/// Shard states through the codec and the exact reducer, as a fleet of
/// OS processes would hand them over.
std::string merged_csv(const std::vector<dist::ShardState>& shards) {
  std::vector<dist::ShardState> decoded;
  decoded.reserve(shards.size());
  for (const auto& s : shards)
    decoded.push_back(dist::decode_shard_state(dist::encode_shard_state(s)));
  const dist::MergeResult merged = dist::merge_shards(decoded);
  return dist::sweep_csv(merged.meta, merged.summaries);
}

/// The CSV a reference run must reproduce byte for byte: the K-shard
/// split of a fixed-budget spec, or a replay of the adaptive run's
/// achieved counts on a strided shard cut (not the coordinator's LPT
/// deal, and a different shard count).
std::string reference_csv(const Workload& w, const dist::SweepSpec& spec,
                          const SweepResult& run,
                          const sim::Executor& executor) {
  std::vector<dist::ShardState> shards;
  if (!w.adaptive) {
    for (std::size_t i = 0; i < w.shards; ++i)
      shards.push_back(dist::run_shard(spec, i, w.shards, &executor));
    return merged_csv(shards);
  }
  dist::SweepSpec replay = spec;
  replay.achieved = run.achieved;
  const std::vector<std::uint64_t> tasks =
      dist::achieved_tasks(dist::make_meta(replay));
  const std::size_t cut = std::max<std::size_t>(w.shards - 1, 1);
  std::vector<std::vector<std::uint64_t>> lists(cut);
  for (std::size_t i = 0; i < tasks.size(); ++i) lists[i % cut].push_back(tasks[i]);
  for (std::size_t i = 0; i < cut; ++i)
    if (!lists[i].empty())
      shards.push_back(dist::run_shard_tasks(replay, lists[i], i, cut, &executor));
  return merged_csv(shards);
}

/// The run's output checks, outside every timed region.
void check_output(const Workload& w, const dist::SweepSpec& spec,
                  const SweepResult& run, const sim::Executor& executor,
                  Ledger& ledger) {
  std::string ref;
  if (ledger.guard("reference run", [&] { ref = reference_csv(w, spec, run, executor); }))
    ledger.check(ref == run.csv, w.adaptive
                                     ? "adaptive CSV != replay of achieved counts"
                                     : "in-process CSV != K-shard merged CSV");
  const std::uint64_t digest = dist::fnv1a(run.csv);
  std::printf("csv_digest %016" PRIx64 " (seed %" PRIu64 ")\n", digest, spec.seed);
  if (spec.seed == kDefaultSeed)
    ledger.check(digest == w.pinned_digest, "CSV digest != pinned digest");
}

// ---- set-up -------------------------------------------------------------

/// What a sweep builds before its first replication: the expanded plan,
/// one reachability index (the cells share one topology), and the
/// campaign tables of every cell.
struct SetupTimes {
  double expand_s = 0.0;
  double reach_s = 0.0;
  double tables_s = 0.0;
  [[nodiscard]] double total() const { return expand_s + reach_s + tables_s; }
};

SetupTimes time_setup(const dist::SweepSpec& spec) {
  SetupTimes t;
  const core::MeasurementOptions mo = dist::sweep_options(spec);
  auto t0 = Clock::now();
  std::optional<obs::Span> span("scenario.expand");
  const divers::VariantCatalog catalog = divers::VariantCatalog::standard(spec.seed);
  const attack::ThreatProfile profile = dist::threat_profile(spec.threat);
  const core::ScenarioSweepPlan plan = dist::expand_plan(spec, catalog);
  t.expand_s = seconds_since(t0);

  t0 = Clock::now();
  span.emplace("net.reach_build");
  const attack::Scenario& first = plan.cells.front().scenario;
  const auto reach =
      std::make_shared<const net::ReachabilityIndex>(first.topology, first.firewall);
  t.reach_s = seconds_since(t0);

  t0 = Clock::now();
  span.emplace("attack.tables_build");
  for (const core::ScenarioCell& cell : plan.cells) {
    const attack::CampaignSimulator sim(cell.scenario, profile, catalog,
                                        mo.detection, mo.campaign, reach);
  }
  t.tables_s = seconds_since(t0);
  return t;
}

constexpr std::size_t kSetupRepeats = 5;
constexpr std::size_t kSetupSpecs = 16;

std::vector<SetupTimes> repeat_setup(const dist::SweepSpec& spec) {
  std::vector<SetupTimes> out;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) out.push_back(time_setup(spec));
  return out;
}

// ---- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void emit(const Ledger& ledger, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string json = "{\"correct\": ";
  json += ledger.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted);
  json += ", \"failed\": " + std::to_string(ledger.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- --trace 0: end-to-end -------------------------------------------

constexpr std::size_t kMinSweeps = 3;

/// The specs one end-to-end run measures: the workload at --seed, then
/// at seeds drawn from a SplitMix64 chain on it. Sweep cost depends on
/// the scenario draw (catalog and topology follow the seed), so a run
/// averages over a fixed set of draws instead of hinging on one.
std::vector<dist::SweepSpec> run_specs(const Workload& w, std::uint64_t seed) {
  std::vector<dist::SweepSpec> specs{make_spec(w, seed)};
  std::uint64_t sm = seed;
  while (specs.size() < w.specs_per_run) specs.push_back(make_spec(w, stats::splitmix64(sm)));
  return specs;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

int run_end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  Ledger ledger;
  const sim::Executor executor(w.threads);
  const std::vector<dist::SweepSpec> specs = run_specs(w, seed);
  const std::size_t n = specs.size();

  // Warm-up sweep (untimed) of the first spec: the run's checked output.
  // It runs first, so the peak RSS read after it is what a process that
  // runs one sweep of this workload holds at most.
  SweepResult first;
  if (!ledger.guard("warm-up sweep", [&] { first = run_sweep(w, specs[0], executor); })) {
    emit(ledger, {});
    return 0;
  }
  const double rss = peak_rss_mb();

  // Set-up: median of repeated builds per spec, mean over the first
  // kSetupSpecs specs.
  std::vector<double> setup(std::min(n, kSetupSpecs));
  ledger.guard("setup", [&] {
    for (std::size_t i = 0; i < setup.size(); ++i) {
      std::vector<double> t;
      for (const SetupTimes& s : repeat_setup(specs[i])) t.push_back(s.total());
      setup[i] = median(t);
    }
  });

  // The closed loop: whole passes over the specs, as many as fit the
  // window (at least one), so every run times the same input set.
  std::vector<std::vector<double>> wall(n), cpu(n);
  std::vector<std::uint64_t> reps(n, 0);
  std::vector<std::string> csv(n);
  std::size_t passes = 0;
  const auto window = Clock::now();
  while (passes == 0 || seconds_since(window) * (passes + 1) / passes < seconds) {
    for (std::size_t i = 0; i < n; ++i) {
      SweepResult r;
      const double cpu0 = cpu_seconds();
      const auto t0 = Clock::now();
      if (!ledger.guard("sweep", [&] { r = run_sweep(w, specs[i], executor); })) continue;
      wall[i].push_back(seconds_since(t0));
      cpu[i].push_back(cpu_seconds() - cpu0);
      if (passes == 0) {
        reps[i] = r.replications;
        csv[i] = std::move(r.csv);
      } else {
        ledger.check(r.csv == csv[i], "repeated sweep CSV differs from the first");
      }
    }
    ++passes;
  }
  ledger.check(csv[0] == first.csv, "timed sweep CSV differs from the warm-up");
  check_output(w, specs[0], first, executor, ledger);

  // Per spec: the median over passes. Across specs: the mean.
  std::vector<double> time_s(n), cpu_s(n);
  double total_reps = 0.0, total_time = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    time_s[i] = median(wall[i]);
    cpu_s[i] = median(cpu[i]);
    total_reps += static_cast<double>(reps[i]);
    total_time += time_s[i];
  }
  std::printf("workload %s seed %" PRIu64 ": %zu specs x %zu passes in %.2f s\n",
              w.name, seed, n, passes, seconds_since(window));
  for (std::size_t i = 0; i < n; ++i)
    std::printf("  spec seed %-20" PRIu64 " reps %-9" PRIu64 " time_to_result_s %.6f\n",
                specs[i].seed, reps[i], time_s[i]);
  std::printf("  time_to_result_s min %.6f q1 %.6f median %.6f q3 %.6f max %.6f (n=%zu specs)\n",
              quantile(time_s, 0.0), quantile(time_s, 0.25), median(time_s),
              quantile(time_s, 0.75), quantile(time_s, 1.0), n);
  std::printf("  failed_share %.6f (%zu of %zu)\n",
              static_cast<double>(ledger.failed) /
                  static_cast<double>(std::max<std::size_t>(ledger.attempted, 1)),
              ledger.failed, ledger.attempted);
  emit(ledger, {{"time_to_result_s", mean(time_s), "s"},
                {"reps_per_s", total_reps / total_time, "1/s"},
                {"setup_s", mean(setup), "s"},
                {"cpu_s", mean(cpu_s), "s"},
                {"peak_rss_mb", rss, "MB"}});
  return 0;
}

// ---- --trace 1: the per-layer ledger ----------------------------------

/// Benchmark-side layer span: an obs::Span for the Chrome trace plus the
/// duration, accumulated under the layer's name for closure.
class Layer {
 public:
  Layer(const char* name, std::map<std::string, double>& sink)
      : span_(name), name_(name), sink_(sink), t0_(Clock::now()) {}
  ~Layer() { sink_[name_] += seconds_since(t0_); }
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

 private:
  obs::Span span_;
  const char* name_;
  std::map<std::string, double>& sink_;
  Clock::time_point t0_;
};

/// One traced sweep: the same calls as run_sweep, split at the module
/// boundaries the fixed path exposes (the adaptive coordinator is one
/// dist call; its rounds appear in the trace as the library's own
/// adapt.* spans).
struct TracedSweep {
  SweepResult result;
  double wall_s = 0.0;
  double measure_s = 0.0;  // the measuring library call
  std::map<std::string, double> layers;  // outer benchmark spans
  obs::Snapshot snapshot;
};

TracedSweep traced_sweep(const Workload& w, const dist::SweepSpec& spec) {
  TracedSweep t;
  {
    const sim::Executor executor(w.threads);  // fresh: idle_ns covers one sweep
    const auto t0 = Clock::now();
    const obs::Span sweep_span("bench.sweep");
    if (w.adaptive) {
      dist::AdaptiveResult r;
      {
        const Layer l("dist.run_adaptive", t.layers);
        r = dist::run_adaptive(spec, adaptive_options(w), &executor);
      }
      t.measure_s = t.layers["dist.run_adaptive"];
      {
        const Layer l("dist.csv", t.layers);
        t.result.csv = dist::sweep_csv(r.meta, r.summaries);
      }
      t.result.replications = r.total_replications;
      t.result.achieved = std::move(r.meta.achieved);
      t.result.rounds = std::move(r.rounds);
    } else {
      std::optional<divers::VariantCatalog> catalog;
      std::optional<attack::ThreatProfile> profile;
      core::ScenarioSweepPlan plan;
      {
        const Layer l("scenario.expand", t.layers);
        catalog.emplace(divers::VariantCatalog::standard(spec.seed));
        profile.emplace(dist::threat_profile(spec.threat));
        plan = dist::expand_plan(spec, *catalog);
      }
      std::vector<core::IndicatorSummary> cells;
      {
        const Layer l("core.measure", t.layers);
        const core::MeasurementEngine engine(*catalog, *profile,
                                             dist::sweep_options(spec, &executor));
        cells = engine.measure_scenarios(plan);
      }
      t.measure_s = t.layers["core.measure"];
      {
        const Layer l("dist.csv", t.layers);
        t.result.csv = dist::sweep_csv(dist::make_meta(spec), cells);
      }
      t.result.replications = spec.replications * spec.policies.size();
    }
    t.wall_s = seconds_since(t0);
  }
  // Snapshot after the pool has joined: a worker adds its last wait to
  // sim.executor.idle_ns only when it wakes, here for shutdown.
  t.snapshot = obs::snapshot();
  return t;
}

/// The campaign kernel alone, on one thread: CampaignSimulator::run over
/// the sweep's own Rng(cell.seed, r) streams for r < counts[cell], plus
/// the IndicatorAccumulator::add fold of the same samples, timed apart
/// in batches.
struct KernelStats {
  double kernel_s = 0.0;
  double fold_s = 0.0;
  std::uint64_t reps = 0;
  std::uint64_t events = 0;
};

/// The sample the measurement engine folds for one campaign result
/// (core::IndicatorSample's documented campaign-engine contract).
void to_sample(const attack::CampaignResult& r, double horizon,
               std::size_t bins, std::size_t nodes, core::IndicatorSample& s) {
  s.tta = r.time_to_attack.value_or(horizon);
  s.tta_censored = !r.time_to_attack.has_value();
  s.ttsf = r.time_to_detection.value_or(horizon);
  s.ttsf_censored = !r.time_to_detection.has_value();
  s.attack_succeeded = r.attack_succeeded();
  s.final_ratio = r.compromised_ratio.empty() ? 0.0 : r.compromised_ratio.back().second;
  s.ratio_scale = nodes;
  s.ratio_counts.resize(bins);
  for (std::size_t k = 0; k < bins; ++k) {
    const double t = horizon * static_cast<double>(k + 1) / static_cast<double>(bins);
    s.ratio_counts[k] = static_cast<std::uint32_t>(
        std::llround(r.ratio_at(t) * static_cast<double>(nodes)));
  }
}

KernelStats replay_kernel(const dist::SweepSpec& spec,
                          const std::vector<std::uint64_t>& counts) {
  KernelStats k;
  const core::MeasurementOptions mo = dist::sweep_options(spec);
  const divers::VariantCatalog catalog = divers::VariantCatalog::standard(spec.seed);
  const attack::ThreatProfile profile = dist::threat_profile(spec.threat);
  const core::ScenarioSweepPlan plan = dist::expand_plan(spec, catalog);
  const double horizon = mo.campaign.t_max_hours;
  constexpr std::size_t kBatch = 256;
  std::vector<attack::CampaignResult> results(kBatch);
  std::vector<core::IndicatorSample> samples(kBatch);
  for (std::size_t c = 0; c < plan.cells.size(); ++c) {
    const core::ScenarioCell& cell = plan.cells[c];
    const attack::CampaignSimulator sim(cell.scenario, profile, catalog,
                                        mo.detection, mo.campaign);
    const std::size_t nodes = cell.scenario.topology.node_count();
    core::IndicatorAccumulator acc(horizon, mo.survival_bins);
    for (std::uint64_t r0 = 0; r0 < counts[c]; r0 += kBatch) {
      const std::size_t n =
          static_cast<std::size_t>(std::min<std::uint64_t>(kBatch, counts[c] - r0));
      {
        const auto t0 = Clock::now();
        const obs::Span span("attack.kernel");
        for (std::size_t i = 0; i < n; ++i) {
          stats::Rng rng(cell.seed, r0 + i);
          results[i] = sim.run(rng);
        }
        k.kernel_s += seconds_since(t0);
      }
      for (std::size_t i = 0; i < n; ++i) {
        to_sample(results[i], horizon, mo.survival_bins, nodes, samples[i]);
        k.events += results[i].events_executed;
      }
      {
        const auto t0 = Clock::now();
        const obs::Span span("core.fold");
        for (std::size_t i = 0; i < n; ++i) acc.add(samples[i]);
        k.fold_s += seconds_since(t0);
      }
      k.reps += n;
    }
  }
  return k;
}

int run_traced(const Workload& w, const dist::SweepSpec& spec, double seconds,
               const std::string& out_dir) {
  Ledger ledger;
  obs::set_enabled(true);
  const sim::Executor executor(w.threads);

  SweepResult first;
  if (!ledger.guard("warm-up sweep", [&] { first = run_sweep(w, spec, executor); })) {
    emit(ledger, {});
    return 0;
  }

  // Tracing overhead: untraced and traced sweeps alternate for the
  // window, each on a fresh pool; each traced sweep is its own trace
  // session.
  std::vector<double> untraced_wall, traced_wall, measure, csv_ms, closure;
  std::vector<TracedSweep> traced;
  const auto record = [&](TracedSweep t) {
    ledger.check(t.result.csv == first.csv, "traced sweep CSV differs from the first");
    traced_wall.push_back(t.wall_s);
    measure.push_back(t.measure_s);
    csv_ms.push_back(t.layers["dist.csv"] * 1e3);
    double outer = 0.0;
    for (const auto& [name, s] : t.layers) outer += s;
    closure.push_back(100.0 * outer / t.wall_s);
    traced.push_back(std::move(t));
  };
  const auto window = Clock::now();
  while (traced.size() < kMinSweeps || seconds_since(window) < seconds) {
    const bool ok =
        ledger.guard("untraced sweep", [&] {
          const sim::Executor pool(w.threads);
          const auto t0 = Clock::now();
          const SweepResult r = run_sweep(w, spec, pool);
          untraced_wall.push_back(seconds_since(t0));
          ledger.check(r.csv == first.csv, "repeated sweep CSV differs from the first");
        }) &&
        ledger.guard("traced sweep", [&] {
          obs::reset();
          obs::trace_start();
          TracedSweep t = traced_sweep(w, spec);
          (void)obs::trace_json();  // ends the session
          record(std::move(t));
        });
    if (!ok) break;
  }

  // The ledger session, written as the run's Chrome trace: the set-up
  // layers, one traced sweep (whose obs:: snapshot is the counter
  // ledger), and the kernel alone on one thread over exactly that
  // sweep's replications.
  std::vector<double> expand, reach, tables;
  KernelStats kernel;
  std::uint64_t kernel_events_counted = 0;
  obs::trace_start();
  ledger.guard("setup", [&] {
    for (const SetupTimes& t : repeat_setup(spec)) {
      expand.push_back(t.expand_s);
      reach.push_back(t.reach_s);
      tables.push_back(t.tables_s);
    }
  });
  ledger.guard("ledger sweep", [&] {
    obs::reset();
    record(traced_sweep(w, spec));
  });
  ledger.guard("kernel replay", [&] {
    const std::vector<std::uint64_t> counts =
        w.adaptive ? first.achieved
                   : std::vector<std::uint64_t>(spec.policies.size(), spec.replications);
    const std::uint64_t before = obs::snapshot().counter("campaign.events.executed");
    kernel = replay_kernel(spec, counts);
    kernel_events_counted = obs::snapshot().counter("campaign.events.executed") - before;
  });
  const std::string trace_json = obs::trace_json();
  if (traced.empty()) {
    emit(ledger, {});
    return 0;
  }
  const obs::Snapshot& snap = traced.back().snapshot;

  // Exact counts: the same in every traced sweep, and the kernel replay
  // executes exactly the events the sweep counted.
  for (const TracedSweep& t : traced) {
    for (const std::string_view name :
         {"campaign.events.executed", "core.context.reach_builds", "core.context.built",
          "codec.encode.accumulators.bytes"})
      ledger.check(t.snapshot.counter(name) == snap.counter(name),
                   std::string(name) + " differs between traced sweeps");
    ledger.check(t.result.rounds.size() == first.rounds.size(),
                 "adapt.rounds differs between sweeps");
    ledger.check(t.result.achieved == first.achieved, "achieved counts differ between sweeps");
  }
  ledger.check(kernel.reps == first.replications,
               "kernel replay covers a different replication count");
  ledger.check(kernel.events == snap.counter("campaign.events.executed"),
               "events_per_rep x reps != the sweep's campaign.events.executed");
  ledger.check(kernel.events == kernel_events_counted,
               "kernel replay events != its campaign.events.executed delta");

  check_output(w, spec, first, executor, ledger);

  ledger.guard("trace output", [&] {
    std::filesystem::create_directories(out_dir);
    const std::string stem = out_dir + "/" + w.name + "-seed" + std::to_string(spec.seed);
    std::ofstream(stem + ".trace.json") << trace_json;
    obs::write_metrics_file(stem + ".metrics.json", snap);
    std::printf("trace %s.trace.json, obs snapshot %s.metrics.json\n", stem.c_str(),
                stem.c_str());
  });
  std::printf("obs snapshot (ledger sweep):\n");
  for (const auto& c : snap.counters)
    std::printf("  counter %-34s %" PRIu64 "\n", c.name.c_str(), c.value);
  for (const auto& g : snap.gauges)
    std::printf("  gauge   %-34s %" PRIu64 "\n", g.name.c_str(), g.value);
  std::printf("closure (outer spans / sweep wall, %%) over %zu traced sweeps: min %.2f median %.2f\n",
              closure.size(), quantile(closure, 0.0), median(closure));

  std::vector<double> round_ms;
  for (const dist::RoundLog& r : first.rounds) round_ms.push_back(r.wall_ms + r.merge_ms);
  const double threads = static_cast<double>(w.threads);
  const double reps = static_cast<double>(first.replications);
  const double kernel_reps = static_cast<double>(std::max<std::uint64_t>(kernel.reps, 1));
  const double kernel_per_rep = kernel.kernel_s / kernel_reps;
  const double untraced = median(untraced_wall);
  const auto count = [&](std::string_view name) { return static_cast<double>(snap.counter(name)); };
  emit(ledger,
       {{"scenario.expand_ms", median(expand) * 1e3, "ms"},
        {"net.reach_build_ms", median(reach) * 1e3, "ms"},
        {"core.context.reach_builds", count("core.context.reach_builds"), "count"},
        {"attack.tables_build_ms", median(tables) * 1e3, "ms"},
        {"attack.kernel_us_per_rep", kernel_per_rep * 1e6, "us"},
        {"attack.events_per_rep", static_cast<double>(kernel.events) / kernel_reps, "count"},
        {"attack.kernel_ns_per_event",
         kernel.kernel_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(kernel.events, 1)), "ns"},
        {"core.fold_us_per_rep", kernel.fold_s * 1e6 / kernel_reps, "us"},
        {"core.measure_ms", median(measure) * 1e3, "ms"},
        {"core.kernel_share", kernel_per_rep * reps / (threads * median(measure)), "ratio"},
        {"core.context.built", count("core.context.built"), "count"},
        {"core.context.peak_live", static_cast<double>(snap.gauge("core.context.peak_live")), "count"},
        {"sim.executor.idle_share",
         count("sim.executor.idle_ns") / 1e9 / (threads * traced.back().measure_s), "ratio"},
        {"sim.executor.jobs", count("sim.executor.jobs"), "count"},
        {"sim.executor.chunks", count("sim.executor.chunks"), "count"},
        {"dist.encode_ms", count("codec.encode.ns") / 1e6, "ms"},
        {"dist.decode_ms", count("codec.decode.ns") / 1e6, "ms"},
        {"dist.state_bytes", count("codec.encode.accumulators.bytes"), "bytes"},
        {"dist.merge_ms", count("adapt.merge_ns") / 1e6, "ms"},
        {"dist.csv_ms", median(csv_ms), "ms"},
        {"adapt.rounds", static_cast<double>(first.rounds.size()), "count"},
        {"adapt.round_ms_p50", quantile(round_ms, 0.5), "ms"},
        {"adapt.round_ms_p90", quantile(round_ms, 0.9), "ms"},
        {"obs.trace_overhead_pct", 100.0 * (median(traced_wall) - untraced) / untraced, "%"},
        {"trace.closure_pct", median(closure), "%"}});
  return 0;
}

// ---- command line -----------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sweepbench: %s\nusage: sweepbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // The library's stderr heartbeat would interleave with the report.
  setenv("DIVSEC_PROGRESS", "0", 1);
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".bench_build/traces";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    try {
      if (flag == "--workload") workload = value;
      else if (flag == "--seed") seed = std::stoull(value);
      else if (flag == "--seconds") seconds = std::stod(value);
      else if (flag == "--trace") trace = std::stoi(value);
      else if (flag == "--out") out_dir = value;
      else usage(("unknown flag " + flag).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads)
    if (workload == candidate.name) w = &candidate;
  if (!w) usage("unknown or missing --workload");
  if (!(seconds > 0.0) || (trace != 0 && trace != 1)) usage("bad --seconds or --trace");

  return trace ? run_traced(*w, make_spec(*w, seed), seconds, out_dir)
               : run_end_to_end(*w, seed, seconds);
}
