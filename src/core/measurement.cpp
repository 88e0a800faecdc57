#include "core/measurement.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/indicator_accumulator.h"
#include "net/reachability_index.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "san/simulator.h"
#include "sim/executor.h"
#include "sim/shard_plan.h"
#include "sim/streaming.h"

namespace divsec::core {

namespace {

/// Shared-context telemetry (replaces the old MeasurementOptions::
/// context_stats plumbing). Process-cumulative: tests and benches read
/// per-call deltas via obs::reset().
obs::Counter& contexts_built_counter() {
  static obs::Counter& c = obs::counter("core.context.built");
  return c;
}
obs::Gauge& contexts_peak_live_gauge() {
  static obs::Gauge& g = obs::gauge("core.context.peak_live");
  return g;
}
obs::Counter& reach_builds_counter() {
  static obs::Counter& c = obs::counter("core.context.reach_builds");
  return c;
}
obs::Counter& reach_dedup_counter() {
  static obs::Counter& c = obs::counter("core.context.reach_dedup_hits");
  return c;
}

/// Read-only per-cell state shared by that cell's replication jobs.
/// Exactly one of `campaign` / `san` is engaged, per the options' engine.
struct CellContext {
  std::optional<attack::CampaignSimulator> campaign;

  struct StagedSan {
    attack::AttackSan asan;
    san::Predicate terminal;
  };
  std::optional<StagedSan> san;
};

/// One (cell, replication) job. All randomness comes from `rng`, so the
/// sample depends only on (cell seed, replication index).
IndicatorSample run_job(const CellContext& ctx, double horizon,
                        std::size_t curve_bins, stats::Rng rng) {
  IndicatorSample s;
  if (ctx.campaign) {
    const attack::CampaignResult r = ctx.campaign->run(rng);
    s.tta = r.time_to_attack.value_or(horizon);
    s.tta_censored = !r.time_to_attack.has_value();
    s.ttsf = r.time_to_detection.value_or(horizon);
    s.ttsf_censored = !r.time_to_detection.has_value();
    s.attack_succeeded = r.attack_succeeded();
    s.final_ratio =
        r.compromised_ratio.empty() ? 0.0 : r.compromised_ratio.back().second;
    // Sample the replication's step curve at the curve-grid bin upper
    // edges as integer compromised-component counts (the recorded ratio
    // is count / node_count, so the llround recovers the count exactly);
    // the curve accumulator sums these exactly across any merge order.
    // One forward walk of the sorted curve against the ascending edges
    // takes, per edge, the last step with time <= edge — ratio_at's rule;
    // the count is rounded only when a bin crosses a new step.
    const std::size_t nodes = ctx.campaign->scenario().topology.node_count();
    s.ratio_scale = static_cast<std::uint64_t>(nodes);
    s.ratio_counts.resize(curve_bins);
    const auto& curve = r.compromised_ratio;
    std::size_t step = 0;
    std::uint32_t count = 0;
    for (std::size_t k = 0; k < curve_bins; ++k) {
      const double t = horizon * static_cast<double>(k + 1) /
                       static_cast<double>(curve_bins);
      const std::size_t first = step;
      while (step < curve.size() && curve[step].first <= t) ++step;
      if (step != first)
        count = static_cast<std::uint32_t>(std::llround(
            curve[step - 1].second * static_cast<double>(nodes)));
      s.ratio_counts[k] = count;
    }
  } else {
    san::SanSimulator sim(ctx.san->asan.model, rng);
    const auto t = sim.run_until_predicate(ctx.san->terminal, horizon);
    const bool succeeded = t && sim.tokens(ctx.san->asan.success_place) >= 1;
    const bool detected = t && sim.tokens(ctx.san->asan.detected_place) >= 1;
    s.tta = succeeded ? *t : horizon;
    s.tta_censored = !succeeded;
    s.ttsf = detected ? *t : horizon;
    s.ttsf_censored = !detected;
    s.attack_succeeded = succeeded;
    s.final_ratio = succeeded ? 1.0 : 0.0;
  }
  return s;
}

}  // namespace

/// The cells of one measure call: a configuration plan (instantiated
/// through the description) or explicit scenarios — exactly one span is
/// in use.
struct MeasurementEngine::PlanCells {
  std::span<const MeasurementCell> config;
  std::span<const ScenarioCell> scenario;

  [[nodiscard]] std::size_t size() const noexcept {
    return config.empty() ? scenario.size() : config.size();
  }
};

/// The one place cell contexts come from — every entry point (measure,
/// measure_scenarios, measure_scenario_tasks) goes through the engine's
/// factory, which run_tasks drives lazily, one cell at a time, as the
/// work queue first reaches each cell. It lives as long as the engine.
///
/// Campaign contexts from structurally identical topologies share one
/// net::ReachabilityIndex: the cache is keyed on the FULL structural
/// input (ReachabilityIndex::StructuralKey, compared on fingerprint
/// hits — a hash collision can cost a lookup, never alias an index).
/// Concurrent builders of the same key deduplicate through a
/// shared_future, so a fleet of same-topology cells pays the all-pairs
/// sweep exactly once.
///
/// Carried contexts: a call that stops short of a cell's final
/// superblock hands that cell's context back (at most
/// kCarriedContextsPerThread × threads of them), and the next call that
/// lists the cell again reuses it when its scenario compares equal in
/// full; the reach cache keeps its indexes only while a context is
/// carried. So dist::run_adaptive, whose rounds are successive calls on
/// one engine, builds each cell's context and each index once per run.
/// Construction consumes no randomness, so sharing, laziness and
/// carrying leave results bit-identical.
///
/// Thread-safe.
class MeasurementEngine::ContextFactory {
 public:
  ContextFactory(const SystemDescription* description,
                 const divers::VariantCatalog& catalog,
                 const attack::ThreatProfile& profile,
                 const MeasurementOptions& options)
      : description_(description),
        catalog_(&catalog),
        profile_(&profile),
        options_(options) {}

  /// Build cell c's context. Thread-safe (run_tasks builds each context
  /// on whichever worker first claims one of the cell's blocks).
  [[nodiscard]] std::unique_ptr<CellContext> build(const PlanCells& cells,
                                                   std::size_t c) {
    auto ctx = std::make_unique<CellContext>();
    if (options_.engine == Engine::kStagedSan) {
      auto& staged = ctx->san.emplace();
      staged.asan = attack::build_attack_san(
          derive_staged_model(*description_, cells.config[c].configuration,
                              *profile_, options_.detection));
      staged.terminal = staged.asan.terminal_predicate();
    } else {
      attack::Scenario sc = cells.scenario.empty()
                                ? description_->instantiate(
                                      cells.config[c].configuration)
                                : cells.scenario[c].scenario;
      auto reach = shared_reach(sc.topology, sc.firewall);
      ctx->campaign.emplace(std::move(sc), *profile_, *catalog_,
                            options_.detection, options_.campaign,
                            std::move(reach));
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++live_;
      peak_live_ = std::max(peak_live_, live_);
      contexts_peak_live_gauge().record_max(peak_live_);
    }
    contexts_built_counter().add(1);
    return ctx;
  }

  /// run_tasks reports each context it drops, so peak_live_ means what
  /// it says.
  void note_dropped() {
    const std::lock_guard<std::mutex> lock(mu_);
    --live_;
  }

  /// Start of a call: move the carried context of every listed cell whose
  /// scenario still compares equal into `slots`, drop the rest, and
  /// return how many were moved.
  std::size_t take_carried(const PlanCells& cells,
                           std::span<const char> listed,
                           std::vector<std::unique_ptr<CellContext>>& slots) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::size_t taken = 0;
    for (auto& [c, ctx] : carried_) {
      if (c < cells.size() && listed[c] && !slots[c] &&
          !cells.scenario.empty() &&
          ctx->campaign->scenario() == cells.scenario[c].scenario) {
        slots[c] = std::move(ctx);
        ++taken;
      } else {
        --live_;
      }
    }
    carried_.clear();
    return taken;
  }

  /// End of a call: carry the contexts left in `slots` (or drop them when
  /// `keep` is false, after a failed call). Without a carried context the
  /// reach cache releases its indexes, as a one-call cache would.
  void settle(std::vector<std::unique_ptr<CellContext>>& slots, bool keep) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t c = 0; c < slots.size(); ++c) {
      if (!slots[c]) continue;
      if (keep)
        carried_.emplace_back(c, std::move(slots[c]));
      else
        --live_;
      slots[c].reset();
    }
    if (carried_.empty()) reach_cache_.clear();
  }

 private:
  using IndexPtr = std::shared_ptr<const net::ReachabilityIndex>;

  [[nodiscard]] IndexPtr shared_reach(const net::Topology& topo,
                                      const net::Firewall& fw) {
    auto key = net::ReachabilityIndex::structural_key(topo, fw);
    const std::uint64_t fp = key.fingerprint();
    std::promise<IndexPtr> promise;
    std::shared_future<IndexPtr> future;
    bool builder = false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      auto& bucket = reach_cache_[fp];
      for (const auto& entry : bucket)
        if (entry.key == key) {
          future = entry.future;
          break;
        }
      if (!future.valid()) {
        future = promise.get_future().share();
        bucket.push_back(Entry{std::move(key), future});
        builder = true;
      }
    }
    if (builder)
      reach_builds_counter().add(1);
    else
      reach_dedup_counter().add(1);
    if (builder) {
      try {
        promise.set_value(std::make_shared<const net::ReachabilityIndex>(topo, fw));
      } catch (...) {
        promise.set_exception(std::current_exception());
      }
    }
    return future.get();
  }

  const SystemDescription* description_;  // null for scenario-sweep engines
  const divers::VariantCatalog* catalog_;
  const attack::ThreatProfile* profile_;
  const MeasurementOptions options_;

  struct Entry {
    net::ReachabilityIndex::StructuralKey key;
    std::shared_future<IndexPtr> future;
  };
  std::mutex mu_;
  std::unordered_map<std::uint64_t, std::vector<Entry>> reach_cache_;
  std::vector<std::pair<std::size_t, std::unique_ptr<CellContext>>> carried_;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
};

namespace {

void validate_options(const MeasurementOptions& options) {
  if (options.replications == 0)
    throw std::invalid_argument("MeasurementEngine: need >= 1 replication");
  if (!(options.campaign.t_max_hours > 0.0))
    throw std::invalid_argument(
        "MeasurementEngine: campaign.t_max_hours (the measurement horizon) "
        "must be > 0");
  if (options.survival_bins == 0)
    throw std::invalid_argument("MeasurementEngine: need >= 1 survival bin");
}

}  // namespace

MeasurementEngine::MeasurementEngine(const SystemDescription& description,
                                     const attack::ThreatProfile& profile,
                                     const MeasurementOptions& options)
    : description_(&description),
      catalog_(&description.catalog()),
      profile_(&profile),
      options_(options),
      executor_(options.executor ? options.executor : &sim::Executor::shared()),
      contexts_(std::make_unique<ContextFactory>(&description, *catalog_,
                                                 profile, options_)) {
  validate_options(options_);
}

MeasurementEngine::MeasurementEngine(const divers::VariantCatalog& catalog,
                                     const attack::ThreatProfile& profile,
                                     const MeasurementOptions& options)
    : description_(nullptr),
      catalog_(&catalog),
      profile_(&profile),
      options_(options),
      executor_(options.executor ? options.executor : &sim::Executor::shared()),
      contexts_(std::make_unique<ContextFactory>(nullptr, catalog, profile,
                                                 options_)) {
  validate_options(options_);
}

MeasurementEngine::~MeasurementEngine() = default;

sim::ShardPlan MeasurementEngine::shard_plan(std::size_t cells) const {
  return sim::ShardPlan::make(cells, options_.replications,
                              options_.replication_block, options_.superblock);
}

std::vector<IndicatorAccumulator> MeasurementEngine::run_tasks(
    const PlanCells& cells, std::span<const std::uint64_t> seeds,
    const sim::ShardPlan& shard, std::span<const std::uint64_t> tasks,
    std::vector<IndicatorSample>* samples,
    std::vector<double>* task_seconds) const {
  const obs::Span span("measure.tasks");
  const double horizon = options_.campaign.t_max_hours;
  const std::size_t reps = options_.replications;
  ContextFactory& factory = *contexts_;

  // Cell contexts are built on the first claim of any of the cell's
  // blocks (or carried in from the previous call) and released when the
  // last of its tasks in the list completes. Claims run in ascending
  // (task, block) order and the list is ascending, so only the cells
  // under in-flight blocks hold a context: O(threads) live, not one per
  // cell. A released cell whose last listed task is not its final
  // superblock is kept for the next call while fewer than the carry cap
  // are kept (carried-in contexts count until released), so at most
  // cap + O(threads) contexts are ever live.
  const std::size_t ncells = cells.size();
  std::vector<std::unique_ptr<CellContext>> slots(ncells);
  const std::unique_ptr<std::once_flag[]> built(new std::once_flag[ncells]);
  std::vector<std::atomic<std::size_t>> pending(ncells);  // tasks left per cell
  std::vector<char> listed(ncells, 0);
  std::vector<char> carry(ncells, 0);  // last listed task is not final
  std::uint64_t total_reps = 0;
  for (const std::uint64_t t : tasks) {
    const sim::ShardPlan::Task task = shard.task(t);
    pending[task.group].fetch_add(1, std::memory_order_relaxed);
    listed[task.group] = 1;
    carry[task.group] = !cells.scenario.empty() && task.end < shard.count();
    total_reps += task.end - task.begin;
  }
  const std::size_t carry_cap =
      kCarriedContextsPerThread * executor_->thread_count();
  std::vector<char> carried_in(ncells, 0);
  std::size_t kept = factory.take_carried(cells, listed, slots);
  for (std::size_t c = 0; c < ncells; ++c) carried_in[c] = slots[c] != nullptr;

  // Heartbeat over replications actually folded (throttled; silent for
  // short calls). Stderr only — never a byte of output data.
  std::mutex done_mu;  // guards kept, done_reps and the heartbeat
  obs::Heartbeat heartbeat("measure", total_reps);
  std::uint64_t done_reps = 0;

  if (task_seconds) task_seconds->assign(tasks.size(), 0.0);

  // One group per superblock task: its block partials merge in ascending
  // block order, so a task's partial depends only on (cell, superblock,
  // RNG contract) — not on the thread count, the claim order, or which
  // process runs it. Blocks past a cell's replication count bound-check
  // to empty samples (uniform task_span keeps the item space rectangular).
  const auto sample = [&](std::size_t g,
                          std::size_t i) -> std::optional<IndicatorSample> {
    const sim::ShardPlan::Task task = shard.task(tasks[g]);
    const std::size_t rep = task.begin + i;
    if (rep >= task.end) return std::nullopt;
    std::call_once(built[task.group], [&] {
      if (slots[task.group]) return;
      const obs::Span build_span("context.build");
      slots[task.group] = factory.build(cells, task.group);
    });
    IndicatorSample s =
        run_job(*slots[task.group], horizon, options_.survival_bins,
                stats::Rng(seeds[task.group], rep));
    if (samples) (*samples)[task.group * reps + rep] = s;
    return s;
  };
  const auto add = [](IndicatorAccumulator& a,
                      std::optional<IndicatorSample>&& s) {
    if (s) a.add(*s);
  };
  const auto done = [&](std::size_t g, double seconds) {
    if (task_seconds) (*task_seconds)[g] = seconds;
    const sim::ShardPlan::Task task = shard.task(tasks[g]);
    const std::size_t c = task.group;
    const bool last =
        pending[c].fetch_sub(1, std::memory_order_acq_rel) == 1;
    const std::lock_guard<std::mutex> lock(done_mu);
    if (last && slots[c]) {
      if (carried_in[c]) --kept;
      if (carry[c] && kept < carry_cap) {
        ++kept;
      } else {
        slots[c].reset();
        factory.note_dropped();
      }
    }
    done_reps += task.end - task.begin;
    heartbeat.tick(done_reps);
  };
  std::vector<IndicatorAccumulator> out;
  try {
    out = sim::reduce_groups<IndicatorAccumulator>(
        *executor_, tasks.size(), shard.task_span(), shard.block(),
        [&](std::size_t) {
          return IndicatorAccumulator(horizon, options_.survival_bins);
        },
        sample, add, done);
  } catch (...) {
    factory.settle(slots, /*keep=*/false);
    throw;
  }
  factory.settle(slots, /*keep=*/true);
  heartbeat.finish(done_reps);
  return out;
}

std::vector<IndicatorSummary> MeasurementEngine::run_cells(
    const PlanCells& plan_cells, std::span<const std::uint64_t> seeds,
    const CellVisitor& visit) const {
  const std::size_t cells = plan_cells.size();
  const std::size_t reps = options_.replications;
  const double horizon = options_.campaign.t_max_hours;
  const auto make = [&](std::size_t) {
    return IndicatorAccumulator(horizon, options_.survival_bins);
  };

  // The in-process path is the K = 1 instance of the distributed plan:
  // every superblock task of every cell runs here, then the exact
  // reducer folds task partials in ascending (cell, superblock) order —
  // the identical code path and merge sequence divsec_sweep uses across
  // OS processes, and bit-identical for any DIVSEC_THREADS. Streaming
  // (the default with keep_samples off and no visitor) keeps memory at
  // O(cells + threads × block); the retain-everything path additionally
  // stores each sample into the (cell × replication) matrix the visitor
  // contract and keep_samples hand out, with the identical fold sequence.
  const bool retain = options_.keep_samples || static_cast<bool>(visit);
  std::vector<IndicatorSample> samples(retain ? cells * reps : 0);
  const sim::ShardPlan plan = shard_plan(cells);
  std::vector<std::uint64_t> all_tasks(plan.task_count());
  for (std::size_t t = 0; t < all_tasks.size(); ++t) all_tasks[t] = t;
  std::vector<IndicatorAccumulator> partials =
      run_tasks(plan_cells, seeds, plan, all_tasks,
                retain ? &samples : nullptr, /*task_seconds=*/nullptr);
  std::vector<IndicatorAccumulator> acc =
      sim::reduce_task_partials(plan, std::move(partials), make);

  std::vector<IndicatorSummary> out(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    out[c] = acc[c].summarize();
    out[c].replications = reps;
    out[c].horizon_hours = horizon;
    if (!retain) continue;
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(c * reps);
    if (visit) visit(c, std::span<const IndicatorSample>(&*first, reps));
    if (options_.keep_samples)
      out[c].samples.assign(first, first + static_cast<std::ptrdiff_t>(reps));
  }
  return out;
}

std::vector<IndicatorSummary> MeasurementEngine::measure(
    const MeasurementPlan& plan, const CellVisitor& visit) const {
  if (!description_)
    throw std::logic_error(
        "MeasurementEngine::measure: engine was built without a "
        "SystemDescription (scenario-sweep-only)");
  const std::size_t cells = plan.cell_count();
  std::vector<std::uint64_t> seeds(cells);
  for (std::size_t c = 0; c < cells; ++c) seeds[c] = plan.cells[c].seed;
  return run_cells(PlanCells{plan.cells, {}}, seeds, visit);
}

std::vector<IndicatorSummary> MeasurementEngine::measure_scenarios(
    const ScenarioSweepPlan& plan, const CellVisitor& visit) const {
  if (options_.engine != Engine::kCampaign)
    throw std::invalid_argument(
        "measure_scenarios: requires the campaign engine");
  const std::size_t cells = plan.cell_count();
  std::vector<std::uint64_t> seeds(cells);
  for (std::size_t c = 0; c < cells; ++c) seeds[c] = plan.cells[c].seed;
  return run_cells(PlanCells{{}, plan.cells}, seeds, visit);
}

std::vector<IndicatorAccumulator> MeasurementEngine::measure_scenario_tasks(
    const ScenarioSweepPlan& plan, const sim::ShardPlan& shard,
    std::span<const std::uint64_t> tasks,
    std::vector<double>* task_seconds) const {
  if (options_.engine != Engine::kCampaign)
    throw std::invalid_argument(
        "measure_scenario_tasks: requires the campaign engine");
  const sim::ShardPlan expected = shard_plan(plan.cell_count());
  if (shard.groups() != expected.groups() ||
      shard.count() != expected.count() ||
      shard.block() != expected.block() ||
      shard.superblock() != expected.superblock())
    throw std::invalid_argument(
        "measure_scenario_tasks: shard plan does not match the sweep "
        "plan/options (cells, replications, block, and superblock must all "
        "agree or partials will not merge bit-identically)");
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (tasks[t] >= shard.task_count())
      throw std::out_of_range("measure_scenario_tasks: task outside the plan");
    if (t > 0 && tasks[t] <= tasks[t - 1])
      throw std::invalid_argument(
          "measure_scenario_tasks: task list must be strictly ascending");
  }
  if (tasks.empty()) {
    if (task_seconds) task_seconds->clear();
    return {};
  }

  // Contexts are built lazily inside run_tasks, so only the cells this
  // task list touches — a handful at a time — ever get a campaign
  // context; shard processes of a huge sweep never pay for the whole
  // fleet's scenarios or reachability indexes.
  std::vector<std::uint64_t> seeds(plan.cell_count());
  for (std::size_t c = 0; c < plan.cell_count(); ++c)
    seeds[c] = plan.cells[c].seed;
  return run_tasks(PlanCells{{}, plan.cells}, seeds, shard, tasks,
                   /*samples=*/nullptr, task_seconds);
}

IndicatorSummary MeasurementEngine::measure_one(const Configuration& config) const {
  MeasurementPlan plan;
  plan.cells.push_back({config, options_.seed});
  return std::move(measure(plan).front());
}

std::vector<double> MeasurementEngine::mean_ratio_curve(
    const Configuration& config, const std::vector<double>& time_grid_hours) const {
  if (!description_)
    throw std::logic_error(
        "MeasurementEngine::mean_ratio_curve: engine was built without a "
        "SystemDescription (scenario-sweep-only)");
  if (options_.engine != Engine::kCampaign)
    throw std::invalid_argument(
        "mean_ratio_curve: requires the campaign engine");
  // The per-cell curve accumulator already streams the binned mean curve
  // through the standard measurement reduction — run the cell once
  // (streaming, no retained samples) and interpolate the bin-edge means
  // onto the requested grid. This retired the per-configuration
  // re-simulation pass: the curve shares the measurement's replications,
  // its (cell seed, rep) RNG contract, and the reduction's determinism
  // (bit-identical for any DIVSEC_THREADS).
  MeasurementOptions opts = options_;
  opts.keep_samples = false;
  opts.executor = executor_;
  const MeasurementEngine streaming(*description_, *profile_, opts);
  const IndicatorSummary summary = streaming.measure_one(config);
  std::vector<double> out(time_grid_hours.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = curve_value_at(summary.ratio_curve, summary.horizon_hours,
                            time_grid_hours[i]);
  return out;
}

}  // namespace divsec::core
