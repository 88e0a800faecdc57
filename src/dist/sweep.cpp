#include "dist/sweep.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "attack/threat.h"
#include "core/report.h"
#include "dist/adaptive.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "scenario/presets.h"
#include "sim/executor.h"
#include "stats/rng.h"
#include "util/json.h"

namespace divsec::dist {

namespace {

/// Wall-clock milliseconds of one call.
template <typename F>
double timed_ms(const F& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

std::vector<core::IndicatorSummary> summarize_cells(
    const SweepMeta& meta, const std::vector<core::IndicatorAccumulator>& acc) {
  // Mirrors the engine's reassembly exactly so merged summaries are
  // field-for-field identical to the in-process path (run_cells for
  // fixed budgets, run_adaptive for recorded counts — the achieved list
  // feeds replications-derived columns like success_prob).
  std::vector<core::IndicatorSummary> out(acc.size());
  for (std::size_t c = 0; c < acc.size(); ++c) {
    out[c] = acc[c].summarize();
    out[c].replications = meta.achieved.empty()
                              ? meta.replications
                              : static_cast<std::size_t>(meta.achieved[c]);
    out[c].horizon_hours = meta.horizon_hours;
  }
  return out;
}

/// Package computed superblock partials as one shard's state. `tasks`
/// (ascending) is a subset of `computed`, the ascending list `partials`
/// and `seconds` run parallel to. Each task ships its partial's exact
/// state, and its fold time lands in the state's per-cell cost model —
/// the measurement feed of `divsec_sweep plan --weights` and of the
/// adaptive LPT deal.
ShardState package_shard(const SweepMeta& meta, const sim::ShardPlan& plan,
                         std::span<const std::uint64_t> tasks,
                         std::span<const std::uint64_t> computed,
                         std::span<const core::IndicatorAccumulator> partials,
                         std::span<const double> seconds) {
  ShardState state;
  state.meta = meta;
  state.tasks.assign(tasks.begin(), tasks.end());
  state.partials.reserve(tasks.size());
  state.cost.cells.assign(meta.cells, CellCost{});
  for (const std::uint64_t t : tasks) {
    const auto i = static_cast<std::size_t>(
        std::lower_bound(computed.begin(), computed.end(), t) -
        computed.begin());
    state.partials.push_back(partials[i].state());
    const sim::ShardPlan::Task task = plan.task(t);
    CellCost& cell = state.cost.cells[task.group];
    cell.replications += task.end - task.begin;
    cell.seconds += seconds[i];
  }
  return state;
}

/// A merged result as a state file: one "task" per cell carrying the
/// cell's folded accumulator.
ShardState cells_state(const SweepMeta& meta,
                       const std::vector<core::IndicatorAccumulator>& acc,
                       const CostModel& cost) {
  ShardState state;
  state.meta = meta;
  state.meta.merged = true;
  state.tasks.resize(acc.size());
  for (std::size_t c = 0; c < state.tasks.size(); ++c) state.tasks[c] = c;
  state.partials.reserve(acc.size());
  for (const auto& a : acc) state.partials.push_back(a.state());
  state.cost = cost;
  return state;
}

/// Adaptive-loop telemetry: one add per round, nothing per replication.
struct AdaptCounters {
  obs::Counter& rounds = obs::counter("adapt.rounds");
  obs::Counter& cells_retired = obs::counter("adapt.cells_retired");
  obs::Counter& round_tasks = obs::counter("adapt.round_tasks");
  obs::Counter& round_replications = obs::counter("adapt.round_replications");
  obs::Counter& merge_ns = obs::counter("adapt.merge_ns");
  obs::Histogram& deal_tasks = obs::histogram("adapt.deal_tasks");

  static const AdaptCounters& instance() {
    static const AdaptCounters counters;
    return counters;
  }
};

}  // namespace

sim::ShardPlan sweep_shard_plan(const SweepMeta& meta) {
  return sim::ShardPlan::make(meta.cells, meta.replications,
                              meta.replication_block, meta.superblock);
}

std::vector<std::uint64_t> achieved_tasks(const SweepMeta& meta) {
  const sim::ShardPlan plan = sweep_shard_plan(meta);
  const std::size_t per_group = plan.superblocks_per_group();
  std::vector<std::uint64_t> tasks;
  if (meta.achieved.empty()) {
    tasks.resize(plan.task_count());
    for (std::size_t t = 0; t < tasks.size(); ++t) tasks[t] = t;
    return tasks;
  }
  if (meta.achieved.size() != meta.cells)
    throw std::invalid_argument(
        "achieved_tasks: achieved-count list must have one entry per cell");
  for (std::size_t c = 0; c < meta.cells; ++c) {
    const std::uint64_t needed =
        (meta.achieved[c] + meta.superblock - 1) / meta.superblock;
    for (std::uint64_t s = 0; s < needed; ++s)
      tasks.push_back(c * per_group + s);
  }
  return tasks;
}

SweepMeta make_meta(const SweepSpec& spec) {
  if (spec.policies.empty())
    throw std::invalid_argument("sweep: need at least one policy arm");
  // Canonicalize the preset and threat spellings before they enter the
  // meta block: the fingerprint hashes these strings, so "brownfield"
  // and its expanded familyv1 form must land on identical bytes.
  std::string preset;
  try {
    preset = scenario::resolve_preset_name(spec.preset);
  } catch (const std::out_of_range& e) {
    throw std::invalid_argument("sweep: " + std::string(e.what()));
  }
  SweepMeta meta;
  meta.preset = std::move(preset);
  meta.policies = spec.policies;
  meta.threat = attack::canonical_threat_spec(spec.threat);
  meta.seed = spec.seed;
  meta.replications = spec.replications;
  const sim::ShardPlan plan =
      sim::ShardPlan::make(spec.policies.size(), spec.replications,
                           spec.replication_block, spec.superblock);
  meta.replication_block = plan.block();
  meta.superblock = plan.superblock();
  meta.survival_bins = spec.survival_bins;
  meta.horizon_hours = spec.horizon_hours > 0.0
                           ? spec.horizon_hours
                           : attack::CampaignOptions{}.t_max_hours;
  meta.cells = spec.policies.size();
  if (!spec.achieved.empty()) {
    if (spec.achieved.size() != spec.policies.size())
      throw std::invalid_argument(
          "sweep: achieved-count list must have one entry per cell");
    for (const std::uint64_t a : spec.achieved)
      if (a == 0 || a > spec.replications)
        throw std::invalid_argument(
            "sweep: achieved replications outside (0, budget]");
    meta.achieved = spec.achieved;
  }
  meta.threads = static_cast<std::uint32_t>(sim::Executor::default_thread_count());
  return meta;
}

SweepSpec spec_from_meta(const SweepMeta& meta) {
  SweepSpec spec;
  spec.preset = meta.preset;
  spec.policies = meta.policies;
  spec.threat = meta.threat;
  spec.seed = meta.seed;
  spec.replications = meta.replications;
  spec.replication_block = meta.replication_block;
  spec.superblock = meta.superblock;
  spec.survival_bins = meta.survival_bins;
  spec.horizon_hours = meta.horizon_hours;
  spec.achieved = meta.achieved;
  return spec;
}

attack::ThreatProfile threat_profile(const std::string& name) {
  return attack::threat_profile_from_spec(name);
}

core::ScenarioSweepPlan expand_plan(const SweepSpec& spec,
                                    const divers::VariantCatalog& catalog) {
  core::ScenarioSweepPlan plan;
  std::uint64_t sm = spec.seed;  // iterated SplitMix64 seed chain
  for (const auto policy : spec.policies) {
    core::ScenarioCell cell;
    cell.scenario =
        scenario::make_preset(spec.preset, catalog, spec.seed, policy).scenario;
    cell.seed = stats::splitmix64(sm);
    plan.cells.push_back(std::move(cell));
  }
  return plan;
}

std::vector<std::string> cell_names(const SweepSpec& spec) {
  std::vector<std::string> names;
  names.reserve(spec.policies.size());
  for (const auto policy : spec.policies)
    names.emplace_back(scenario::to_string(policy));
  return names;
}

core::MeasurementOptions sweep_options(const SweepSpec& spec,
                                       const sim::Executor* executor) {
  core::MeasurementOptions mo;
  mo.engine = core::Engine::kCampaign;
  mo.replications = spec.replications;
  mo.seed = spec.seed;
  mo.keep_samples = false;  // the streaming path, always
  mo.replication_block = spec.replication_block;
  mo.superblock = spec.superblock;
  mo.survival_bins = spec.survival_bins;
  if (spec.horizon_hours > 0.0) mo.campaign.t_max_hours = spec.horizon_hours;
  mo.executor = executor;
  return mo;
}

ShardState run_shard(const SweepSpec& spec, std::size_t shard,
                     std::size_t shard_count, const sim::Executor* executor) {
  const sim::ShardPlan plan = sweep_shard_plan(make_meta(spec));
  const auto [lo, hi] = plan.shard_range(shard, shard_count);
  std::vector<std::uint64_t> tasks(hi - lo);
  for (std::size_t t = 0; t < tasks.size(); ++t) tasks[t] = lo + t;
  return run_shard_tasks(spec, std::move(tasks), shard, shard_count, executor);
}

ShardState run_shard_tasks(const SweepSpec& spec,
                           std::vector<std::uint64_t> tasks, std::size_t shard,
                           std::size_t shard_count,
                           const sim::Executor* executor) {
  SweepMeta meta = make_meta(spec);
  meta.shard = shard;
  meta.shard_count = shard_count;
  if (executor)
    meta.threads = static_cast<std::uint32_t>(executor->thread_count());
  const sim::ShardPlan plan = sweep_shard_plan(meta);

  ShardState state;
  const double wall_ms = timed_ms([&] {
    const divers::VariantCatalog catalog =
        divers::VariantCatalog::standard(spec.seed);
    const attack::ThreatProfile profile = threat_profile(spec.threat);
    const core::MeasurementOptions options = sweep_options(spec, executor);
    const core::MeasurementEngine engine(catalog, profile, options);
    const core::ScenarioSweepPlan sweep = expand_plan(spec, catalog);
    std::vector<double> task_seconds;
    const std::vector<core::IndicatorAccumulator> partials =
        engine.measure_scenario_tasks(sweep, plan, tasks, &task_seconds);
    state = package_shard(meta, plan, tasks, tasks, partials, task_seconds);
  });
  state.meta.wall_ms = wall_ms;
  return state;
}

std::vector<core::IndicatorSummary> run_in_process(
    const SweepSpec& spec, const sim::Executor* executor) {
  const divers::VariantCatalog catalog =
      divers::VariantCatalog::standard(spec.seed);
  const attack::ThreatProfile profile = threat_profile(spec.threat);
  const core::MeasurementOptions options = sweep_options(spec, executor);
  const core::MeasurementEngine engine(catalog, profile, options);
  return engine.measure_scenarios(expand_plan(spec, catalog));
}

AdaptiveSchedule resolve_adaptive_schedule(const AdaptiveSweepOptions& options,
                                           std::size_t replications,
                                           std::size_t superblock) {
  AdaptiveSchedule s;
  s.rule.confidence_level = options.confidence_level;
  s.rule.relative_precision = options.relative_precision;
  s.rule.absolute_precision = options.absolute_precision;
  const std::size_t min_reps =
      options.min_replications
          ? std::min(options.min_replications, replications)
          : std::min(superblock, replications);
  const std::size_t max_reps =
      options.max_replications
          ? std::min(options.max_replications, replications)
          : replications;
  s.rule.min_replications = min_reps;
  s.rule.max_replications = std::max(max_reps, min_reps);
  const std::size_t round_reps =
      options.round_replications ? options.round_replications : superblock;
  s.first_superblocks =
      std::max<std::size_t>(1, (min_reps + superblock - 1) / superblock);
  s.round_superblocks =
      std::max<std::size_t>(1, (round_reps + superblock - 1) / superblock);
  return s;
}

AdaptiveResult run_adaptive(const SweepSpec& spec,
                            const AdaptiveSweepOptions& options,
                            const sim::Executor* executor) {
  if (options.shards == 0)
    throw std::invalid_argument("run_adaptive: need >= 1 shard");
  if (!spec.achieved.empty())
    throw std::invalid_argument(
        "run_adaptive: spec already carries achieved counts (that is a "
        "replay input, not an adaptive-run input)");
  if (!(options.relative_precision > 0.0) &&
      !(options.absolute_precision > 0.0))
    throw std::invalid_argument(
        "run_adaptive: need relative_precision or absolute_precision > 0 "
        "(otherwise no cell can ever converge)");
  if (!(options.confidence_level > 0.0 && options.confidence_level < 1.0))
    throw std::invalid_argument(
        "run_adaptive: confidence_level must be in (0, 1)");

  AdaptiveResult result;
  result.meta = make_meta(spec);
  SweepMeta& meta = result.meta;
  const sim::ShardPlan plan = sweep_shard_plan(meta);
  const std::size_t per_group = plan.superblocks_per_group();
  const std::size_t cells = meta.cells;
  const AdaptiveSchedule sched = resolve_adaptive_schedule(
      options, static_cast<std::size_t>(meta.replications),
      static_cast<std::size_t>(meta.superblock));

  std::vector<core::IndicatorAccumulator> acc(cells);
  std::vector<bool> has(cells, false);
  std::vector<std::size_t> folded_sb(cells, 0);
  std::vector<std::uint64_t> achieved(cells, 0);
  result.cell_rounds.assign(cells, 0);
  std::vector<std::size_t> active(cells);
  for (std::size_t c = 0; c < cells; ++c) active[c] = c;

  std::uint64_t round = 0;
  std::vector<std::uint64_t> tasks;
  std::vector<double> task_seconds;
  std::vector<std::size_t> still;
  const AdaptCounters& counters = AdaptCounters::instance();
  meta.wall_ms = timed_ms([&] {
    // Expand once per run, as run_in_process does: every round measures
    // through this one engine.
    const divers::VariantCatalog catalog =
        divers::VariantCatalog::standard(spec.seed);
    const attack::ThreatProfile profile = threat_profile(spec.threat);
    const core::MeasurementEngine engine(catalog, profile,
                                         sweep_options(spec, executor));
    const core::ScenarioSweepPlan sweep = expand_plan(spec, catalog);

    while (!active.empty()) {
      const obs::Span round_span("adapt.round");
      ++round;
      const std::size_t take =
          round == 1 ? sched.first_superblocks : sched.round_superblocks;
      tasks.clear();
      std::uint64_t round_reps = 0;
      for (const std::size_t c : active) {
        const std::size_t end = std::min(per_group, folded_sb[c] + take);
        for (std::size_t s = folded_sb[c]; s < end; ++s) {
          const std::uint64_t t = static_cast<std::uint64_t>(c * per_group + s);
          tasks.push_back(t);
          const sim::ShardPlan::Task span = plan.task(t);
          round_reps += span.end - span.begin;
        }
      }

      // The round's tasks — ascending in (cell, superblock) — run as one
      // queue, so the executor's threads share every block of the round.
      std::vector<core::IndicatorAccumulator> partials;
      const double measure_ms = timed_ms([&] {
        partials = engine.measure_scenario_tasks(sweep, plan, tasks,
                                                 &task_seconds);
      });

      // Deal the round's partials by LPT over the cost measured so far
      // (round 1 has no measurements yet — sec_per_rep falls back to
      // uniform, so the deal degenerates to a balanced one) and push each
      // shard's state through the codec: the coordinator consumes exactly
      // the bytes an OS process would have flushed, so the in-process
      // loop and a real fleet share one transport and one validation path.
      const std::vector<std::vector<std::uint64_t>> deal =
          cost_weighted_assignment(plan, result.cost, options.shards, tasks);
      std::vector<std::string> flushed;
      flushed.reserve(deal.size());
      for (std::size_t i = 0; i < deal.size(); ++i) {
        if (deal[i].empty()) continue;
        const obs::Span shard_span("adapt.shard");
        counters.deal_tasks.observe(deal[i].size());
        SweepMeta shard_meta = meta;
        shard_meta.shard = i;
        shard_meta.shard_count = options.shards;
        flushed.push_back(encode_shard_state(package_shard(
            shard_meta, plan, deal[i], tasks, partials, task_seconds)));
      }
      partials.clear();

      // Fold the round's partials in ascending (cell, superblock) order —
      // the first partial of a cell becomes its accumulator, later ones
      // merge into it: the identical left-fold merge_shards performs on a
      // replay, hence bit-identical summaries.
      const double merge_ms = timed_ms([&] {
        const obs::Span merge_span("adapt.merge");
        std::vector<std::pair<std::uint64_t, core::IndicatorAccumulator>>
            parts;
        parts.reserve(tasks.size());
        for (const std::string& bytes : flushed) {
          ShardState state = decode_shard_state(bytes);
          if (sweep_fingerprint(state.meta) != sweep_fingerprint(meta))
            throw std::logic_error(
                "run_adaptive: shard state fingerprint drifted");
          for (std::size_t i = 0; i < state.tasks.size(); ++i)
            parts.emplace_back(state.tasks[i],
                               core::IndicatorAccumulator::from_state(
                                   state.partials[i]));
          result.cost.merge(state.cost);
        }
        std::sort(parts.begin(), parts.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        for (auto& [t, partial] : parts) {
          const std::size_t c = static_cast<std::size_t>(t) / per_group;
          if (!has[c]) {
            acc[c] = std::move(partial);
            has[c] = true;
          } else {
            acc[c].merge(partial);
          }
        }
      });

      still.clear();
      for (const std::size_t c : active) {
        folded_sb[c] = std::min(per_group, folded_sb[c] + take);
        achieved[c] = acc[c].count();
        const bool capped = folded_sb[c] >= per_group ||
                            achieved[c] >= sched.rule.max_replications;
        const bool converged = achieved[c] >= sched.rule.min_replications &&
                               acc[c].precision_reached(sched.rule);
        if (capped || converged)
          result.cell_rounds[c] = round;
        else
          still.push_back(c);
      }
      result.rounds.push_back(
          RoundLog{round, static_cast<std::uint64_t>(active.size()),
                   static_cast<std::uint64_t>(tasks.size()), round_reps,
                   measure_ms, merge_ms});

      const std::size_t retired = active.size() - still.size();
      counters.rounds.add(1);
      counters.cells_retired.add(retired);
      counters.round_tasks.add(tasks.size());
      counters.round_replications.add(round_reps);
      counters.merge_ns.add(
          static_cast<std::uint64_t>(std::llround(merge_ms * 1e6)));
      // One summary line per round is the operator's convergence view
      // (stderr only — never a byte of CSV/state output).
      obs::progress_line("adapt round %" PRIu64
                         ": retired %zu, active %zu, measure %.2fs, "
                         "merge %.1f ms",
                         round, retired, still.size(), measure_ms / 1000.0,
                         merge_ms);
      active.swap(still);
    }
  });

  meta.achieved = achieved;
  meta.merged = true;
  meta.shard = 0;
  meta.shard_count = options.shards;
  if (executor)
    meta.threads = static_cast<std::uint32_t>(executor->thread_count());
  result.summaries = summarize_cells(meta, acc);
  for (const std::uint64_t a : achieved) result.total_replications += a;
  result.budget_replications = meta.cells * meta.replications;
  result.accumulators = std::move(acc);
  return result;
}

ShardState adaptive_state(const AdaptiveResult& result) {
  ShardState state =
      cells_state(result.meta, result.accumulators, result.cost);
  state.rounds = result.rounds;
  state.cell_rounds = result.cell_rounds;
  return state;
}

MergeResult merge_shards(const std::vector<ShardState>& states) {
  if (states.empty())
    throw std::invalid_argument("merge_shards: no shard states");
  const std::uint64_t fingerprint = sweep_fingerprint(states.front().meta);
  for (const auto& s : states) {
    if (s.meta.merged)
      throw std::invalid_argument(
          "merge_shards: input is already a merged state");
    if (sweep_fingerprint(s.meta) != fingerprint)
      throw std::invalid_argument(
          "merge_shards: shard states come from different sweeps "
          "(fingerprint mismatch)");
  }

  const SweepMeta& meta = states.front().meta;
  const sim::ShardPlan plan = sweep_shard_plan(meta);
  const std::size_t tasks = plan.task_count();

  // Exact coverage of the sweep's task set: every task of the full plan
  // for fixed budgets, each cell's achieved prefix for adaptive sweeps —
  // exactly once, none foreign. Task lists need not be contiguous
  // (cost-weighted plans are not); only the union matters.
  const std::vector<std::uint64_t> expect = achieved_tasks(meta);
  std::vector<char> expected(tasks, 0);
  for (const std::uint64_t t : expect) expected[t] = 1;
  std::vector<const core::IndicatorAccumulator::State*> slots(tasks, nullptr);
  for (const auto& s : states) {
    if (s.partials.size() != s.tasks.size())
      throw std::invalid_argument(
          "merge_shards: partial count != task list size");
    for (std::size_t i = 0; i < s.tasks.size(); ++i) {
      const std::uint64_t t = s.tasks[i];
      if (t >= tasks || !expected[t])
        throw std::invalid_argument(
            "merge_shards: task " + std::to_string(t) +
            " outside the sweep's task set");
      if (slots[t])
        throw std::invalid_argument(
            "merge_shards: task " + std::to_string(t) +
            " appears in more than one shard state");
      slots[t] = &s.partials[i];
    }
  }
  for (const std::uint64_t t : expect)
    if (!slots[t])
      throw std::invalid_argument("merge_shards: task " + std::to_string(t) +
                                  " is missing (incomplete shard set)");

  // Restore and fold each cell's covered prefix in ascending (cell,
  // superblock) order — the same left-fold the in-process reducer
  // performs (sim::reduce_task_partials: the first partial becomes the
  // accumulator, later ones merge into it).
  const std::size_t per_group = plan.superblocks_per_group();
  MergeResult out;
  out.accumulators.reserve(meta.cells);
  for (std::size_t c = 0; c < meta.cells; ++c) {
    const std::size_t needed =
        meta.achieved.empty()
            ? per_group
            : static_cast<std::size_t>((meta.achieved[c] + meta.superblock - 1) /
                                       meta.superblock);
    core::IndicatorAccumulator acc =
        core::IndicatorAccumulator::from_state(*slots[c * per_group]);
    for (std::size_t s = 1; s < needed; ++s)
      acc.merge(core::IndicatorAccumulator::from_state(*slots[c * per_group + s]));
    out.accumulators.push_back(std::move(acc));
  }
  out.summaries = summarize_cells(meta, out.accumulators);
  out.meta = meta;
  out.meta.shard = 0;
  out.meta.shard_count = states.size();  // provenance: shards reduced
  out.meta.merged = true;
  for (const auto& s : states) out.cost.merge(s.cost);
  return out;
}

ShardState merged_state(const MergeResult& merged) {
  return cells_state(merged.meta, merged.accumulators, merged.cost);
}

std::vector<core::IndicatorSummary> summaries_from_merged(
    const ShardState& merged) {
  if (!merged.meta.merged)
    throw std::invalid_argument(
        "summaries_from_merged: state file is an unmerged shard (run "
        "divsec_sweep merge first)");
  if (merged.partials.size() != merged.meta.cells)
    throw std::invalid_argument(
        "summaries_from_merged: cell count mismatch in merged state");
  std::vector<core::IndicatorAccumulator> acc;
  acc.reserve(merged.partials.size());
  for (const auto& p : merged.partials)
    acc.push_back(core::IndicatorAccumulator::from_state(p));
  return summarize_cells(merged.meta, acc);
}

std::string sweep_csv(const SweepMeta& meta,
                      const std::vector<core::IndicatorSummary>& cells) {
  core::MeasurementTable table;
  stats::Factor factor;
  factor.name = "policy";
  for (const auto policy : meta.policies)
    factor.levels.emplace_back(scenario::to_string(policy));
  table.space = stats::FactorSpace({std::move(factor)});
  table.configurations.resize(cells.size());
  table.summaries = cells;
  return core::measurement_csv(table);
}

std::string summary_json(const SweepMeta& meta,
                         const std::vector<core::IndicatorSummary>& cells) {
  using util::json_number_exact;
  using util::json_string;
  std::string out = "{\"sweep\": " + meta_json(meta) + ", \"cells\": [\n";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const core::IndicatorSummary& s = cells[c];
    const auto median = [&](const std::optional<double>& m) {
      return m ? json_number_exact(*m) : std::string("null");
    };
    const std::string name =
        c < meta.policies.size()
            ? std::string(scenario::to_string(meta.policies[c]))
            : "cell" + std::to_string(c);
    out += "  {\"cell\": " + json_string(name) +
           ", \"replications\": " + std::to_string(s.replications) +
           ", \"success_prob\": " +
           json_number_exact(s.attack_success_probability()) +
           ", \"tta_mean\": " + json_number_exact(s.tta.mean()) +
           ", \"tta_censored\": " + std::to_string(s.tta_censored) +
           ", \"tta_rmean\": " + json_number_exact(s.tta_event.restricted_mean) +
           ", \"tta_median\": " + median(s.tta_event.median) +
           ", \"ttsf_mean\": " + json_number_exact(s.ttsf.mean()) +
           ", \"ttsf_censored\": " + std::to_string(s.ttsf_censored) +
           ", \"ttsf_rmean\": " +
           json_number_exact(s.ttsf_event.restricted_mean) +
           ", \"ttsf_median\": " + median(s.ttsf_event.median) +
           ", \"final_ratio_mean\": " + json_number_exact(s.final_ratio.mean()) +
           "}";
    out += c + 1 < cells.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace divsec::dist
