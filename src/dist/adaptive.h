// adaptive.h — the adaptive sweep driver.
//
// `divsec_sweep adapt` runs here: a multi-round loop that spends
// replications only where variance demands them. The sweep is expanded
// once per run (catalog, threat profile, plan, one MeasurementEngine).
// Each round measures the still-active cells' next superblock tasks in
// one engine call — one work queue, so every executor thread stays busy
// however few tasks a shard would hold; a round with fewer blocks than
// the pool can share splits them into slices — and the engine carries
// still-active cells' contexts (up to core::kCarriedContextsPerThread ×
// threads of them) and the reachability indexes they share from round
// to round, so a run pays for each index, and for each carried cell's
// tables, once rather than once per round. The driver then deals the
// round's partials to K shards by LPT over the cost model measured so
// far (round 1 is uniform) and pushes each shard's state through the
// state codec. The coordinator folds exactly the decoded bytes an OS process
// would have flushed, so the in-process loop and a real fleet share one
// transport and one validation path. It folds them into per-cell
// accumulators in ascending (cell, superblock) order, applies the
// shared stopping rule (sim/stopping.h via
// IndicatorAccumulator::precision_reached), and retires converged cells.
// The implementation lives in sweep.cpp, next to the shard runner it
// shares its packaging and summary helpers with.
//
// Reproducibility contract: the recorded per-cell achieved counts
// (SweepMeta::achieved) — not the round schedule — are the contract.
// Every cell's folded superblocks form an ascending prefix of its task
// list, so replaying exactly those counts (divsec_sweep run --replay)
// through any thread count and any shard cut reproduces the merged CSV
// byte for byte. The round log and termination rounds are provenance for
// `inspect`, never identity.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/sweep.h"
#include "sim/stopping.h"

namespace divsec::dist {

/// Variance-driven replication allocation (the sweep-level Law & Kelton
/// procedure). The sweep runs in superblock rounds: after each round
/// every active cell's streaming accumulator is tested against the CI
/// half-width rule (sim/stopping.h) and converged cells retire from the
/// task queue. Decisions land on superblock boundaries — the superblock
/// stays the distributable, replayable unit — so the recorded per-cell
/// achieved counts are always whole numbers of superblocks (or the
/// cell's final short superblock).
struct AdaptiveSweepOptions {
  /// Shards each round's partials are dealt to (LPT over measured cost)
  /// and pushed through the state codec as.
  std::size_t shards = 1;
  /// Per-indicator CI half-width targets at confidence_level, applied to
  /// the censored-at-horizon TTA/TTSF moments and the final compromised
  /// ratio; a cell retires when all three indicators meet either
  /// criterion (0 disables a criterion). The absolute floor is in ratio
  /// units for the compromised ratio and is scaled by the horizon for
  /// the time indicators (absolute_precision * horizon hours) so one
  /// knob covers all-censored cells whose relative rule never fires.
  double relative_precision = 0.05;
  double absolute_precision = 0.0;
  double confidence_level = 0.95;      // must lie in (0, 1)
  /// Replications before the rule may fire. 0 resolves to one superblock.
  std::size_t min_replications = 0;
  /// Hard cap per cell; 0 resolves to spec.replications (and is always
  /// clamped to it — the fixed budget provisions the task plan).
  std::size_t max_replications = 0;
  /// Replications added per round to each still-active cell; 0 resolves
  /// to one superblock, other values round up to superblock multiples.
  std::size_t round_replications = 0;
};

/// The whole-superblock schedule the options resolve to against a
/// concrete budget and superblock size.
struct AdaptiveSchedule {
  sim::StoppingRule rule;             // min/max resolved against the budget
  std::size_t first_superblocks = 1;  // superblocks per cell in round 1
  std::size_t round_superblocks = 1;  // superblocks per later round
};

[[nodiscard]] AdaptiveSchedule resolve_adaptive_schedule(
    const AdaptiveSweepOptions& options, std::size_t replications,
    std::size_t superblock);

/// What the driver produced: the merged result (meta.achieved records
/// where every cell stopped) plus the round-by-round provenance.
struct AdaptiveResult {
  SweepMeta meta;  // merged = true, achieved filled
  std::vector<core::IndicatorAccumulator> accumulators;  // one per cell
  std::vector<core::IndicatorSummary> summaries;         // one per cell
  CostModel cost;               // merged measured cost of the whole run
  std::vector<RoundLog> rounds;               // one per coordinator round
  std::vector<std::uint64_t> cell_rounds;     // termination round per cell
  std::uint64_t total_replications = 0;       // sum of achieved
  std::uint64_t budget_replications = 0;      // cells × spec.replications
};

/// Run the adaptive loop. spec.achieved must be empty (the run records
/// it); spec.replications is the per-cell budget cap. Throws
/// std::invalid_argument before any replication runs for zero shards, a
/// confidence level outside (0, 1), or when both precision criteria are
/// disabled. The executor runs every round's queue (null =
/// sim::Executor::shared()); results are bit-identical for any thread
/// count and any shard count.
[[nodiscard]] AdaptiveResult run_adaptive(
    const SweepSpec& spec, const AdaptiveSweepOptions& options,
    const sim::Executor* executor = nullptr);

/// The driver's result as a writable merged state (meta.achieved + round
/// log + termination rounds carried) — what `inspect` reads and
/// `run --replay` replays.
[[nodiscard]] ShardState adaptive_state(const AdaptiveResult& result);

}  // namespace divsec::dist
