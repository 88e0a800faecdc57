// indicators.h — the paper's security indicators and their estimators.
//
// Section II of the paper defines three indicators:
//  (i)  Time-To-Attack (TTA): "the time between the beginning and
//       completion of an attack";
//  (ii) Time-To-Security-Failure (TTSF, after Madan et al. DSN'02): "the
//       time between the beginning of the attack and the perceived attack
//       manifestation";
//  (iii) compromised ratio: "the number of compromised components at time
//       t with respect to the total number of components".
//
// Two measurement engines estimate them for a (description,
// configuration, threat) triple:
//  * kCampaign — the node-level network campaign simulator (slower,
//    produces all three indicators including c(t) curves);
//  * kStagedSan — the staged-attack SAN abstraction (fast; TTA/TTSF as
//    first-passage times; ratio degenerates to success indicator).
//
// MeasurementOptions fixes a replication budget per cell. Adaptive
// (variance-driven) allocation is not a measurement option: it is the
// dist::run_adaptive driver (dist/adaptive.h), which spends superblock
// tasks round by round through MeasurementEngine::measure_scenario_tasks.
#pragma once

#include <cstdint>
#include <vector>

#include "attack/san_model.h"
#include "attack/stages.h"
#include "core/configuration.h"
#include "stats/descriptive.h"
#include "stats/survival.h"

namespace divsec::sim {
class Executor;
}

namespace divsec::core {

enum class Engine { kCampaign, kStagedSan };

/// Per-replication raw indicator values. Censored times are recorded at
/// the horizon t_max (standard fixed-censoring convention; the censored
/// flags preserve the information).
struct IndicatorSample {
  double tta = 0.0;
  bool tta_censored = true;
  double ttsf = 0.0;
  bool ttsf_censored = true;
  bool attack_succeeded = false;
  double final_ratio = 0.0;  // campaign engine only
  /// Campaign engine: compromised-component counts sampled at the upper
  /// edges of the ratio-curve bin grid (survival_bins equal bins over
  /// [0, horizon]), in units of 1/ratio_scale where ratio_scale is the
  /// component count of the simulated system. Integer counts so the
  /// curve accumulator's merge stays exact. Empty for the SAN engine,
  /// which has no c(t) trajectory.
  std::vector<std::uint32_t> ratio_counts;
  std::uint64_t ratio_scale = 0;
};

/// Replication-aggregated indicator estimates for one configuration.
struct IndicatorSummary {
  std::size_t replications = 0;
  double horizon_hours = 0.0;

  stats::OnlineStats tta;   // censored values included at horizon
  std::size_t tta_censored = 0;
  stats::OnlineStats ttsf;
  std::size_t ttsf_censored = 0;
  stats::OnlineStats final_ratio;
  std::size_t successes = 0;

  /// Censoring-aware estimates of the event times (streaming
  /// product-limit restricted mean / median + t-digest quantile sketches).
  /// `tta.mean()` / `ttsf.mean()` silently average censored-at-horizon
  /// values — a downward-biased estimate under censoring; these are the
  /// unbiased companions to report next to them.
  stats::CensoredTimeSummary tta_event;
  stats::CensoredTimeSummary ttsf_event;

  /// Mean compromised-ratio curve c(t) at the upper edges of
  /// survival_bins equal bins over [0, horizon] (the anchor c(0) = 0 is
  /// implicit). Streamed by the per-cell curve accumulator — every sweep
  /// cell gets its curve for free, no re-simulation. Empty for the SAN
  /// engine. Query at arbitrary t with core::curve_value_at.
  std::vector<double> ratio_curve;

  [[nodiscard]] double attack_success_probability() const noexcept {
    return replications ? static_cast<double>(successes) /
                              static_cast<double>(replications)
                        : 0.0;
  }
  [[nodiscard]] double tta_censor_fraction() const noexcept {
    return replications ? static_cast<double>(tta_censored) /
                              static_cast<double>(replications)
                        : 0.0;
  }
  [[nodiscard]] double ttsf_censor_fraction() const noexcept {
    return replications ? static_cast<double>(ttsf_censored) /
                              static_cast<double>(replications)
                        : 0.0;
  }

  std::vector<IndicatorSample> samples;  // per replication, in order
};

struct MeasurementOptions {
  Engine engine = Engine::kCampaign;
  std::size_t replications = 100;
  std::uint64_t seed = 2013;  // DSN 2013
  attack::CampaignOptions campaign{};
  attack::DetectionModel detection{};
  /// Retain per-replication IndicatorSummary::samples. When off (and no
  /// cell visitor asks for samples), measurement runs on the streaming
  /// aggregation backend: per-cell accumulators fed by fixed-size
  /// replication blocks, O(cells + threads × block) memory instead of
  /// O(cells × replications). Summaries are bit-identical either way.
  bool keep_samples = true;
  /// Replications per aggregation block of the streaming backend. The
  /// block decomposition is part of the determinism contract (partial
  /// accumulators merge in ascending block order), so it is a fixed
  /// number — never derived from the thread count. 0 resolves to
  /// sim::kDefaultReductionBlock.
  std::size_t replication_block = 0;
  /// Replications per superblock — the distributable unit of the
  /// two-level streaming reduction (sim/shard_plan.h). Superblock
  /// partials merge in ascending order into each cell's result, so a
  /// sweep can be split across OS processes at superblock boundaries and
  /// merged back bit-identically. Like the block, it is part of the
  /// determinism contract: a fixed number, never derived from thread or
  /// shard counts; must be a multiple of the resolved block. 0 resolves
  /// to sim::kDefaultSuperblockReps (block-aligned).
  std::size_t superblock = 0;
  /// Bins of the streaming product-limit (survival) estimators over
  /// [0, horizon]; bounds the bias of the censor-aware restricted mean
  /// and median to one bin width.
  std::size_t survival_bins = 64;
  /// Executor for (cell × replication) jobs; null falls back to
  /// sim::Executor::shared() (DIVSEC_THREADS-sized). Non-owning.
  /// Note the deliberate asymmetry with the low-level controllers
  /// (sim::run_replications, san estimators), where a null executor
  /// means strictly serial: measurement is the top-level hot path and
  /// parallelizes by default; set DIVSEC_THREADS=1 or pass a 1-thread
  /// executor to force the serial path. Results are bit-identical either
  /// way, and a caller already running inside an executor job reuses its
  /// thread inline (no nested parallelism or deadlock).
  const sim::Executor* executor = nullptr;
};

/// Step-1 bridge: derive the staged attack model (per-stage success
/// probabilities and rates) for a concrete configuration. This is the
/// "Attack Modeling" output of the pipeline: the component variants
/// picked by `config` determine the probabilities, exactly as the paper
/// prescribes.
[[nodiscard]] attack::StagedAttackModel derive_staged_model(
    const SystemDescription& description, const Configuration& config,
    const attack::ThreatProfile& profile, const attack::DetectionModel& detection);

/// Measure all indicators for one configuration.
[[nodiscard]] IndicatorSummary measure_indicators(
    const SystemDescription& description, const Configuration& config,
    const attack::ThreatProfile& profile, const MeasurementOptions& options);

/// Statistical comparison of two configurations' indicator summaries:
/// is B actually safer than A, or is the difference noise?
struct IndicatorComparison {
  /// Two-proportion z-test on attack success counts (A vs B).
  stats::ProportionTest success;
  /// Welch t-tests on the (censored-at-horizon) indicator values.
  stats::WelchTest tta;
  stats::WelchTest ttsf;
  /// Convenience verdict at the given alpha: B has significantly lower
  /// attack success probability than A.
  [[nodiscard]] bool b_is_significantly_safer(double alpha = 0.05) const noexcept {
    return success.difference > 0.0 && success.p_value < alpha;
  }
};
[[nodiscard]] IndicatorComparison compare_indicators(const IndicatorSummary& a,
                                                     const IndicatorSummary& b);

/// Mean compromised-ratio curve over replications, sampled at the given
/// time grid (campaign engine only). Interpolated from the streamed
/// binned curve accumulator — no per-configuration re-simulation.
[[nodiscard]] std::vector<double> mean_compromised_ratio_curve(
    const SystemDescription& description, const Configuration& config,
    const attack::ThreatProfile& profile, const MeasurementOptions& options,
    const std::vector<double>& time_grid_hours);

}  // namespace divsec::core
