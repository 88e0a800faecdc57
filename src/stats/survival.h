// survival.h — censoring-aware estimation for event-time data.
//
// Time-To-Attack and Time-To-Security-Failure samples are right-censored
// at the simulation horizon (an undetected / unfinished run tells us only
// that the event time exceeds the horizon). Averaging censored-at-horizon
// values biases the mean down; the product-limit estimator handles
// censoring correctly and yields survival curves, median survival, and
// restricted mean survival time — the right summary statistics for E3/E4.
//
// Two estimators share that math:
//  * KaplanMeier        — exact product-limit over a retained sample
//    (step per distinct event time);
//  * StreamingSurvival  — binned product-limit over a fixed grid on
//    [0, horizon], O(bins) memory, with an exact merge (bin counts add),
//    built for the streaming measurement backend where samples are never
//    materialized.
//
// CensoredTimeAccumulator bundles StreamingSurvival with Welford moments
// and a mergeable t-digest of the censored-at-horizon values: the one
// per-indicator aggregation state shared by the campaign measurement
// engine and the SAN first-passage estimators. The digest's merge is
// deterministic in merge order and stays within its accuracy bound under
// the deep superblock × shard × round merge trees
// (tests/test_p2_accuracy.cpp checks it against exact quantiles).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "stats/descriptive.h"
#include "stats/tdigest.h"

namespace divsec::stats {

/// One observation: time of event, or time of censoring.
struct SurvivalObservation {
  double time = 0.0;
  bool event = true;  // false = right-censored at `time`
};

/// A step of the Kaplan-Meier curve: S(t) drops to `survival` at `time`.
struct KaplanMeierStep {
  double time = 0.0;
  double survival = 1.0;
  std::size_t at_risk = 0;
  std::size_t events = 0;
};

class KaplanMeier {
 public:
  /// Builds the product-limit estimate. Observations need not be sorted.
  explicit KaplanMeier(std::vector<SurvivalObservation> observations);

  [[nodiscard]] const std::vector<KaplanMeierStep>& steps() const noexcept {
    return steps_;
  }

  /// S(t): probability the event has not occurred by time t.
  [[nodiscard]] double survival_at(double t) const noexcept;

  /// Smallest event time with S(t) <= 1 - q (e.g. q = 0.5 -> median);
  /// nullopt when the curve never drops that far (heavy censoring).
  [[nodiscard]] std::optional<double> quantile(double q) const;

  /// Median survival time (sugar for quantile(0.5)).
  [[nodiscard]] std::optional<double> median() const { return quantile(0.5); }

  /// Restricted mean survival time: integral of S(t) over [0, tau]
  /// (the standard horizon-limited mean under censoring).
  [[nodiscard]] double restricted_mean(double tau) const;

  [[nodiscard]] std::size_t observation_count() const noexcept { return n_; }
  [[nodiscard]] std::size_t event_count() const noexcept { return events_; }
  [[nodiscard]] std::size_t censored_count() const noexcept { return n_ - events_; }

 private:
  std::vector<KaplanMeierStep> steps_;
  std::size_t n_ = 0;
  std::size_t events_ = 0;
};

/// Streaming product-limit estimator on a fixed binned grid over
/// [0, horizon]. Observations bucket into `bins` equal-width bins (events
/// past the horizon clamp into the last bin; censorings at or past the
/// horizon stay at risk through every bin); the survival curve treats a
/// bin's events as occurring at its upper edge, so estimates converge to
/// Kaplan-Meier as bins grow, with bias bounded by one bin width.
/// merge() adds bin counts — exact and order-independent — which is what
/// makes blocked parallel reduction of survival state deterministic.
class StreamingSurvival {
 public:
  /// The complete internal state, exposed for the distributed-sweep
  /// serialization layer. `censored_in` has bins + 1 entries (index bins
  /// = censored at/past the horizon); both vectors are empty for the
  /// default-constructed mergeable empty state. from_state(state())
  /// restores the estimator exactly.
  struct State {
    double horizon = 0.0;
    std::size_t n = 0;
    std::size_t events = 0;
    std::vector<std::uint64_t> events_in;
    std::vector<std::uint64_t> censored_in;
  };

  /// Mergeable empty state (adopts the first non-empty merge partner).
  StreamingSurvival() = default;
  /// horizon > 0, bins >= 1 (std::invalid_argument otherwise).
  StreamingSurvival(double horizon, std::size_t bins);

  [[nodiscard]] State state() const;
  /// Restores from exported state; validates bin-array shapes and count
  /// consistency (sum of event bins == events, sum of censor bins ==
  /// n - events) and throws std::invalid_argument on corrupt state.
  [[nodiscard]] static StreamingSurvival from_state(const State& s);

  /// Record one observation: `event` false means right-censored at `time`.
  void add(double time, bool event);
  /// Requires identical (horizon, bins) unless one side is empty.
  void merge(const StreamingSurvival& other);

  [[nodiscard]] double horizon() const noexcept { return horizon_; }
  [[nodiscard]] std::size_t bins() const noexcept { return events_in_.size(); }
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] std::size_t event_count() const noexcept { return events_; }
  [[nodiscard]] std::size_t censored_count() const noexcept { return n_ - events_; }

  /// Survival entering each bin of the product-limit curve (size
  /// bins() + 1; front() == 1, back() == the post-horizon plateau).
  /// O(bins) per call: evaluate once and query against it when walking a
  /// time grid.
  [[nodiscard]] std::vector<double> survival_curve() const;

  /// S(t) of the binned product-limit curve (step at bin upper edges).
  /// The one-argument conveniences recompute the curve per call; the
  /// curve-taking overloads query a precomputed survival_curve().
  [[nodiscard]] double survival_at(double t) const;
  [[nodiscard]] double survival_at(double t,
                                   std::span<const double> curve) const noexcept;
  /// Smallest bin upper edge with S <= 1 - q; nullopt when censoring
  /// keeps the curve above that level. q in (0,1).
  [[nodiscard]] std::optional<double> quantile(double q) const;
  [[nodiscard]] std::optional<double> quantile(double q,
                                               std::span<const double> curve) const;
  [[nodiscard]] std::optional<double> median() const { return quantile(0.5); }
  /// Integral of S(t) over [0, horizon] — the censoring-aware mean.
  [[nodiscard]] double restricted_mean() const;
  [[nodiscard]] double restricted_mean(std::span<const double> curve) const noexcept;

 private:
  double horizon_ = 0.0;
  std::size_t n_ = 0;
  std::size_t events_ = 0;
  std::vector<std::uint64_t> events_in_;    // per bin
  std::vector<std::uint64_t> censored_in_;  // per bin, index bins() = at horizon
};

/// Aggregated censoring-aware view of one time indicator.
struct CensoredTimeSummary {
  std::size_t observations = 0;
  std::size_t censored = 0;
  /// Product-limit restricted mean over [0, horizon] — the censoring-aware
  /// replacement for the biased censored-at-horizon mean.
  double restricted_mean = 0.0;
  /// Product-limit median; nullopt when censoring keeps S(t) above 0.5.
  std::optional<double> median;
  /// t-digest quantiles of the censored-at-horizon values (the same
  /// distribution the biased mean summarizes; reported alongside for
  /// context).
  double q50 = 0.0;
  double q90 = 0.0;

  [[nodiscard]] double censor_fraction() const noexcept {
    return observations ? static_cast<double>(censored) /
                              static_cast<double>(observations)
                        : 0.0;
  }
};

/// The streaming aggregation state of one censored time indicator:
/// Welford moments of the censored-at-horizon values, censor count, one
/// t-digest quantile sketch, and the binned product-limit curve. add()
/// is amortized O(1); merge() combines block partials (exact for
/// moments, counts and survival bins; the digest merge is deterministic
/// given a fixed merge order and does not accumulate bias under deep
/// merge trees). Shared by
/// core::IndicatorAccumulator (TTA/TTSF) and the SAN first-passage
/// estimator.
class CensoredTimeAccumulator {
 public:
  /// Compression of the bundled t-digest — one digest serves every
  /// reported quantile (q50, q90, ...).
  static constexpr double kSketchCompression = 100.0;

  /// Composite state of the bundled estimators, exposed for the
  /// distributed-sweep serialization layer. from_state(state()) restores
  /// the accumulator exactly.
  struct State {
    OnlineStats::State moments;
    std::size_t censored = 0;
    TDigest::State times;
    StreamingSurvival::State survival;
  };

  CensoredTimeAccumulator() = default;  // mergeable empty state
  CensoredTimeAccumulator(double horizon, std::size_t bins);

  [[nodiscard]] State state() const;
  /// Restores from exported state; validates the constituents (the
  /// digest must use kSketchCompression and count exactly the
  /// observations the moments saw, the censor count cannot exceed the
  /// observation count) and throws std::invalid_argument otherwise.
  [[nodiscard]] static CensoredTimeAccumulator from_state(const State& s);

  /// `time` is the censored-at-horizon value; `censored` true when the
  /// event did not occur by the horizon.
  void add(double time, bool censored);
  void merge(const CensoredTimeAccumulator& other);

  /// Moments of the censored-at-horizon values (the biased estimator —
  /// kept because ANOVA cells and legacy reports are defined on it).
  [[nodiscard]] const OnlineStats& moments() const noexcept { return moments_; }
  [[nodiscard]] std::size_t censored() const noexcept { return censored_; }
  [[nodiscard]] const StreamingSurvival& survival() const noexcept {
    return survival_;
  }
  /// The t-digest of the censored-at-horizon values (any quantile, not
  /// just the q50/q90 the summary reports).
  [[nodiscard]] const TDigest& times() const noexcept { return times_; }
  [[nodiscard]] CensoredTimeSummary summarize() const;

 private:
  OnlineStats moments_;
  std::size_t censored_ = 0;
  TDigest times_{kSketchCompression};
  StreamingSurvival survival_;
};

}  // namespace divsec::stats
