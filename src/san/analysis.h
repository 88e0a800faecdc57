// analysis.h — transient (Monte-Carlo) solution of SAN reward models.
//
// Implements the three estimator families the security indicators need:
//  * instant-of-time: E[f(marking at time t)]
//  * interval-of-time: E[integral of rate reward over [0, t]] (and its
//    time average)
//  * first passage: distribution of the first time a predicate holds
//    (Time-To-Attack / Time-To-Security-Failure are first-passage times).
//
// All three families aggregate through the same streaming layer the
// measurement engine uses (sim::blocked_reduce over fixed-size
// replication blocks, merged in ascending block order), so they are
// bit-identical for any executor thread count.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "san/model.h"
#include "san/simulator.h"
#include "sim/replication.h"
#include "stats/survival.h"

namespace divsec::san {

// Every estimator takes a const model plus an explicit (seed, stream)
// replication scheme; passing an Executor parallelizes replications with
// bit-identical output (replication i always draws from stream i).

/// E[f(marking)] at simulated time t, by independent replications.
[[nodiscard]] sim::ReplicationResult instant_of_time(
    const SanModel& model, const std::function<double(const Marking&)>& f, double t,
    std::size_t replications, std::uint64_t seed,
    const sim::Executor* executor = nullptr);

/// E[time-average of rate(marking) over [0, t]].
[[nodiscard]] sim::ReplicationResult interval_of_time_average(
    const SanModel& model, const std::function<double(const Marking&)>& rate, double t,
    std::size_t replications, std::uint64_t seed,
    const sim::Executor* executor = nullptr);

/// First-passage study: per-replication absorption times, with censoring.
struct FirstPassageResult {
  std::vector<double> times;       // absorption times of uncensored runs
  std::size_t censored = 0;        // runs that never absorbed by t_max
  std::size_t replications = 0;
  double t_max = 0.0;
  /// Censoring-aware aggregate of the absorption time (streaming
  /// product-limit restricted mean / median + t-digest quantiles) — the
  /// unbiased companion to conditional_mean() under heavy censoring.
  stats::CensoredTimeSummary event_time;

  /// Fraction of replications absorbed by t_max: the empirical
  /// P[absorbed <= t_max] (e.g. the probability of a successful attack
  /// within the mission time).
  [[nodiscard]] double absorption_probability() const noexcept {
    return replications ? static_cast<double>(times.size()) /
                              static_cast<double>(replications)
                        : 0.0;
  }
  /// Mean over uncensored runs (conditional mean time to absorption).
  [[nodiscard]] double conditional_mean() const noexcept;
};

/// Bins of first_passage's streaming product-limit estimator.
inline constexpr std::size_t kFirstPassageSurvivalBins = 64;

[[nodiscard]] FirstPassageResult first_passage(const SanModel& model,
                                               const Predicate& absorbed, double t_max,
                                               std::size_t replications,
                                               std::uint64_t seed,
                                               const sim::Executor* executor = nullptr);

}  // namespace divsec::san
