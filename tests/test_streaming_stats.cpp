// Tests for the streaming aggregation stats: the binned product-limit
// StreamingSurvival and the CensoredTimeAccumulator (stats/survival.h;
// the t-digest inside it has its own tests). These are the building
// blocks of the measurement engine's streaming backend, so the properties
// under test are the backend's contracts: accuracy against the exact
// retained-sample estimators, exact merges for the binned state, and
// deterministic merges for the sketches.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/rng.h"
#include "stats/survival.h"

namespace divsec::stats {
namespace {

std::vector<double> exponential_sample(std::size_t n, double lambda,
                                       std::uint64_t seed) {
  Rng rng(seed);
  Distribution d(Exponential{lambda});
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(d.sample(rng));
  return out;
}

TEST(StreamingSurvival, MatchesKaplanMeierWithinBinWidth) {
  const double lambda = 0.5, horizon = 8.0;
  const auto raw = exponential_sample(20000, lambda, 7);
  StreamingSurvival stream(horizon, 128);
  std::vector<SurvivalObservation> obs;
  for (double t : raw) {
    const bool event = t <= horizon;
    stream.add(event ? t : horizon, event);
    obs.push_back({event ? t : horizon, event});
  }
  const KaplanMeier km(std::move(obs));
  const double width = horizon / 128.0;
  for (double t : {0.5, 1.0, 2.0, 4.0, 7.0})
    EXPECT_NEAR(stream.survival_at(t), km.survival_at(t), 0.02) << t;
  EXPECT_NEAR(stream.restricted_mean(), km.restricted_mean(horizon), 0.05);
  ASSERT_TRUE(stream.median().has_value());
  EXPECT_NEAR(*stream.median(), std::log(2.0) / lambda, 2.0 * width + 0.05);
}

TEST(StreamingSurvival, AllCensoredKeepsCurveAtOne) {
  StreamingSurvival s(10.0, 16);
  for (int i = 0; i < 50; ++i) s.add(10.0, /*event=*/false);
  EXPECT_EQ(s.event_count(), 0u);
  EXPECT_EQ(s.censored_count(), 50u);
  EXPECT_DOUBLE_EQ(s.survival_at(9.9), 1.0);
  EXPECT_FALSE(s.median().has_value());
  // No event ever observed: the censoring-aware mean is the horizon.
  EXPECT_DOUBLE_EQ(s.restricted_mean(), 10.0);
}

TEST(StreamingSurvival, MergeIsExact) {
  const auto raw = exponential_sample(5000, 1.0, 99);
  const double horizon = 4.0;
  StreamingSurvival whole(horizon, 64), left(horizon, 64), right(horizon, 64);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const double t = raw[i];
    const bool event = t <= horizon;
    whole.add(event ? t : horizon, event);
    (i < raw.size() / 2 ? left : right).add(event ? t : horizon, event);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_EQ(left.event_count(), whole.event_count());
  // Bin counts add: the merged curve is bit-identical, not just close.
  for (double t : {0.1, 0.7, 1.3, 2.9, 3.9})
    EXPECT_EQ(left.survival_at(t), whole.survival_at(t)) << t;
  EXPECT_EQ(left.restricted_mean(), whole.restricted_mean());
}

TEST(StreamingSurvival, Validation) {
  EXPECT_THROW(StreamingSurvival(0.0, 8), std::invalid_argument);
  EXPECT_THROW(StreamingSurvival(1.0, 0), std::invalid_argument);
  StreamingSurvival s(1.0, 8);
  EXPECT_THROW(s.add(-0.5, true), std::invalid_argument);
  EXPECT_THROW((void)s.quantile(0.0), std::invalid_argument);
  StreamingSurvival other(2.0, 8);
  other.add(1.0, true);
  EXPECT_THROW(s.merge(other), std::invalid_argument);
  // Default-constructed state adopts the first non-empty partner.
  StreamingSurvival empty;
  empty.merge(other);
  EXPECT_EQ(empty.count(), 1u);
}

TEST(CensoredTimeAccumulator, SummarizesMomentsAndSurvival) {
  const double horizon = 6.0, lambda = 1.0;
  const auto raw = exponential_sample(20000, lambda, 3);
  CensoredTimeAccumulator acc(horizon, 128);
  OnlineStats expect_moments;
  std::size_t expect_censored = 0;
  for (double t : raw) {
    const bool censored = t > horizon;
    const double v = censored ? horizon : t;
    acc.add(v, censored);
    expect_moments.add(v);
    if (censored) ++expect_censored;
  }
  const CensoredTimeSummary s = acc.summarize();
  EXPECT_EQ(s.observations, raw.size());
  EXPECT_EQ(s.censored, expect_censored);
  EXPECT_EQ(acc.moments().mean(), expect_moments.mean());
  EXPECT_EQ(acc.moments().variance(), expect_moments.variance());
  // The censoring-aware restricted mean recovers E[min(T, horizon)]
  // integral-of-survival form; the biased moments mean matches it here
  // because censored values are clamped, not dropped — but the KM median
  // must track the true distribution median.
  ASSERT_TRUE(s.median.has_value());
  EXPECT_NEAR(*s.median, std::log(2.0) / lambda, 0.1);
  EXPECT_NEAR(s.restricted_mean, (1.0 - std::exp(-lambda * horizon)) / lambda,
              0.05);
  EXPECT_NEAR(s.q50, std::log(2.0) / lambda, 0.05);
  EXPECT_NEAR(s.censor_fraction(), std::exp(-lambda * horizon), 0.01);
}

TEST(CensoredTimeAccumulator, EmptySummary) {
  const CensoredTimeSummary s = CensoredTimeAccumulator(5.0, 8).summarize();
  EXPECT_EQ(s.observations, 0u);
  EXPECT_FALSE(s.median.has_value());
  EXPECT_DOUBLE_EQ(s.censor_fraction(), 0.0);
}

}  // namespace
}  // namespace divsec::stats
