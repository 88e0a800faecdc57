// Tests for stats/tdigest.h (the mergeable quantile sketch behind
// CensoredTimeAccumulator's q50/q90) and core/ratio_curve.h (the binned
// compromised-ratio curve accumulator). Both are exact-merge citizens:
// deterministic merges, exact state round-trips, and validation that
// rejects structurally impossible restores.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/ratio_curve.h"
#include "stats/rng.h"
#include "stats/tdigest.h"

namespace divsec::stats {
namespace {

std::vector<double> exponential_sample(std::uint64_t seed, std::size_t n,
                                       double scale) {
  Rng rng(seed);
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    v.push_back(-scale * std::log1p(-rng.uniform()));
  return v;
}

double exact_quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double rank = q * (static_cast<double>(v.size()) - 1.0);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

TEST(TDigest, ExactForFewObservations) {
  TDigest d(100.0);
  for (const double v : {3.0, 1.0, 2.0}) d.add(v);
  EXPECT_EQ(d.count(), 3u);
  EXPECT_EQ(d.quantile(0.0), 1.0);
  EXPECT_EQ(d.quantile(1.0), 3.0);
  EXPECT_EQ(d.min(), 1.0);
  EXPECT_EQ(d.max(), 3.0);
  EXPECT_NEAR(d.quantile(0.5), 2.0, 1e-12);
}

TEST(TDigest, TracksStreamQuantilesAcrossTheRange) {
  // Pure one-value-at-a-time insertion is the sketch's worst case (the
  // greedy compaction sees each observation alone); measured drift on
  // this stream is ~2-3% at the interior quantiles. The production path
  // never does this — block partials merge through the reduction tree,
  // and that shape is held to <= 1% by the SketchAccuracyAudit suite.
  const std::vector<double> values = exponential_sample(11, 50000, 10.0);
  TDigest d(100.0);
  for (const double v : values) d.add(v);
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double exact = exact_quantile(values, q);
    EXPECT_NEAR(d.quantile(q), exact, 0.03 * exact) << "q=" << q;
  }
  // Interior compression keeps centroid counts bounded by the scale
  // function budget, not the stream length.
  EXPECT_LT(d.centroid_count(), 2.0 * d.compression());
}

TEST(TDigest, MergeIsDeterministicAndOrderStable) {
  // Same merge tree twice -> bit-identical state. That is the contract
  // the distributed reducer's ascending (cell, superblock) fold relies
  // on: any fixed merge order reproduces bits, every time.
  const std::vector<double> values = exponential_sample(3, 8192, 5.0);
  const auto build = [&values]() {
    std::vector<TDigest> partials;
    for (std::size_t b = 0; b < values.size(); b += 256) {
      TDigest p(100.0);
      for (std::size_t i = b; i < std::min(values.size(), b + 256); ++i)
        p.add(values[i]);
      partials.push_back(p);
    }
    TDigest total(100.0);
    for (const TDigest& p : partials) total.merge(p);
    return total;
  };
  const TDigest a = build();
  const TDigest b = build();
  const TDigest::State sa = a.state();
  const TDigest::State sb = b.state();
  ASSERT_EQ(sa.centroids.size(), sb.centroids.size());
  for (std::size_t i = 0; i < sa.centroids.size(); ++i) {
    EXPECT_EQ(sa.centroids[i].mean, sb.centroids[i].mean);
    EXPECT_EQ(sa.centroids[i].weight, sb.centroids[i].weight);
  }
}

TEST(TDigest, StateRoundTripIsExactAndKeepsBehaving) {
  const std::vector<double> values = exponential_sample(17, 4096, 20.0);
  TDigest d(100.0);
  for (const double v : values) d.add(v);

  TDigest restored = TDigest::from_state(d.state());
  EXPECT_EQ(restored.count(), d.count());
  EXPECT_EQ(restored.quantile(0.5), d.quantile(0.5));
  EXPECT_EQ(restored.quantile(0.9), d.quantile(0.9));

  // No hidden buffer: the restored sketch must keep folding identically.
  TDigest more(100.0);
  for (const double v : exponential_sample(18, 1000, 20.0)) more.add(v);
  d.merge(more);
  restored.merge(more);
  EXPECT_EQ(restored.quantile(0.5), d.quantile(0.5));
  EXPECT_EQ(restored.quantile(0.9), d.quantile(0.9));
  const TDigest::State sa = d.state();
  const TDigest::State sb = restored.state();
  ASSERT_EQ(sa.centroids.size(), sb.centroids.size());
  for (std::size_t i = 0; i < sa.centroids.size(); ++i)
    EXPECT_EQ(sa.centroids[i].mean, sb.centroids[i].mean);
}

TEST(TDigest, CompressIsIdempotent) {
  // compress(compress(x)) == compress(x): a restored-from-state sketch
  // never re-compacts differently from the one that wrote the state.
  TDigest d(20.0);
  for (const double v : exponential_sample(5, 2000, 1.0)) d.add(v);
  d.compress();
  const TDigest::State once = d.state();
  d.compress();
  const TDigest::State twice = d.state();
  ASSERT_EQ(once.centroids.size(), twice.centroids.size());
  for (std::size_t i = 0; i < once.centroids.size(); ++i) {
    EXPECT_EQ(once.centroids[i].mean, twice.centroids[i].mean);
    EXPECT_EQ(once.centroids[i].weight, twice.centroids[i].weight);
  }
}

TEST(TDigest, EmptyAndMergeEdgeCases) {
  TDigest empty(100.0);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  TDigest one(100.0);
  one.add(7.0);
  TDigest target(100.0);
  target.merge(empty);  // no-op
  EXPECT_EQ(target.count(), 0u);
  target.merge(one);  // adopt
  EXPECT_EQ(target.count(), 1u);
  EXPECT_EQ(target.quantile(0.5), 7.0);
}

TEST(TDigest, Validation) {
  EXPECT_THROW(TDigest(1.0), std::invalid_argument);   // below minimum
  EXPECT_THROW(TDigest(0.0 / 0.0), std::invalid_argument);
  TDigest d(100.0);
  EXPECT_THROW(d.add(std::nan("")), std::invalid_argument);
  d.add(1.0);
  EXPECT_THROW((void)d.quantile(1.5), std::invalid_argument);
  TDigest other(50.0);
  other.add(2.0);
  EXPECT_THROW(d.merge(other), std::invalid_argument);  // compression mismatch

  TDigest::State bad = d.state();
  bad.centroids[0].weight = 0;
  EXPECT_THROW((void)TDigest::from_state(bad), std::invalid_argument);
  bad = d.state();
  bad.min = 5.0;  // min above the centroid means
  EXPECT_THROW((void)TDigest::from_state(bad), std::invalid_argument);
  bad = d.state();
  bad.compression = 2.0;
  EXPECT_THROW((void)TDigest::from_state(bad), std::invalid_argument);
}

}  // namespace
}  // namespace divsec::stats

namespace divsec::core {
namespace {

TEST(RatioCurveAccumulator, MeanCurveAveragesTrajectories) {
  RatioCurveAccumulator acc(10.0, 5);
  // Two trajectories over 8 nodes: counts at bin upper edges.
  acc.add(std::vector<std::uint32_t>{0, 2, 4, 4, 8}, 8);
  acc.add(std::vector<std::uint32_t>{2, 2, 4, 8, 8}, 8);
  EXPECT_EQ(acc.count(), 2u);
  const std::vector<double> mean = acc.mean_curve();
  ASSERT_EQ(mean.size(), 5u);
  EXPECT_EQ(mean[0], (0.0 + 2.0) / (2.0 * 8.0));
  EXPECT_EQ(mean[1], (2.0 + 2.0) / (2.0 * 8.0));
  EXPECT_EQ(mean[4], 1.0);
}

TEST(RatioCurveAccumulator, MergeIsExactAndOrderIndependent) {
  stats::Rng rng(99);
  const auto fill = [&rng](RatioCurveAccumulator& acc, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<std::uint32_t> counts(16);
      std::uint32_t c = 0;
      for (auto& v : counts) {
        c = std::min<std::uint32_t>(
            64, c + static_cast<std::uint32_t>(rng.below(8)));
        v = c;
      }
      acc.add(counts, 64);
    }
  };
  RatioCurveAccumulator whole(100.0, 16), a(100.0, 16), b(100.0, 16);
  fill(whole, 30);
  rng = stats::Rng(99);
  fill(a, 18);
  fill(b, 12);
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_EQ(a.sums(), whole.sums());  // integer sums: merge is exact
  EXPECT_EQ(a.mean_curve(), whole.mean_curve());
}

TEST(RatioCurveAccumulator, EmptyMergeAdoptsAndStateRoundTrips) {
  RatioCurveAccumulator filled(10.0, 4);
  filled.add(std::vector<std::uint32_t>{1, 2, 3, 4}, 4);

  RatioCurveAccumulator mergeable;  // default: adopt-on-merge
  mergeable.merge(filled);
  EXPECT_EQ(mergeable.count(), 1u);
  EXPECT_EQ(mergeable.mean_curve(), filled.mean_curve());

  const RatioCurveAccumulator restored =
      RatioCurveAccumulator::from_state(filled.state());
  EXPECT_EQ(restored.sums(), filled.sums());
  EXPECT_EQ(restored.scale(), filled.scale());
  EXPECT_EQ(restored.mean_curve(), filled.mean_curve());
}

TEST(RatioCurveAccumulator, Validation) {
  RatioCurveAccumulator acc(10.0, 4);
  EXPECT_THROW(acc.add(std::vector<std::uint32_t>{1, 2}, 4),
               std::invalid_argument);  // bin mismatch
  EXPECT_THROW(acc.add(std::vector<std::uint32_t>{1, 2, 3, 4}, 0),
               std::invalid_argument);  // zero scale
  acc.add(std::vector<std::uint32_t>{1, 2, 3, 4}, 4);
  EXPECT_THROW(acc.add(std::vector<std::uint32_t>{1, 2, 3, 4}, 8),
               std::invalid_argument);  // scale change mid-stream

  RatioCurveAccumulator other(20.0, 4);
  other.add(std::vector<std::uint32_t>{1, 1, 1, 1}, 4);
  EXPECT_THROW(acc.merge(other), std::invalid_argument);  // grid mismatch

  RatioCurveAccumulator::State bad = acc.state();
  bad.sums[0] = bad.n * bad.scale + 1;  // ratio above 1 is impossible
  EXPECT_THROW((void)RatioCurveAccumulator::from_state(bad),
               std::invalid_argument);
}

TEST(RatioCurve, ValueAtInterpolatesFromImplicitZero) {
  // curve = mean c(t) at upper edges of 4 bins over t in (0, 8].
  const std::vector<double> curve = {0.1, 0.3, 0.3, 0.5};
  EXPECT_EQ(curve_value_at(curve, 8.0, 0.0), 0.0);
  EXPECT_NEAR(curve_value_at(curve, 8.0, 1.0), 0.05, 1e-15);
  EXPECT_EQ(curve_value_at(curve, 8.0, 2.0), 0.1);
  EXPECT_NEAR(curve_value_at(curve, 8.0, 3.0), 0.2, 1e-15);
  EXPECT_EQ(curve_value_at(curve, 8.0, 8.0), 0.5);
  EXPECT_EQ(curve_value_at(curve, 8.0, 100.0), 0.5);  // clamped past horizon
}

}  // namespace
}  // namespace divsec::core
