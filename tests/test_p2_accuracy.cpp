// Sketch accuracy audit of the production quantile backend: the
// streaming engine reports TTA/TTSF q50/q90 from mergeable t-digests
// folded per block and merged in ascending order — at fleet scale that
// is hundreds of merges, so merge drift is what decides whether the
// columns are load-bearing. This audit runs a deep merge tree
// (256-blocks into 16384-superblocks, superblocks dealt round-robin to
// shards, shards merged in ascending order — the two-level reduction of
// sim::reduce_groups + sim::reduce_task_partials plus the
// cross-process merge) on three event-time-like regimes, at 10^5
// observations, against the exact type-7 quantile; the 10^6-rep variant
// is the gtest equivalent of a Catch2 [.][slow] tag — DISABLED_ by
// default, runnable with --gtest_also_run_disabled_tests (nightly does).
//
// Measured verdict: the t-digest holds <= 1% on every regime, every
// quantile, through the full deep-merge tree —
// including the bimodal fast/slow mixture, the shape on which a
// pooled-CDF marker merge (the retired P² sketch) drifted +23%.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/rng.h"
#include "stats/tdigest.h"

namespace divsec::stats {
namespace {

enum class Regime { kExponential, kBimodalMixture, kCensoredExponential };

double draw(Regime regime, Rng& rng) {
  switch (regime) {
    case Regime::kExponential:
      return -10.0 * std::log1p(-rng.uniform());
    case Regime::kBimodalMixture:
      // Mostly fast events with a detached heavy slow mode — the shape
      // marker-based sketch merges handle worst.
      return rng.bernoulli(0.7) ? -10.0 * std::log1p(-rng.uniform())
                                : 50.0 - 100.0 * std::log1p(-rng.uniform());
    case Regime::kCensoredExponential:
      // Event times clamped at a horizon, like censored TTA samples.
      return std::min(-30.0 * std::log1p(-rng.uniform()), 100.0);
  }
  return 0.0;
}

/// Exact type-7 quantile of a sample.
double exact_quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double rank = q * (static_cast<double>(v.size()) - 1.0);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double w = rank - static_cast<double>(lo);
  return v[lo] + w * (v[hi] - v[lo]);
}

/// The t-digest through the full distributed tree: block partials merged
/// into superblock digests, superblock digests dealt round-robin across
/// `shards` shard digests (what each divsec_sweep process accumulates
/// over its rounds), shard digests merged in ascending shard order (the
/// coordinator's fold). Three merge levels — deeper than production,
/// never shallower.
TDigest deep_merged_digest(const std::vector<double>& values,
                           std::size_t block, std::size_t superblock,
                           std::size_t shards) {
  std::vector<TDigest> shard_digests(shards, TDigest(100.0));
  std::size_t sb_index = 0;
  for (std::size_t sb = 0; sb < values.size(); sb += superblock, ++sb_index) {
    TDigest sb_sketch(100.0);
    const std::size_t sb_end = std::min(values.size(), sb + superblock);
    for (std::size_t b = sb; b < sb_end; b += block) {
      TDigest partial(100.0);
      const std::size_t b_end = std::min(sb_end, b + block);
      for (std::size_t i = b; i < b_end; ++i) partial.add(values[i]);
      sb_sketch.merge(partial);
    }
    shard_digests[sb_index % shards].merge(sb_sketch);
  }
  TDigest total(100.0);
  for (const TDigest& s : shard_digests) total.merge(s);
  return total;
}

/// Relative drift of the estimate vs the exact quantile.
double rel(double estimate, double exact) {
  return (estimate - exact) / exact;
}

void audit(Regime regime, std::size_t n) {
  Rng rng(20130624);
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) values.push_back(draw(regime, rng));

  const TDigest merged = deep_merged_digest(values, 256, 16384, 4);
  for (const double q : {0.5, 0.9}) {
    const double exact = exact_quantile(values, q);
    // <= 1% through the deeper three-level tree, on every regime — the
    // reason the merged quantile columns are load-bearing.
    EXPECT_LE(std::abs(rel(merged.quantile(q), exact)), 0.01)
        << "t-digest deep merge, q=" << q << " n=" << n
        << " exact=" << exact << " merged=" << merged.quantile(q);
  }
}

TEST(SketchAccuracyAudit, DigestHoldsOnePercentThroughDeepMergeAt1e5) {
  audit(Regime::kExponential, 100000);
  audit(Regime::kCensoredExponential, 100000);
}

TEST(SketchAccuracyAudit, DigestHoldsOnePercentOnBimodalMixtures) {
  audit(Regime::kBimodalMixture, 100000);
}

TEST(SketchAccuracyAudit, DigestMergeOrderIsDeterministicAndShardInvariant) {
  // Identical merge trees give bit-identical digests (the determinism
  // contract the exact reducer relies on); the quantile estimate is also
  // stable (within the 1% gate) across shard-count choices.
  Rng rng(7);
  std::vector<double> values;
  for (std::size_t i = 0; i < 20000; ++i)
    values.push_back(draw(Regime::kCensoredExponential, rng));
  const TDigest a = deep_merged_digest(values, 256, 4096, 4);
  const TDigest b = deep_merged_digest(values, 256, 4096, 4);
  EXPECT_EQ(a.quantile(0.5), b.quantile(0.5));
  EXPECT_EQ(a.quantile(0.9), b.quantile(0.9));
  const double exact = exact_quantile(values, 0.9);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                   std::size_t{8}}) {
    const TDigest d = deep_merged_digest(values, 256, 4096, shards);
    EXPECT_LE(std::abs(rel(d.quantile(0.9), exact)), 0.01)
        << "shards=" << shards;
  }
}

// The 10^6-observation audit: the gtest [.][slow] equivalent, DISABLED_
// by default (the exact-quantile sorts dominate CI time); nightly runs
// it with --gtest_also_run_disabled_tests. The t-digest keeps its 1%
// bound at 10x the observations.
TEST(SketchAccuracyAudit, DISABLED_MergedSketchDriftAt1e6) {
  audit(Regime::kExponential, 1000000);
  audit(Regime::kCensoredExponential, 1000000);
}

}  // namespace
}  // namespace divsec::stats
