// Sketch accuracy audit, both backends (closes the ROADMAP open item):
// the streaming engine reports TTA/TTSF q50/q90 from mergeable sketches
// folded per block and merged in ascending order — at fleet scale that
// is hundreds of merges, so merge drift is what decides whether the
// columns are load-bearing. This audit runs the SAME deep merge tree
// (256-blocks into 16384-superblocks, superblocks dealt round-robin to
// shards, shards merged in ascending order — the two-level reduction of
// sim::reduce_groups + sim::reduce_task_partials plus the
// cross-process merge) over both sketches on three event-time-like
// regimes, at 10^5 observations; the 10^6-rep variant is the gtest
// equivalent of a Catch2 [.][slow] tag — DISABLED_ by default, runnable
// with --gtest_also_run_disabled_tests (nightly does).
//
// Measured verdict (tolerances are regression guards around these
// numbers, not aspirations):
//   * a single un-merged P² sketch is excellent: <= 0.2% everywhere;
//   * the P² pooled-CDF merge carries a systematic UPWARD bias that does
//     not average out with n: ~+4% (q50) / ~+10% (q90) on an
//     exponential, ~+3-6% censored, +23% (q50) on a bimodal fast/slow
//     mixture. P² stays in the tree as the single-stream reference that
//     documents exactly this;
//   * the t-digest merge (the production backend since the
//     CensoredTimeAccumulator switch) holds <= 1% on every regime,
//     every quantile, through the full deep-merge tree — which is why
//     the merged q50/q90 columns are now load-bearing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/p2_quantile.h"
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
      // the 5-marker sketch merge handles worst.
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

/// Fold `values` through the measurement engine's reduction shape: P²
/// partials per `block` values merged in ascending order into superblock
/// sketches, superblocks merged in ascending order — the two-level
/// sequence of sim::reduce_groups + sim::reduce_task_partials.
double merged_estimate(const std::vector<double>& values, double q,
                       std::size_t block, std::size_t superblock) {
  P2Quantile total(q);
  for (std::size_t sb = 0; sb < values.size(); sb += superblock) {
    P2Quantile sb_sketch(q);
    const std::size_t sb_end = std::min(values.size(), sb + superblock);
    for (std::size_t b = sb; b < sb_end; b += block) {
      P2Quantile partial(q);
      const std::size_t b_end = std::min(sb_end, b + block);
      for (std::size_t i = b; i < b_end; ++i) partial.add(values[i]);
      sb_sketch.merge(partial);
    }
    total.merge(sb_sketch);
  }
  return total.value();
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

void audit(Regime regime, std::size_t n, double tol_single,
           double tol_merged_q50, double tol_merged_q90) {
  Rng rng(20130624);
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) values.push_back(draw(regime, rng));

  const TDigest digest = deep_merged_digest(values, 256, 16384, 4);
  for (const double q : {0.5, 0.9}) {
    const double exact = exact_quantile(values, q);
    const double tol_merged = q == 0.5 ? tol_merged_q50 : tol_merged_q90;

    P2Quantile single(q);
    for (const double v : values) single.add(v);
    EXPECT_LE(std::abs(rel(single.value(), exact)), tol_single)
        << "single sketch, q=" << q << " n=" << n;

    const double merged = merged_estimate(values, q, 256, 16384);
    EXPECT_LE(std::abs(rel(merged, exact)), tol_merged)
        << "merged (default 256/16384 shape), q=" << q << " n=" << n
        << " exact=" << exact << " merged=" << merged;

    // The production backend: <= 1% through the deeper three-level tree,
    // on every regime — the reason the merged quantile columns are
    // load-bearing now.
    EXPECT_LE(std::abs(rel(digest.quantile(q), exact)), 0.01)
        << "t-digest deep merge, q=" << q << " n=" << n
        << " exact=" << exact << " merged=" << digest.quantile(q);
  }
}

TEST(SketchAccuracyAudit, SingleSketchIsTightAndMergeDriftIsBoundedAt1e5) {
  // P² tolerances are ~1.5x the measured drift: they fail if the merge
  // gets materially worse, without pretending the bias is smaller than
  // it is. The t-digest bound inside audit() is the hard 1% gate.
  audit(Regime::kExponential, 100000,
        /*tol_single=*/0.005, /*tol_merged_q50=*/0.06, /*tol_merged_q90=*/0.15);
  audit(Regime::kCensoredExponential, 100000,
        /*tol_single=*/0.005, /*tol_merged_q50=*/0.06, /*tol_merged_q90=*/0.10);
}

TEST(SketchAccuracyAudit, MergeBiasOnBimodalMixturesIsLargeAndDocumented) {
  // Measured: +23% q50 / +15% q90 at n = 1e5 for the P² merge. The audit
  // pins the magnitude (a regression guard and an honest record): if
  // this starts failing *low*, the merge improved — tighten the verdict.
  // The t-digest holds 1% on the same worst-case shape.
  Rng rng(20130624);
  std::vector<double> values;
  values.reserve(100000);
  for (std::size_t i = 0; i < 100000; ++i)
    values.push_back(draw(Regime::kBimodalMixture, rng));
  const double exact50 = exact_quantile(values, 0.5);
  const double drift50 = rel(merged_estimate(values, 0.5, 256, 16384), exact50);
  EXPECT_GT(drift50, 0.05) << "merge bias shrank: update the audit verdict";
  EXPECT_LT(drift50, 0.40) << "merge bias grew beyond the measured envelope";
  const double exact90 = exact_quantile(values, 0.9);
  const double drift90 = rel(merged_estimate(values, 0.9, 256, 16384), exact90);
  EXPECT_LT(std::abs(drift90), 0.25);

  const TDigest digest = deep_merged_digest(values, 256, 16384, 4);
  EXPECT_LE(std::abs(rel(digest.quantile(0.5), exact50)), 0.01)
      << "t-digest q50 on the bimodal mixture";
  EXPECT_LE(std::abs(rel(digest.quantile(0.9), exact90)), 0.01)
      << "t-digest q90 on the bimodal mixture";
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
// it with --gtest_also_run_disabled_tests. Measured drift matches 1e5 —
// the P² merge bias is per-merge and does not average out, and the
// t-digest keeps its 1% bound.
TEST(SketchAccuracyAudit, DISABLED_MergedSketchDriftAt1e6) {
  audit(Regime::kExponential, 1000000,
        /*tol_single=*/0.005, /*tol_merged_q50=*/0.06, /*tol_merged_q90=*/0.15);
  audit(Regime::kCensoredExponential, 1000000,
        /*tol_single=*/0.005, /*tol_merged_q50=*/0.06, /*tol_merged_q90=*/0.10);
}

}  // namespace
}  // namespace divsec::stats
