// Tests for stats/doe.h — factorial spaces, screening designs, LHS, Morris.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "stats/doe.h"

namespace divsec::stats {
namespace {

FactorSpace small_space() {
  return FactorSpace({{"os", {"win", "linux", "rtos"}},
                      {"plc", {"s7", "abb"}},
                      {"fw", {"stock", "ngfw"}}});
}

TEST(FactorSpace, ConfigurationCount) {
  EXPECT_EQ(small_space().configuration_count(), 3u * 2u * 2u);
}

TEST(FactorSpace, EncodeDecodeRoundTrip) {
  const FactorSpace s = small_space();
  for (std::size_t i = 0; i < s.configuration_count(); ++i) {
    EXPECT_EQ(s.encode(s.decode(i)), i);
  }
}

TEST(FactorSpace, DecodeFactorZeroFastest) {
  const FactorSpace s = small_space();
  EXPECT_EQ(s.decode(0), (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(s.decode(1), (std::vector<int>{1, 0, 0}));
  EXPECT_EQ(s.decode(3), (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(s.decode(6), (std::vector<int>{0, 0, 1}));
}

TEST(FactorSpace, Errors) {
  EXPECT_THROW(FactorSpace(std::vector<Factor>{{"empty", {}}}),
               std::invalid_argument);
  const FactorSpace s = small_space();
  EXPECT_THROW(s.decode(12), std::out_of_range);
  EXPECT_THROW((void)s.encode(std::vector<int>{0, 0}), std::invalid_argument);
  EXPECT_THROW((void)s.encode(std::vector<int>{3, 0, 0}), std::out_of_range);
}

TEST(FullFactorial, EnumeratesAllDistinctConfigs) {
  const auto configs = full_factorial(small_space());
  EXPECT_EQ(configs.size(), 12u);
  std::set<std::vector<int>> unique(configs.begin(), configs.end());
  EXPECT_EQ(unique.size(), 12u);
}

TEST(TwoLevelFullFactorial, StandardOrderAndBalance) {
  const auto d = full_factorial_2k({"A", "B", "C"});
  EXPECT_EQ(d.run_count(), 8u);
  EXPECT_EQ(d.factor_count(), 3u);
  for (std::size_t f = 0; f < 3; ++f) {
    int sum = 0;
    for (const auto& run : d.runs) sum += run[f];
    EXPECT_EQ(sum, 0) << "column " << f << " unbalanced";
  }
  EXPECT_EQ(d.runs[0], (std::vector<int>{-1, -1, -1}));
  EXPECT_EQ(d.runs[7], (std::vector<int>{1, 1, 1}));
}

TEST(FractionalFactorial, GeneratorColumnIsProduct) {
  const Generator g{"D", "ABC"};
  const auto d = fractional_factorial({"A", "B", "C"}, std::span(&g, 1));
  EXPECT_EQ(d.run_count(), 8u);
  EXPECT_EQ(d.factor_count(), 4u);
  for (const auto& run : d.runs) EXPECT_EQ(run[3], run[0] * run[1] * run[2]);
}

TEST(FractionalFactorial, AliasStructureResolutionIV) {
  const Generator g{"D", "ABC"};
  const auto as = alias_structure(3, std::span(&g, 1));
  ASSERT_EQ(as.defining_relation.size(), 1u);
  EXPECT_EQ(as.defining_relation[0], "ABCD");
  EXPECT_EQ(as.resolution, 4);
  // A is aliased with BCD.
  const auto aliases = as.aliases_of("A");
  ASSERT_EQ(aliases.size(), 1u);
  EXPECT_EQ(aliases[0], "BCD");
}

TEST(FractionalFactorial, TwoGeneratorsSubgroup) {
  // 2^(5-2) with D=AB, E=AC: defining relation {ABD, ACE, BCDE}.
  const std::vector<Generator> gs{{"D", "AB"}, {"E", "AC"}};
  const auto as = alias_structure(3, gs);
  EXPECT_EQ(as.defining_relation.size(), 3u);
  EXPECT_EQ(as.resolution, 3);
  std::set<std::string> words(as.defining_relation.begin(),
                              as.defining_relation.end());
  EXPECT_TRUE(words.contains("ABD"));
  EXPECT_TRUE(words.contains("ACE"));
  EXPECT_TRUE(words.contains("BCDE"));
}

// Plackett-Burman orthogonality across the size ladder (Sylvester and
// Paley constructions both covered).
class PlackettBurman : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlackettBurman, ColumnsAreOrthogonalAndBalanced) {
  const std::size_t k = GetParam();
  std::vector<std::string> names;
  for (std::size_t i = 0; i < k; ++i)
    names.push_back(std::string("F").append(std::to_string(i)));
  const auto d = plackett_burman(names);
  EXPECT_GT(d.run_count(), k);
  EXPECT_EQ(d.run_count() % 4, 0u);
  for (std::size_t a = 0; a < k; ++a) {
    int sum = 0;
    for (const auto& run : d.runs) sum += run[a];
    EXPECT_EQ(sum, 0) << "column " << a << " unbalanced (N=" << d.run_count() << ")";
    for (std::size_t b = a + 1; b < k; ++b) {
      int dot = 0;
      for (const auto& run : d.runs) dot += run[a] * run[b];
      EXPECT_EQ(dot, 0) << "columns " << a << "," << b << " not orthogonal";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PlackettBurman,
                         ::testing::Values(2, 3, 5, 7, 8, 11, 15, 19, 23, 31));

TEST(PlackettBurman, TooManyFactorsRejected) {
  std::vector<std::string> names(32, "x");
  for (std::size_t i = 0; i < names.size(); ++i) names[i] += std::to_string(i);
  EXPECT_THROW(plackett_burman(names), std::invalid_argument);
}

TEST(EffectEstimation, RecoversPlantedLinearModel) {
  // y = 10 + 3*A - 2*B + 0.5*A*B  (in coded units): the estimated effect
  // of A must be 2*3 = 6, of B -4, of AB 1.
  const auto d = full_factorial_2k({"A", "B"});
  std::vector<double> y;
  for (const auto& run : d.runs)
    y.push_back(10.0 + 3.0 * run[0] - 2.0 * run[1] + 0.5 * run[0] * run[1]);
  EXPECT_NEAR(estimate_effect(d, y, "A"), 6.0, 1e-12);
  EXPECT_NEAR(estimate_effect(d, y, "B"), -4.0, 1e-12);
  EXPECT_NEAR(estimate_effect(d, y, "AB"), 1.0, 1e-12);
  const auto effects = main_effects(d, y);
  EXPECT_NEAR(effects[0], 6.0, 1e-12);
  EXPECT_NEAR(effects[1], -4.0, 1e-12);
}

TEST(EffectEstimation, Errors) {
  const auto d = full_factorial_2k({"A", "B"});
  const std::vector<double> y(4, 0.0);
  EXPECT_THROW((void)estimate_effect(d, std::vector<double>(3, 0.0), "A"),
               std::invalid_argument);
  EXPECT_THROW((void)estimate_effect(d, y, ""), std::invalid_argument);
  EXPECT_THROW((void)estimate_effect(d, y, "C"), std::invalid_argument);
}

TEST(LatinHypercube, OnePointPerStratumInEveryDimension) {
  Rng rng(11);
  const std::size_t n = 16, dims = 3;
  const auto pts = latin_hypercube(dims, n, rng);
  ASSERT_EQ(pts.size(), n);
  for (std::size_t d = 0; d < dims; ++d) {
    std::set<std::size_t> strata;
    for (const auto& p : pts) {
      EXPECT_GE(p[d], 0.0);
      EXPECT_LT(p[d], 1.0);
      strata.insert(static_cast<std::size_t>(p[d] * static_cast<double>(n)));
    }
    EXPECT_EQ(strata.size(), n) << "dimension " << d << " not stratified";
  }
}

TEST(LatinHypercube, Errors) {
  Rng rng(1);
  EXPECT_THROW(latin_hypercube(0, 5, rng), std::invalid_argument);
  EXPECT_THROW(latin_hypercube(2, 0, rng), std::invalid_argument);
}

TEST(Morris, DesignShape) {
  Rng rng(5);
  const auto md = morris_design(4, 6, rng);
  EXPECT_EQ(md.trajectories.size(), 6u);
  EXPECT_EQ(md.evaluation_count(), 6u * 5u);
  for (const auto& t : md.trajectories) {
    EXPECT_EQ(t.points.size(), 5u);
    // Every dimension changed exactly once per trajectory.
    std::set<std::size_t> dims(t.dim_order.begin(), t.dim_order.end());
    EXPECT_EQ(dims.size(), 4u);
    for (const auto& p : t.points)
      for (double x : p) {
        EXPECT_GE(x, -1e-12);
        EXPECT_LE(x, 1.0 + 1e-12);
      }
  }
}

TEST(Morris, RecoversLinearCoefficients) {
  // f(x) = 5 x0 - 3 x1 + 0 x2: mu* must be {5, 3, 0} with sigma ~ 0.
  Rng rng(6);
  const auto md = morris_design(3, 8, rng);
  std::vector<double> evals;
  for (const auto& t : md.trajectories)
    for (const auto& p : t.points) evals.push_back(5.0 * p[0] - 3.0 * p[1]);
  const auto eff = morris_effects(md, evals);
  EXPECT_NEAR(eff.mu_star[0], 5.0, 1e-9);
  EXPECT_NEAR(eff.mu_star[1], 3.0, 1e-9);
  EXPECT_NEAR(eff.mu_star[2], 0.0, 1e-9);
  EXPECT_NEAR(eff.mu[0], 5.0, 1e-9);
  EXPECT_NEAR(eff.mu[1], -3.0, 1e-9);
  EXPECT_NEAR(eff.sigma[0], 0.0, 1e-9);
}

TEST(Morris, InteractionRaisesSigma) {
  // f(x) = x0 * x1: elementary effects of x0 depend on x1 -> sigma > 0.
  Rng rng(7);
  const auto md = morris_design(2, 20, rng);
  std::vector<double> evals;
  for (const auto& t : md.trajectories)
    for (const auto& p : t.points) evals.push_back(p[0] * p[1]);
  const auto eff = morris_effects(md, evals);
  EXPECT_GT(eff.sigma[0], 0.05);
  EXPECT_GT(eff.sigma[1], 0.05);
}

TEST(Morris, Errors) {
  Rng rng(8);
  EXPECT_THROW(morris_design(0, 5, rng), std::invalid_argument);
  EXPECT_THROW(morris_design(2, 5, rng, 3), std::invalid_argument);
  const auto md = morris_design(2, 3, rng);
  EXPECT_THROW(morris_effects(md, std::vector<double>(5, 0.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace divsec::stats
