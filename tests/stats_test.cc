#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <functional>
#include <set>

#include "stats/correlation.h"
#include "stats/hypergeometric.h"
#include "stats/sampling.h"
#include "util/rng.h"

namespace kgeval {
namespace {

// --- Correlations -----------------------------------------------------------

TEST(PearsonTest, PerfectPositive) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
}

TEST(PearsonTest, PerfectNegative) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {3, 2, 1}), -1.0, 1e-12);
}

TEST(PearsonTest, ConstantSeriesGivesZero) {
  EXPECT_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(PearsonTest, InvariantToAffineTransform) {
  const std::vector<double> x = {0.3, 1.7, 2.2, 5.0, 3.3};
  const std::vector<double> y = {1.0, 0.7, 2.5, 4.0, 2.9};
  std::vector<double> y_scaled;
  for (double v : y) y_scaled.push_back(3.0 * v - 7.0);
  EXPECT_NEAR(PearsonCorrelation(x, y), PearsonCorrelation(x, y_scaled),
              1e-12);
}

TEST(SpearmanTest, MonotoneNonlinearIsOne) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {1, 8, 27, 64, 125};
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(KendallTauTest, PerfectAgreement) {
  EXPECT_NEAR(KendallTau({1, 2, 3, 4}, {10, 20, 30, 40}), 1.0, 1e-12);
}

TEST(KendallTauTest, PerfectDisagreement) {
  EXPECT_NEAR(KendallTau({1, 2, 3, 4}, {4, 3, 2, 1}), -1.0, 1e-12);
}

TEST(KendallTauTest, SingleSwap) {
  // One discordant pair among 6: tau = (5 - 1) / 6.
  EXPECT_NEAR(KendallTau({1, 2, 3, 4}, {2, 1, 3, 4}), 4.0 / 6.0, 1e-12);
}

TEST(KendallTauTest, HandlesTies) {
  const double tau = KendallTau({1, 1, 2, 3}, {1, 2, 3, 4});
  EXPECT_GT(tau, 0.0);
  EXPECT_LE(tau, 1.0);
}

TEST(KendallTauTest, AllTiedGivesZero) {
  EXPECT_EQ(KendallTau({5, 5, 5}, {1, 2, 3}), 0.0);
}

TEST(AverageRanksTest, TiesShareMeanRank) {
  const std::vector<double> ranks = AverageRanks({10, 20, 20, 30});
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 2.5);
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(ErrorMetricsTest, MaeBasic) {
  EXPECT_DOUBLE_EQ(MeanAbsoluteError({1, 2, 3}, {1, 1, 5}), (0 + 1 + 2) / 3.0);
}

TEST(ErrorMetricsTest, MapeSkipsZeroTruth) {
  // Only the second entry counts: |2-4|/4 = 0.5 -> 50%.
  EXPECT_DOUBLE_EQ(MeanAbsolutePercentageError({1, 2}, {0, 4}), 50.0);
}

TEST(ErrorMetricsTest, MapePerfectIsZero) {
  EXPECT_DOUBLE_EQ(MeanAbsolutePercentageError({3, 4}, {3, 4}), 0.0);
}

TEST(DescriptiveTest, MeanAndStd) {
  EXPECT_DOUBLE_EQ(Mean({2, 4, 6}), 4.0);
  EXPECT_NEAR(StdDev({2, 4, 6}), 2.0, 1e-12);
  EXPECT_EQ(StdDev({5}), 0.0);
}

TEST(DescriptiveTest, Ci95ShrinksWithN) {
  std::vector<double> small = {1, 2, 3, 4};
  std::vector<double> large;
  for (int i = 0; i < 16; ++i) large.insert(large.end(), small.begin(),
                                            small.end());
  EXPECT_GT(NormalCi95HalfWidth(small), NormalCi95HalfWidth(large));
}

// --- Uniform sampling without replacement ------------------------------------

TEST(FloydSamplingTest, DistinctAndInRange) {
  Rng rng(3);
  const auto sample = SampleWithoutReplacement(1000, 100, &rng);
  EXPECT_EQ(sample.size(), 100u);
  std::set<int32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 100u);
  for (int32_t v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 1000);
  }
}

TEST(FloydSamplingTest, LargeNSmallKIsSortedAndBounded) {
  // Memory is O(k): n = INT32_MAX needs no n-sized allocation. Ids span all
  // four bytes, so the sort makes every pass; k = 5000 puts many ids in
  // each digit's bucket.
  Rng rng(12);
  for (int64_t k : {16, 5000}) {
    const auto sample = SampleWithoutReplacement(INT32_MAX, k, &rng);
    ASSERT_EQ(static_cast<int64_t>(sample.size()), k);
    EXPECT_TRUE(std::adjacent_find(sample.begin(), sample.end(),
                                   std::greater_equal<int32_t>()) ==
                sample.end());  // Strictly increasing: sorted and distinct.
    EXPECT_GE(sample.front(), 0);
    EXPECT_LT(sample.back(), INT32_MAX);
  }
}

TEST(FloydSamplingTest, KGreaterThanNReturnsAll) {
  Rng rng(4);
  const auto sample = SampleWithoutReplacement(10, 50, &rng);
  EXPECT_EQ(sample.size(), 10u);
}

TEST(FloydSamplingTest, ApproximatelyUniform) {
  Rng rng(5);
  std::vector<int> counts(20, 0);
  for (int trial = 0; trial < 4000; ++trial) {
    for (int32_t v : SampleWithoutReplacement(20, 5, &rng)) ++counts[v];
  }
  // Each element expected 4000 * 5/20 = 1000 times.
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(SampleFromTest, DrawsFromPopulation) {
  Rng rng(6);
  const std::vector<int32_t> population = {5, 9, 12, 40, 77};
  const auto sample = SampleFrom(population, 3, &rng);
  EXPECT_EQ(sample.size(), 3u);
  for (int32_t v : sample) {
    EXPECT_TRUE(std::find(population.begin(), population.end(), v) !=
                population.end());
  }
}

TEST(SampleFromTest, WholePopulationWhenKTooLarge) {
  Rng rng(7);
  const std::vector<int32_t> population = {1, 2, 3};
  EXPECT_EQ(SampleFrom(population, 10, &rng), population);
}

TEST(SampleFromTest, UnsortedPopulationGivesSortedSample) {
  Rng rng(15);
  const std::vector<int32_t> population = {40, 5, 77, 12, 9};
  EXPECT_EQ(SampleFrom(population, 10, &rng),
            (std::vector<int32_t>{5, 9, 12, 40, 77}));
  const auto sample = SampleFrom(population, 3, &rng);
  EXPECT_EQ(sample.size(), 3u);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
}

// --- Weighted sampling --------------------------------------------------------

TEST(WeightedSamplingTest, ZeroWeightNeverDrawn) {
  Rng rng(8);
  const std::vector<int32_t> items = {0, 1, 2, 3};
  const std::vector<float> weights = {1.0f, 0.0f, 1.0f, 0.0f};
  for (int trial = 0; trial < 200; ++trial) {
    for (int32_t v : WeightedSampleWithoutReplacement(items, weights, 2,
                                                      &rng)) {
      EXPECT_TRUE(v == 0 || v == 2);
    }
  }
}

TEST(WeightedSamplingTest, ReturnsAllPositiveWhenKLarge) {
  Rng rng(9);
  const std::vector<int32_t> items = {10, 11, 12, 13};
  const std::vector<float> weights = {1.0f, 0.5f, 0.0f, 2.0f};
  auto sample = WeightedSampleWithoutReplacement(items, weights, 10, &rng);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(sample, (std::vector<int32_t>{10, 11, 13}));
}

TEST(WeightedSamplingTest, HigherWeightDrawnMoreOften) {
  Rng rng(10);
  const std::vector<int32_t> items = {0, 1};
  const std::vector<float> weights = {10.0f, 1.0f};
  int heavy = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const auto sample =
        WeightedSampleWithoutReplacement(items, weights, 1, &rng);
    if (sample[0] == 0) ++heavy;
  }
  EXPECT_GT(heavy, 1400);
}

TEST(WeightedSamplingTest, NoDuplicates) {
  Rng rng(11);
  std::vector<int32_t> items(50);
  std::vector<float> weights(50, 1.0f);
  for (int i = 0; i < 50; ++i) items[i] = i;
  const auto sample =
      WeightedSampleWithoutReplacement(items, weights, 20, &rng);
  std::set<int32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), sample.size());
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
}

// Adds to `inclusion` the probability that each item is among the next
// `remaining` draws of successive sampling: each draw takes a not-yet-drawn
// item with probability proportional to its weight. `p` is the probability
// of the draws so far.
void AccumulateInclusion(const std::vector<double>& weights, int remaining,
                         double p, std::vector<bool>* drawn,
                         std::vector<double>* inclusion) {
  if (remaining == 0) return;
  double left = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (!(*drawn)[i]) left += weights[i];
  }
  if (left <= 0.0) return;
  for (size_t i = 0; i < weights.size(); ++i) {
    if ((*drawn)[i] || weights[i] <= 0.0) continue;
    const double q = p * weights[i] / left;
    (*inclusion)[i] += q;
    (*drawn)[i] = true;
    AccumulateInclusion(weights, remaining - 1, q, drawn, inclusion);
    (*drawn)[i] = false;
  }
}

TEST(WeightedSamplingTest, InclusionFrequenciesMatchExact) {
  // A-Res (and so A-ExpJ) has the inclusion law of successive sampling.
  // Heavy items sit both before and after the reservoir fill, so the
  // exponential jumps and the conditioned replacement keys decide most of
  // the draws.
  const std::vector<int32_t> items = {0, 1, 2, 3, 4, 5};
  const std::vector<float> weights = {1.0f, 0.5f, 0.0f, 8.0f, 2.0f, 4.0f};
  const std::vector<double> exact_weights(weights.begin(), weights.end());
  constexpr int kDraws = 20000;
  Rng rng(14);
  for (int k = 1; k <= 4; ++k) {
    std::vector<double> inclusion(items.size(), 0.0);
    std::vector<bool> drawn(items.size(), false);
    AccumulateInclusion(exact_weights, k, 1.0, &drawn, &inclusion);
    std::vector<int> counts(items.size(), 0);
    for (int trial = 0; trial < kDraws; ++trial) {
      for (int32_t v : WeightedSampleWithoutReplacement(items, weights, k,
                                                        &rng)) {
        ++counts[v];
      }
    }
    for (size_t i = 0; i < items.size(); ++i) {
      // Binomial(kDraws, pi): a ±4.5 sigma band (zero width for pi = 0).
      const double pi = inclusion[i];
      const double sd = std::sqrt(kDraws * pi * (1.0 - pi));
      EXPECT_LE(std::abs(counts[i] - kDraws * pi), 4.5 * sd)
          << "k=" << k << " item " << i << ": " << counts[i]
          << " draws, expected " << kDraws * pi;
    }
  }
  // Equal weights over 64 items with k = 8: every item has pi = 1/8, and
  // each draw refreshes its threshold several times.
  const std::vector<float> flat(64, 1.0f);
  std::vector<int32_t> ids(flat.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  std::vector<int> counts(ids.size(), 0);
  for (int trial = 0; trial < kDraws; ++trial) {
    for (int32_t v : WeightedSampleWithoutReplacement(ids, flat, 8, &rng)) {
      ++counts[v];
    }
  }
  const double pi = 1.0 / 8.0;
  const double sd = std::sqrt(kDraws * pi * (1.0 - pi));
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_LE(std::abs(counts[i] - kDraws * pi), 4.5 * sd) << "item " << i;
  }
}

// --- Hypergeometric / Theorem 1 -----------------------------------------------

TEST(HypergeometricTest, MeanFormula) {
  Hypergeometric h(30, 100, 10);
  EXPECT_DOUBLE_EQ(h.Mean(), 3.0);
}

TEST(HypergeometricTest, PmfSumsToOne) {
  Hypergeometric h(12, 40, 15);
  double total = 0.0;
  for (int64_t k = 0; k <= 15; ++k) total += h.Pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(HypergeometricTest, PmfZeroOutsideSupport) {
  Hypergeometric h(5, 10, 8);
  // At least 3 successes must be drawn (8 draws, only 5 failures exist).
  EXPECT_EQ(h.Pmf(2), 0.0);
  EXPECT_EQ(h.Pmf(6), h.Pmf(6));  // In support.
  EXPECT_EQ(h.Pmf(9), 0.0);
}

TEST(HypergeometricTest, SampleMatchesMean) {
  Hypergeometric h(20, 80, 16);
  Rng rng(12);
  double total = 0.0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) total += h.Sample(&rng);
  EXPECT_NEAR(total / trials, h.Mean(), 0.1);
}

TEST(HypergeometricTest, VarianceMatchesEmpirical) {
  Hypergeometric h(25, 100, 20);
  Rng rng(13);
  std::vector<double> draws;
  for (int i = 0; i < 8000; ++i) {
    draws.push_back(static_cast<double>(h.Sample(&rng)));
  }
  const double sd = StdDev(draws);
  EXPECT_NEAR(sd * sd, h.Variance(), 0.3);
}

TEST(Equation1Test, ExpectationVanishesAsSampleShrinks) {
  // lim_{n_s -> 0} E[X_u] = 0: smaller samples observe fewer of the
  // entities that outrank the truth -> optimistic metrics.
  const double e_large = ExpectedHigherRanked(50, 10000, 5000);
  const double e_small = ExpectedHigherRanked(50, 10000, 100);
  const double e_tiny = ExpectedHigherRanked(50, 10000, 1);
  EXPECT_GT(e_large, e_small);
  EXPECT_GT(e_small, e_tiny);
  EXPECT_NEAR(e_tiny, 50.0 / 10000.0, 1e-12);
}

TEST(Equation1Test, FullSampleRecoversTruth) {
  EXPECT_DOUBLE_EQ(ExpectedHigherRanked(37, 5000, 5000), 37.0);
}

// Theorem 1: sampling from the range set is never worse in expectation,
// across a parameter sweep.
struct Theorem1Case {
  int64_t higher;
  int64_t num_entities;
  int64_t range_size;
  int64_t n_s;
};

class Theorem1Test : public ::testing::TestWithParam<Theorem1Case> {};

TEST_P(Theorem1Test, ExpectedGainNonNegative) {
  const Theorem1Case& c = GetParam();
  EXPECT_GE(Theorem1ExpectedGain(c.higher, c.num_entities, c.range_size,
                                 c.n_s),
            -1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem1Test,
    ::testing::Values(Theorem1Case{10, 1000, 100, 50},
                      Theorem1Case{10, 1000, 100, 200},
                      Theorem1Case{10, 1000, 1000, 500},
                      Theorem1Case{0, 1000, 50, 25},
                      Theorem1Case{5, 100, 5, 1},
                      Theorem1Case{5, 100, 5, 100},
                      Theorem1Case{99, 100, 99, 99},
                      Theorem1Case{1, 1000000, 20, 10}));

TEST(Theorem1Test, MonteCarloAgreesWithClosedForm) {
  // Empirically verify E[X_RS] - E[X_u] with hypergeometric draws.
  const int64_t higher = 12, entities = 400, range = 60, n_s = 30;
  Rng rng(77);
  Hypergeometric uniform(higher, entities, n_s);
  Hypergeometric ranged(higher, range, std::min(n_s, range));
  double acc = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    acc += static_cast<double>(ranged.Sample(&rng) - uniform.Sample(&rng));
  }
  EXPECT_NEAR(acc / trials,
              Theorem1ExpectedGain(higher, entities, range, n_s), 0.1);
}

}  // namespace
}  // namespace kgeval
