#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <numeric>

#include "core/adaptive_evaluator.h"
#include "core/framework.h"
#include "core/sampled_evaluator.h"
#include "eval/slot_blocks.h"
#include "models/trainer.h"
#include "stats/confidence.h"
#include "synth/config.h"
#include "synth/generator.h"

namespace kgeval {
namespace {

// --- Confidence helpers -------------------------------------------------------

TEST(ConfidenceTest, NormalQuantileMatchesKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.995), 2.575829, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959964, 1e-5);
  // Tail region of the approximation.
  EXPECT_NEAR(NormalQuantile(0.001), -3.090232, 1e-4);
}

TEST(ConfidenceTest, TwoSidedZ) {
  EXPECT_NEAR(TwoSidedZ(0.95), 1.959964, 1e-5);
  EXPECT_NEAR(TwoSidedZ(0.99), 2.575829, 1e-5);
}

TEST(ConfidenceTest, NormalCiHalfWidth) {
  // sd 2, n 100 -> 1.96 * 2 / 10.
  EXPECT_NEAR(NormalCiHalfWidth(4.0, 100, 1.96), 0.392, 1e-12);
  EXPECT_EQ(NormalCiHalfWidth(4.0, 1, 1.96), 0.0);
  EXPECT_EQ(NormalCiHalfWidth(-1.0, 100, 1.96), 0.0);  // Clamped.
}

TEST(ConfidenceTest, FinitePopulationCorrection) {
  EXPECT_DOUBLE_EQ(FinitePopulationCorrection(1, 101), 1.0);
  EXPECT_DOUBLE_EQ(FinitePopulationCorrection(101, 101), 0.0);
  EXPECT_NEAR(FinitePopulationCorrection(51, 101), std::sqrt(0.5), 1e-12);
  EXPECT_DOUBLE_EQ(FinitePopulationCorrection(5, 1), 1.0);  // Degenerate.
}

// --- RankingAccumulator -------------------------------------------------------

TEST(RankingAccumulatorTest, MatchesFromRanks) {
  const std::vector<double> ranks = {1, 2, 4, 10, 100, 3, 1, 7};
  RankingAccumulator acc;
  for (double r : ranks) acc.Add(r);
  const RankingMetrics direct = RankingMetrics::FromRanks(ranks);
  const RankingMetrics incremental = acc.Metrics();
  EXPECT_EQ(incremental.num_queries, direct.num_queries);
  EXPECT_NEAR(incremental.mrr, direct.mrr, 1e-12);
  EXPECT_NEAR(incremental.hits1, direct.hits1, 1e-12);
  EXPECT_NEAR(incremental.hits3, direct.hits3, 1e-12);
  EXPECT_NEAR(incremental.hits10, direct.hits10, 1e-12);
  EXPECT_NEAR(incremental.mean_rank, direct.mean_rank, 1e-9);
}

TEST(RankingAccumulatorTest, VarianceMatchesTwoPass) {
  const std::vector<double> ranks = {1, 2, 4, 10, 100, 3, 1, 7, 2, 5};
  RankingAccumulator acc;
  std::vector<double> rr;
  for (double r : ranks) {
    acc.Add(r);
    rr.push_back(1.0 / r);
  }
  const double mean =
      std::accumulate(rr.begin(), rr.end(), 0.0) / rr.size();
  double ss = 0.0;
  for (double x : rr) ss += (x - mean) * (x - mean);
  const double expected = ss / (rr.size() - 1);
  EXPECT_NEAR(acc.SampleVariance(MetricKind::kMrr), expected, 1e-12);
}

TEST(RankingAccumulatorTest, MergeEqualsSequential) {
  const std::vector<double> ranks = {1, 3, 9, 2, 50, 4, 1, 12, 6, 2, 8, 30};
  RankingAccumulator whole;
  for (double r : ranks) whole.Add(r);
  RankingAccumulator a, b;
  for (size_t i = 0; i < ranks.size(); ++i) {
    (i < 5 ? a : b).Add(ranks[i]);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), whole.count());
  for (MetricKind kind : {MetricKind::kMrr, MetricKind::kHits1,
                          MetricKind::kHits3, MetricKind::kHits10}) {
    EXPECT_NEAR(a.Mean(kind), whole.Mean(kind), 1e-12);
    EXPECT_NEAR(a.SampleVariance(kind), whole.SampleVariance(kind), 1e-12);
  }
  // Merging into an empty accumulator copies; merging an empty is a noop.
  RankingAccumulator empty;
  empty.Merge(whole);
  EXPECT_EQ(empty.count(), whole.count());
  whole.Merge(RankingAccumulator());
  EXPECT_EQ(whole.count(), static_cast<int64_t>(ranks.size()));
}

TEST(RankingAccumulatorTest, CiShrinksWithSampleSize) {
  // Feed a fixed-dispersion stream; the half-width must shrink ~1/sqrt(n)
  // and never grow between batches of identical data.
  RankingAccumulator acc;
  double previous = 1e9;
  for (int batch = 0; batch < 20; ++batch) {
    for (double r : {1.0, 2.0, 5.0, 10.0, 50.0}) acc.Add(r);
    const double hw = acc.CiHalfWidth(MetricKind::kMrr, 1.96);
    EXPECT_GT(hw, 0.0);
    EXPECT_LT(hw, previous);
    previous = hw;
  }
  const RankingCi ci = acc.Ci(1.96);
  EXPECT_DOUBLE_EQ(ci.mrr, acc.CiHalfWidth(MetricKind::kMrr, 1.96));
  EXPECT_EQ(ci.num_queries, 100);
  EXPECT_DOUBLE_EQ(ci.z, 1.96);
}

// --- Slot-block schedules -----------------------------------------------------

TEST(SlotBlocksTest, ShuffledQueryOrderIsAPermutationOfAllQueries) {
  Rng rng(5);
  const std::vector<int64_t> order = ShuffledQueryOrder(100, &rng);
  ASSERT_EQ(order.size(), 200u);
  std::vector<int64_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (int64_t q = 0; q < 200; ++q) EXPECT_EQ(sorted[q], q);
  // Deterministic per seed, different across seeds.
  Rng same(5), other(6);
  EXPECT_EQ(ShuffledQueryOrder(100, &same), order);
  EXPECT_NE(ShuffledQueryOrder(100, &other), order);
}

TEST(SlotBlocksTest, PartitionBoundariesAlignToSlots) {
  // Three relations with 5, 1, and 3 blocks per direction.
  std::vector<std::vector<int32_t>> by_relation(3);
  by_relation[0].resize(5 * 16);
  by_relation[1].resize(1 * 16);
  by_relation[2].resize(3 * 16);
  const std::vector<SlotBlock> blocks = BuildSlotBlocks(by_relation, 3, 16);
  ASSERT_EQ(blocks.size(), 18u);  // (5 + 1 + 3) * 2 directions.
  for (size_t max_chunks : {1u, 2u, 4u, 7u, 100u}) {
    const auto chunks = PartitionAtSlotBoundaries(blocks, max_chunks);
    // Chunks tile [0, blocks.size()) contiguously.
    ASSERT_FALSE(chunks.empty());
    size_t expected_lo = 0;
    for (const auto& [lo, hi] : chunks) {
      EXPECT_EQ(lo, expected_lo);
      EXPECT_GT(hi, lo);
      expected_lo = hi;
    }
    EXPECT_EQ(expected_lo, blocks.size());
    // No slot run of fewer than 8 blocks (2 * the split floor) may ever be
    // split: every boundary must sit on a slot change here, where the
    // longest run is 5 blocks.
    for (size_t c = 0; c + 1 < chunks.size(); ++c) {
      const size_t edge = chunks[c].second;
      EXPECT_NE(blocks[edge - 1].pool_slot, blocks[edge].pool_slot)
          << "max_chunks=" << max_chunks << " split a slot at " << edge;
    }
  }
}

TEST(SlotBlocksTest, PartitionSplitsOversizedRuns) {
  // One relation with 64 blocks per direction: load balance must win and
  // cut the runs, in pieces of at least the 4-block floor.
  std::vector<std::vector<int32_t>> by_relation(1);
  by_relation[0].resize(64 * 16);
  const std::vector<SlotBlock> blocks = BuildSlotBlocks(by_relation, 1, 16);
  ASSERT_EQ(blocks.size(), 128u);
  const auto chunks = PartitionAtSlotBoundaries(blocks, 16);
  EXPECT_GT(chunks.size(), 2u);
  size_t expected_lo = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expected_lo);
    EXPECT_GE(hi - lo, 4u);  // Never below the prepare-amortization floor.
    expected_lo = hi;
  }
  EXPECT_EQ(expected_lo, blocks.size());
}

// --- Fake-model evaluator behavior --------------------------------------------

/// A scoring-oracle model (same idea as eval_test's FakeModel) that also
/// counts PrepareCandidates calls, to pin the prepare-once-per-slot
/// guarantee of the chunk partitioning.
class FakeModel : public KgeModel {
 public:
  using ScoreFn = std::function<float(int32_t, int32_t, int32_t)>;

  FakeModel(int32_t num_entities, int32_t num_relations, ScoreFn fn)
      : KgeModel(ModelType::kDistMult, num_entities, num_relations,
                 ModelOptions()),
        fn_(std::move(fn)) {}

  void ScoreCandidates(int32_t anchor, int32_t relation,
                       QueryDirection direction, const int32_t* candidates,
                       size_t n, float* out) const override {
    for (size_t i = 0; i < n; ++i) {
      const int32_t h =
          direction == QueryDirection::kTail ? anchor : candidates[i];
      const int32_t t =
          direction == QueryDirection::kTail ? candidates[i] : anchor;
      out[i] = fn_(h, relation, t);
    }
  }

  void PrepareCandidates(const int32_t* candidates, size_t n,
                         CandidateBlock* block) const override {
    prepare_calls.fetch_add(1);
    KgeModel::PrepareCandidates(candidates, n, block);
  }

  void UpdateTriple(int32_t, int32_t, int32_t, QueryDirection,
                    float) override {}

  void CollectParameters(std::vector<NamedParameter>*) override {}

  mutable std::atomic<int> prepare_calls{0};

 private:
  ScoreFn fn_;
};

/// 50 entities, 2 relations, 600 test triples per relation: 3 blocks of
/// 256 per (relation, direction) slot, so chunking behavior is observable.
Dataset TwoRelationDataset() {
  std::vector<Triple> train, test;
  for (int32_t i = 0; i < 40; ++i) {
    train.push_back({i % 50, i % 2, (i * 3 + 1) % 50});
  }
  for (int32_t r = 0; r < 2; ++r) {
    for (int32_t i = 0; i < 600; ++i) {
      test.push_back({i % 50, r, (i * 7 + r) % 50});
    }
  }
  return Dataset("two-rel", 50, 2, std::move(train), {}, std::move(test),
                 TypeStore());
}

SampledCandidates PoolsForAllSlots(const Dataset& d, int64_t n_s,
                                   uint64_t seed) {
  Rng rng(seed);
  return DrawCandidates(SamplingStrategy::kRandom, nullptr,
                        d.num_entities(), n_s, NeededSlots(d, Split::kTest),
                        2 * d.num_relations(), &rng);
}

TEST(SampledEvaluatorTest, PreparesEachSlotPoolOnce) {
  const Dataset d = TwoRelationDataset();
  const FilterIndex filter(d);
  FakeModel model(50, 2, [](int32_t h, int32_t r, int32_t t) {
    return static_cast<float>(h * 31 + r * 7 + t);
  });
  const SampledCandidates pools = PoolsForAllSlots(d, 20, 3);
  const SampledEvalResult result =
      EvaluateSampled(model, d, filter, Split::kTest, pools);
  EXPECT_EQ(result.ranks.size(), 2400u);
  // 4 queried slots, 3 blocks each, all runs far below the split floor:
  // exactly one PrepareCandidates per slot, however many threads ran.
  EXPECT_EQ(model.prepare_calls.load(), 4);
}

TEST(SampledEvaluatorTest, ResultCarriesCi) {
  const Dataset d = TwoRelationDataset();
  const FilterIndex filter(d);
  FakeModel model(50, 2, [](int32_t h, int32_t r, int32_t t) {
    return static_cast<float>((h * 13 + r * 5 + t * 29) % 101);
  });
  const SampledCandidates pools = PoolsForAllSlots(d, 20, 4);
  const SampledEvalResult result =
      EvaluateSampled(model, d, filter, Split::kTest, pools);
  EXPECT_EQ(result.ci.num_queries,
            static_cast<int64_t>(result.ranks.size()));
  EXPECT_NEAR(result.ci.z, 1.959964, 1e-5);
  EXPECT_GT(result.ci.mrr, 0.0);
  // The half-width must match the two-pass computation over the ranks.
  RankingAccumulator acc;
  for (double r : result.ranks) acc.Add(r);
  EXPECT_DOUBLE_EQ(result.ci.mrr,
                   acc.CiHalfWidth(MetricKind::kMrr, result.ci.z));
  // The scalar engine reports the same interval.
  const SampledEvalResult scalar =
      EvaluateSampledScalar(model, d, filter, Split::kTest, pools);
  EXPECT_DOUBLE_EQ(scalar.ci.mrr, result.ci.mrr);
}

TEST(SampledEvaluatorDeathTest, EmptyQueriedPoolDiesLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Dataset d = TwoRelationDataset();
  const FilterIndex filter(d);
  FakeModel model(50, 2, [](int32_t, int32_t, int32_t) { return 1.0f; });
  SampledCandidates pools;
  pools.pools.resize(4);
  pools.pools[0] = {1, 2, 3};  // Head slot of relation 0.
  pools.pools[1] = {1, 2, 3};  // Head slot of relation 1.
  pools.pools[2] = {1, 2, 3};  // Tail slot of relation 0.
  // Tail slot of relation 1 left empty although relation 1 is queried:
  // scoring would silently report rank 1 for all its tail queries.
  EXPECT_DEATH(EvaluateSampled(model, d, filter, Split::kTest, pools),
               "empty candidate pool");
  EXPECT_DEATH(EvaluateSampledScalar(model, d, filter, Split::kTest, pools),
               "empty candidate pool");
  EXPECT_DEATH(EvaluateAdaptive(model, d, filter, Split::kTest, pools),
               "empty candidate pool");
}

TEST(SampledEvaluatorTest, EmptyUnqueriedPoolIsFine) {
  // Only relation 0 in the test split: relation 1's pools may be empty
  // (they are never ranked against) and must not inflate score buffers or
  // trip the validation.
  std::vector<Triple> train = {{0, 0, 1}, {2, 1, 3}};
  std::vector<Triple> test = {{0, 0, 2}, {1, 0, 3}};
  Dataset d("one-rel", 50, 2, std::move(train), {}, std::move(test),
            TypeStore());
  const FilterIndex filter(d);
  FakeModel model(50, 2, [](int32_t h, int32_t, int32_t t) {
    return static_cast<float>(h + t);
  });
  SampledCandidates pools;
  pools.pools.resize(4);
  pools.pools[0] = {1, 2, 3, 4};   // Head slot, relation 0.
  pools.pools[2] = {5, 6, 7, 8};   // Tail slot, relation 0.
  const SampledEvalResult result =
      EvaluateSampled(model, d, filter, Split::kTest, pools);
  EXPECT_EQ(result.ranks.size(), 4u);
  for (double rank : result.ranks) EXPECT_GE(rank, 1.0);
}

// --- Adaptive evaluation on a trained model -----------------------------------

/// Shared across the adaptive tests: one trained model on a synthetic
/// dataset whose test split is large enough (16k queries) for a 0.01
/// half-width to be reachable below 50% coverage even at the worst-case
/// reciprocal-rank dispersion (sd 0.5 crosses at ~37.5% of 16k).
class AdaptiveFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthConfig config;
    config.num_entities = 800;
    config.num_relations = 16;
    config.num_types = 12;
    config.num_train = 12000;
    config.num_valid = 400;
    config.num_test = 8000;
    config.seed = 77;
    dataset_ = new Dataset(GenerateDataset(config).ValueOrDie().dataset);
    filter_ = new FilterIndex(*dataset_);
    ModelOptions options;
    options.dim = 24;
    options.adam.learning_rate = 3e-3f;
    auto model = CreateModel(ModelType::kComplEx, dataset_->num_entities(),
                             dataset_->num_relations(), options)
                     .ValueOrDie();
    TrainerOptions trainer_options;
    trainer_options.epochs = 6;
    // Hogwild training races by design, so a multi-threaded model differs
    // run to run; one thread makes the model, and with it the interval
    // checks below, deterministic, and keeps the suite race-free under TSan.
    trainer_options.num_threads = 1;
    Trainer trainer(dataset_, trainer_options);
    ASSERT_TRUE(trainer.Train(model.get()).ok());
    model_ = model.release();
    pools_ = new SampledCandidates(PoolsForAllSlots(*dataset_, 80, 9));
  }
  static void TearDownTestSuite() {
    delete pools_;
    delete model_;
    delete filter_;
    delete dataset_;
  }

  static Dataset* dataset_;
  static FilterIndex* filter_;
  static KgeModel* model_;
  static SampledCandidates* pools_;
};

Dataset* AdaptiveFixture::dataset_ = nullptr;
FilterIndex* AdaptiveFixture::filter_ = nullptr;
KgeModel* AdaptiveFixture::model_ = nullptr;
SampledCandidates* AdaptiveFixture::pools_ = nullptr;

TEST_F(AdaptiveFixture, DeterministicUnderFixedSeed) {
  AdaptiveEvalOptions options;
  options.target_half_width = 0.02;
  const AdaptiveEvalResult a =
      EvaluateAdaptive(*model_, *dataset_, *filter_, Split::kTest, *pools_,
                       options);
  const AdaptiveEvalResult b =
      EvaluateAdaptive(*model_, *dataset_, *filter_, Split::kTest, *pools_,
                       options);
  EXPECT_EQ(a.evaluated_queries, b.evaluated_queries);
  EXPECT_EQ(a.scored_candidates, b.scored_candidates);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.metrics.mrr, b.metrics.mrr);  // Bitwise: same fold order.
  EXPECT_EQ(a.ci.mrr, b.ci.mrr);
  EXPECT_EQ(a.ranks, b.ranks);
  // A different shuffle seed evaluates a different prefix.
  AdaptiveEvalOptions other = options;
  other.shuffle_seed = 12345;
  const AdaptiveEvalResult c =
      EvaluateAdaptive(*model_, *dataset_, *filter_, Split::kTest, *pools_,
                       other);
  EXPECT_NE(a.ranks, c.ranks);
}

TEST_F(AdaptiveFixture, HalfWidthShrinksMonotonically) {
  AdaptiveEvalOptions options;
  options.target_half_width = 1e-9;  // Run the whole schedule.
  options.batch_queries = 512;
  const AdaptiveEvalResult result =
      EvaluateAdaptive(*model_, *dataset_, *filter_, Split::kTest, *pools_,
                       options);
  ASSERT_EQ(result.half_width_history.size(),
            static_cast<size_t>(result.rounds));
  ASSERT_GT(result.rounds, 10);
  // After the variance estimate has support, the interval must tighten
  // round over round (small tolerance for the variance estimate moving).
  for (size_t i = 2; i < result.half_width_history.size(); ++i) {
    EXPECT_LE(result.half_width_history[i],
              result.half_width_history[i - 1] * 1.05)
        << "round " << i;
  }
  EXPECT_LT(result.half_width_history.back(),
            result.half_width_history[2] * 0.5);
}

TEST_F(AdaptiveFixture, EarlyStopWithinCiOfFullPass) {
  // The acceptance scenario: at target half-width 0.01 the adaptive pass
  // must stop at <= 50% of the full sampled pass's scored candidates while
  // its MRR estimate traps the full-pass MRR inside the reported interval.
  const SampledEvalResult full =
      EvaluateSampled(*model_, *dataset_, *filter_, Split::kTest, *pools_);
  AdaptiveEvalOptions options;
  options.target_half_width = 0.01;
  options.batch_queries = 1024;  // Stop within ~6% of the exact crossing.
  const AdaptiveEvalResult adaptive =
      EvaluateAdaptive(*model_, *dataset_, *filter_, Split::kTest, *pools_,
                       options);
  EXPECT_TRUE(adaptive.converged);
  EXPECT_LE(adaptive.ci.mrr, 0.01);
  EXPECT_LE(adaptive.scored_candidates, full.scored_candidates / 2)
      << "scored " << adaptive.scored_candidates << " of "
      << full.scored_candidates;
  EXPECT_LE(std::fabs(adaptive.metrics.mrr - full.metrics.mrr),
            adaptive.ci.mrr)
      << "adaptive " << adaptive.metrics.mrr << " full " << full.metrics.mrr
      << " +/- " << adaptive.ci.mrr;
  // Every rank the adaptive pass did score is bit-identical to the full
  // pass's rank for that query.
  ASSERT_EQ(adaptive.ranks.size(), full.ranks.size());
  int64_t evaluated = 0;
  for (size_t i = 0; i < adaptive.ranks.size(); ++i) {
    if (adaptive.ranks[i] == 0.0) continue;
    EXPECT_DOUBLE_EQ(adaptive.ranks[i], full.ranks[i]) << "query " << i;
    ++evaluated;
  }
  EXPECT_EQ(evaluated, adaptive.evaluated_queries);
}

TEST_F(AdaptiveFixture, ExhaustiveScheduleMatchesFullPass) {
  // An unreachable target forces full coverage; the estimate then *is* the
  // full sampled pass (same ranks, same metrics up to fold order).
  const SampledEvalResult full =
      EvaluateSampled(*model_, *dataset_, *filter_, Split::kTest, *pools_);
  AdaptiveEvalOptions options;
  options.target_half_width = 0.0;
  const AdaptiveEvalResult adaptive =
      EvaluateAdaptive(*model_, *dataset_, *filter_, Split::kTest, *pools_,
                       options);
  EXPECT_EQ(adaptive.evaluated_queries, adaptive.total_queries);
  EXPECT_EQ(adaptive.scored_candidates, full.scored_candidates);
  EXPECT_EQ(adaptive.ranks, full.ranks);
  EXPECT_NEAR(adaptive.metrics.mrr, full.metrics.mrr, 1e-12);
  EXPECT_NEAR(adaptive.metrics.hits10, full.metrics.hits10, 1e-12);
  // Full coverage: the finite-population-corrected interval collapses.
  EXPECT_DOUBLE_EQ(adaptive.ci.mrr, 0.0);
  EXPECT_TRUE(adaptive.converged);
}

TEST_F(AdaptiveFixture, BudgetsForceUnconvergedStop) {
  AdaptiveEvalOptions options;
  options.target_half_width = 1e-9;
  options.finite_population_correction = false;  // Keep 1e-9 unreachable.
  options.max_triples = 500;
  const AdaptiveEvalResult result =
      EvaluateAdaptive(*model_, *dataset_, *filter_, Split::kTest, *pools_,
                       options);
  EXPECT_FALSE(result.converged);
  // The query budget is exact: 2 queries per budgeted triple.
  EXPECT_EQ(result.evaluated_queries, 2 * options.max_triples);

  AdaptiveEvalOptions candidate_budget;
  candidate_budget.target_half_width = 1e-9;
  candidate_budget.finite_population_correction = false;
  candidate_budget.max_candidates = 20000;
  const AdaptiveEvalResult capped =
      EvaluateAdaptive(*model_, *dataset_, *filter_, Split::kTest, *pools_,
                       candidate_budget);
  EXPECT_FALSE(capped.converged);
  EXPECT_LT(capped.evaluated_queries, capped.total_queries);
}

TEST_F(AdaptiveFixture, FrameworkEstimateAdaptive) {
  FrameworkOptions options;
  options.strategy = SamplingStrategy::kProbabilistic;
  options.recommender = RecommenderType::kLwd;
  options.sample_fraction = 0.1;
  auto framework =
      EvaluationFramework::Build(dataset_, options).ValueOrDie();
  AdaptiveEvalOptions adaptive_options;
  adaptive_options.target_half_width = 0.02;
  const AdaptiveEvalResult result = framework->EstimateAdaptive(
      *model_, *filter_, Split::kTest, adaptive_options);
  EXPECT_GT(result.evaluated_queries, 0);
  EXPECT_GT(result.metrics.mrr, 0.0);
  EXPECT_GT(result.ci.num_queries, 0);
  if (result.converged) {
    EXPECT_LE(result.ci.mrr, 0.02);
  }
}

}  // namespace
}  // namespace kgeval
