#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/framework.h"
#include "core/sampled_evaluator.h"
#include "core/samplers.h"
#include "eval/auc.h"
#include "eval/full_evaluator.h"
#include "models/kge_model.h"
#include "synth/config.h"
#include "synth/generator.h"
#include "util/rng.h"

namespace kgeval {
namespace {

constexpr ModelType kAllModels[] = {
    ModelType::kTransE, ModelType::kDistMult, ModelType::kComplEx,
    ModelType::kRescal, ModelType::kRotatE,   ModelType::kTuckEr,
    ModelType::kConvE,  ModelType::kTComplEx};

ModelOptions SmallOptions() {
  ModelOptions options;
  options.dim = 16;
  options.seed = 7;
  return options;
}

class ScoreBatchTest : public ::testing::TestWithParam<ModelType> {
 protected:
  std::unique_ptr<KgeModel> Make() {
    return CreateModel(GetParam(), /*num_entities=*/40, /*num_relations=*/6,
                       SmallOptions())
        .ValueOrDie();
  }
};

TEST_P(ScoreBatchTest, PoolOnlyScoreBlockMatchesPerQueryScoreCandidates) {
  auto model = Make();
  // Unsorted candidates with a duplicate: ScoreBlock makes no ordering
  // assumptions about the pool.
  const std::vector<int32_t> candidates = {11, 3, 27, 3, 0, 39, 18};
  const std::vector<int32_t> anchors = {0, 5, 5, 17, 39, 2, 8, 21, 30};
  const size_t n = candidates.size();
  const size_t q = anchors.size();
  CandidateBlock block;
  model->PrepareCandidates(candidates.data(), n, &block);
  std::vector<float> batched(q * n), scalar(n);
  for (int32_t relation : {0, 5}) {
    for (QueryDirection dir :
         {QueryDirection::kTail, QueryDirection::kHead}) {
      model->ScoreBlock(anchors.data(), nullptr, q, relation, dir, block,
                        batched.data(), nullptr);
      for (size_t i = 0; i < q; ++i) {
        model->ScoreCandidates(anchors[i], relation, dir, candidates.data(),
                               n, scalar.data());
        for (size_t c = 0; c < n; ++c) {
          EXPECT_NEAR(batched[i * n + c], scalar[c], 1e-5)
              << ModelTypeName(GetParam()) << " query " << i << " candidate "
              << c;
        }
      }
    }
  }
}

TEST_P(ScoreBatchTest, ScorePairsMatchesSingleCandidateCalls) {
  auto model = Make();
  const std::vector<int32_t> anchors = {1, 4, 4, 19, 33, 0};
  const std::vector<int32_t> candidates = {7, 7, 2, 38, 0, 12};
  std::vector<float> batched(anchors.size());
  for (int32_t relation : {2, 4}) {
    for (QueryDirection dir :
         {QueryDirection::kTail, QueryDirection::kHead}) {
      model->ScorePairs(anchors.data(), candidates.data(), anchors.size(),
                        /*candidates_per_query=*/1, relation, dir,
                        batched.data());
      for (size_t i = 0; i < anchors.size(); ++i) {
        float scalar = 0.0f;
        model->ScoreCandidates(anchors[i], relation, dir, &candidates[i], 1,
                               &scalar);
        EXPECT_NEAR(batched[i], scalar, 1e-5)
            << ModelTypeName(GetParam()) << " pair " << i;
      }
    }
  }
}

TEST_P(ScoreBatchTest, ScorePairsMultiCandidateMatchesExactly) {
  auto model = Make();
  const std::vector<int32_t> anchors = {1, 4, 19, 0};
  // Three candidates per query, with repeats within and across queries.
  const std::vector<int32_t> candidates = {7, 7, 2,  38, 0, 12,
                                           3, 9, 39, 7,  1, 1};
  constexpr size_t kPer = 3;
  std::vector<float> fused(anchors.size() * kPer);
  std::vector<float> scalar(kPer);
  for (int32_t relation : {0, 3}) {
    for (QueryDirection dir :
         {QueryDirection::kTail, QueryDirection::kHead}) {
      model->ScorePairs(anchors.data(), candidates.data(), anchors.size(),
                        kPer, relation, dir, fused.data());
      for (size_t i = 0; i < anchors.size(); ++i) {
        model->ScoreCandidates(anchors[i], relation, dir,
                               candidates.data() + i * kPer, kPer,
                               scalar.data());
        for (size_t j = 0; j < kPer; ++j) {
          EXPECT_EQ(fused[i * kPer + j], scalar[j])
              << ModelTypeName(GetParam()) << " query " << i << " candidate "
              << j;
        }
      }
    }
  }
}

TEST_P(ScoreBatchTest, PreparedScoreBlockMatchesScalarExactly) {
  auto model = Make();
  // Unsorted pool with duplicate candidates: PrepareCandidates must record
  // the unsortedness and ScoreBlock must keep duplicate columns identical.
  const std::vector<int32_t> candidates = {11, 3, 27, 3, 0, 39, 18, 3};
  const std::vector<int32_t> anchors = {0, 5, 5, 17, 39, 2};
  const std::vector<int32_t> truths = {2, 9, 9, 0, 39, 24};
  const size_t n = candidates.size();
  const size_t q = anchors.size();
  CandidateBlock block;
  model->PrepareCandidates(candidates.data(), n, &block);
  EXPECT_EQ(block.ids, candidates);
  EXPECT_FALSE(block.sorted);
  EXPECT_TRUE(block.prepared);
  std::vector<float> pool_scores(q * n), truth_scores(q);
  std::vector<float> scalar(n), pair(1);
  for (int32_t relation : {0, 5}) {
    for (QueryDirection dir :
         {QueryDirection::kTail, QueryDirection::kHead}) {
      model->ScoreBlock(anchors.data(), truths.data(), q, relation, dir,
                        block, pool_scores.data(), truth_scores.data());
      for (size_t i = 0; i < q; ++i) {
        model->ScoreCandidates(anchors[i], relation, dir, candidates.data(),
                               n, scalar.data());
        for (size_t c = 0; c < n; ++c) {
          // Bit-identical, not approximately equal: the prepared kernels
          // accumulate in exactly the scalar order.
          EXPECT_EQ(pool_scores[i * n + c], scalar[c])
              << ModelTypeName(GetParam()) << " query " << i << " candidate "
              << c;
        }
        model->ScoreCandidates(anchors[i], relation, dir, &truths[i], 1,
                               pair.data());
        EXPECT_EQ(truth_scores[i], pair[0])
            << ModelTypeName(GetParam()) << " truth " << i;
      }
    }
  }
}

TEST_P(ScoreBatchTest, PreparedScoreBlockSkipsNullOutputs) {
  auto model = Make();
  const std::vector<int32_t> candidates = {0, 5, 39};
  const std::vector<int32_t> anchors = {3, 12};
  const std::vector<int32_t> truths = {8, 0};
  CandidateBlock block;
  model->PrepareCandidates(candidates.data(), candidates.size(), &block);
  EXPECT_TRUE(block.sorted);
  // Pool-only and truth-only calls must match the fused call's outputs.
  std::vector<float> fused_pool(anchors.size() * candidates.size());
  std::vector<float> fused_truth(anchors.size());
  model->ScoreBlock(anchors.data(), truths.data(), anchors.size(), 1,
                    QueryDirection::kTail, block, fused_pool.data(),
                    fused_truth.data());
  std::vector<float> only_pool(fused_pool.size());
  model->ScoreBlock(anchors.data(), nullptr, anchors.size(), 1,
                    QueryDirection::kTail, block, only_pool.data(), nullptr);
  std::vector<float> only_truth(fused_truth.size());
  model->ScoreBlock(anchors.data(), truths.data(), anchors.size(), 1,
                    QueryDirection::kTail, block, nullptr, only_truth.data());
  EXPECT_EQ(fused_pool, only_pool);
  EXPECT_EQ(fused_truth, only_truth);
}

TEST_P(ScoreBatchTest, UnpreparedBlockFallsBackToScoreCandidates) {
  auto model = Make();
  const std::vector<int32_t> candidates = {11, 3, 27};
  const std::vector<int32_t> anchors = {0, 5};
  const std::vector<int32_t> truths = {2, 9};
  // A block the base class filled in (ids only, no gathered layout).
  CandidateBlock block;
  block.ids = candidates;
  std::vector<float> pool_scores(anchors.size() * candidates.size());
  std::vector<float> truth_scores(anchors.size());
  model->ScoreBlock(anchors.data(), truths.data(), anchors.size(), 0,
                    QueryDirection::kTail, block, pool_scores.data(),
                    truth_scores.data());
  const size_t n = candidates.size();
  std::vector<float> want_pool(pool_scores.size());
  std::vector<float> want_truth(truth_scores.size());
  for (size_t i = 0; i < anchors.size(); ++i) {
    model->ScoreCandidates(anchors[i], 0, QueryDirection::kTail,
                           candidates.data(), n, want_pool.data() + i * n);
    model->ScoreCandidates(anchors[i], 0, QueryDirection::kTail, &truths[i],
                           1, &want_truth[i]);
  }
  EXPECT_EQ(pool_scores, want_pool);
  EXPECT_EQ(truth_scores, want_truth);
}

TEST_P(ScoreBatchTest, EmptyBatchAndEmptyPoolAreNoops) {
  auto model = Make();
  const int32_t candidate = 3;
  const int32_t anchor = 1;
  std::vector<float> untouched(1, -7.0f);
  // No queries: must not touch out.
  CandidateBlock block;
  model->PrepareCandidates(&candidate, 1, &block);
  model->ScoreBlock(nullptr, nullptr, 0, 0, QueryDirection::kTail, block,
                    untouched.data(), nullptr);
  // No candidates: must not touch out.
  CandidateBlock empty;
  model->PrepareCandidates(nullptr, 0, &empty);
  model->ScoreBlock(&anchor, nullptr, 1, 0, QueryDirection::kTail, empty,
                    untouched.data(), nullptr);
  EXPECT_EQ(untouched[0], -7.0f);
}

TEST_P(ScoreBatchTest, PreparedPoolLargerThanOneEntityTile) {
  // A pool wider than the full evaluator's default 32768-entity tile,
  // scored through one prepared block: exercises the gather/transpose and
  // kernels well past the usual tile width.
  auto model = Make();
  constexpr size_t kPool = 40000;
  std::vector<int32_t> candidates(kPool);
  for (size_t c = 0; c < kPool; ++c) {
    candidates[c] = static_cast<int32_t>((c * 7) % 40);  // Many duplicates.
  }
  const std::vector<int32_t> anchors = {4, 31};
  const std::vector<int32_t> truths = {9, 0};
  CandidateBlock block;
  model->PrepareCandidates(candidates.data(), kPool, &block);
  EXPECT_FALSE(block.sorted);
  std::vector<float> pool_scores(anchors.size() * kPool);
  std::vector<float> truth_scores(anchors.size());
  model->ScoreBlock(anchors.data(), truths.data(), anchors.size(), 2,
                    QueryDirection::kTail, block, pool_scores.data(),
                    truth_scores.data());
  std::vector<float> scalar(kPool);
  for (size_t i = 0; i < anchors.size(); ++i) {
    model->ScoreCandidates(anchors[i], 2, QueryDirection::kTail,
                           candidates.data(), kPool, scalar.data());
    for (size_t c = 0; c < kPool; ++c) {
      ASSERT_EQ(pool_scores[i * kPool + c], scalar[c])
          << ModelTypeName(GetParam()) << " query " << i << " candidate "
          << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ScoreBatchTest,
                         ::testing::ValuesIn(kAllModels),
                         [](const ::testing::TestParamInfo<ModelType>& info) {
                           return ModelTypeName(info.param);
                         });

Dataset SynthDataset() {
  SynthConfig config;
  config.num_entities = 500;
  config.num_relations = 12;
  config.num_types = 8;
  config.num_train = 6000;
  config.num_valid = 400;
  config.num_test = 400;
  config.seed = 42;
  return GenerateDataset(config).ValueOrDie().dataset;
}

TEST(SlotMajorEvaluatorTest, RanksIdenticalToScalarTripleMajorOrder) {
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  Rng rng(13);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kRandom, nullptr, dataset.num_entities(),
      /*n_s=*/60, NeededSlots(dataset, Split::kTest),
      2 * dataset.num_relations(), &rng);
  for (ModelType type : kAllModels) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), SmallOptions())
                     .ValueOrDie();
    // The engine: pools prepared once + fused ScoreBlock.
    const SampledEvalResult prepared =
        EvaluateSampled(*model, dataset, filter, Split::kTest, pools);
    const SampledEvalResult scalar =
        EvaluateSampledScalar(*model, dataset, filter, Split::kTest, pools);
    ASSERT_EQ(prepared.ranks.size(), scalar.ranks.size());
    for (size_t i = 0; i < prepared.ranks.size(); ++i) {
      EXPECT_EQ(prepared.ranks[i], scalar.ranks[i])
          << ModelTypeName(type) << " query " << i;
    }
    EXPECT_EQ(prepared.scored_candidates, scalar.scored_candidates);
    EXPECT_DOUBLE_EQ(prepared.metrics.mrr, scalar.metrics.mrr);
  }
}

TEST(SlotMajorEvaluatorTest, MaxTriplesPrefixMatchesScalar) {
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  Rng rng(29);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kRandom, nullptr, dataset.num_entities(),
      /*n_s=*/40, NeededSlots(dataset, Split::kTest),
      2 * dataset.num_relations(), &rng);
  auto model = CreateModel(ModelType::kDistMult, dataset.num_entities(),
                           dataset.num_relations(), SmallOptions())
                   .ValueOrDie();
  SampledEvalOptions options;
  options.max_triples = 57;
  const SampledEvalResult batched = EvaluateSampled(
      *model, dataset, filter, Split::kTest, pools, options);
  const SampledEvalResult scalar = EvaluateSampledScalar(
      *model, dataset, filter, Split::kTest, pools, options);
  EXPECT_EQ(batched.ranks, scalar.ranks);
  EXPECT_EQ(batched.ranks.size(), 2u * 57u);
}

TEST(SlotMajorEvaluatorTest, FullRankingUsesBatchedTilingConsistently) {
  // The tiled slot-major full evaluator must agree with a direct ScoreAll
  // walk; DistMult + RotatE cover the dot-product and distance kernels.
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  for (ModelType type : {ModelType::kDistMult, ModelType::kRotatE}) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), SmallOptions())
                     .ValueOrDie();
    FullEvalOptions options;
    options.max_triples = 40;
    const FullEvalResult result =
        EvaluateFullRanking(*model, dataset, filter, Split::kTest, options);
    std::vector<float> scores(dataset.num_entities());
    for (int64_t i = 0; i < options.max_triples; ++i) {
      const Triple& triple = dataset.test()[i];
      for (QueryDirection dir :
           {QueryDirection::kTail, QueryDirection::kHead}) {
        const bool tail_dir = dir == QueryDirection::kTail;
        const int32_t anchor = tail_dir ? triple.head : triple.tail;
        const int32_t truth = tail_dir ? triple.tail : triple.head;
        model->ScoreAll(anchor, triple.relation, dir, scores.data());
        const std::vector<int32_t>* answers = filter.AnswersFor(triple, dir);
        ASSERT_NE(answers, nullptr);
        int64_t higher = 0, tied = 0;
        size_t cursor = 0;
        for (int32_t e = 0; e < dataset.num_entities(); ++e) {
          while (cursor < answers->size() && (*answers)[cursor] < e) {
            ++cursor;
          }
          if (cursor < answers->size() && (*answers)[cursor] == e) continue;
          if (scores[e] > scores[truth]) {
            ++higher;
          } else if (scores[e] == scores[truth]) {
            ++tied;
          }
        }
        EXPECT_EQ(result.ranks[i * 2 + (tail_dir ? 0 : 1)],
                  RankFromCounts(higher, tied, options.tie))
            << ModelTypeName(type) << " triple " << i;
      }
    }
  }
}

TEST(SlotMajorEvaluatorTest, SmallEntityTilesMatchDefaultTile) {
  // Forcing many small prepared tiles must not change a single rank: the
  // per-tile kernels are bit-identical and the filtered counting walk is
  // tile-order independent.
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  for (ModelType type : {ModelType::kDistMult, ModelType::kConvE}) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), SmallOptions())
                     .ValueOrDie();
    FullEvalOptions defaults;
    defaults.max_triples = 30;
    const FullEvalResult one_tile =
        EvaluateFullRanking(*model, dataset, filter, Split::kTest, defaults);
    FullEvalOptions tiny = defaults;
    tiny.entity_tile = 64;  // 500 entities -> 8 tiles.
    const FullEvalResult many_tiles =
        EvaluateFullRanking(*model, dataset, filter, Split::kTest, tiny);
    EXPECT_EQ(one_tile.ranks, many_tiles.ranks) << ModelTypeName(type);
  }
}

TEST(ScoreTriplesTest, MatchesScoreTriple) {
  const Dataset dataset = SynthDataset();
  auto model = CreateModel(ModelType::kComplEx, dataset.num_entities(),
                           dataset.num_relations(), SmallOptions())
                   .ValueOrDie();
  const size_t n = 100;
  std::vector<float> batched(n);
  ScoreTriples(*model, dataset.test().data(), n, batched.data());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(batched[i], model->ScoreTriple(dataset.test()[i]), 1e-5)
        << "triple " << i;
  }
}

TEST(ScoreTriplesTest, WithNegativesMatchesIndependentPasses) {
  const Dataset dataset = SynthDataset();
  const size_t n = 60;
  constexpr size_t kNeg = 2;
  for (ModelType type : kAllModels) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), SmallOptions())
                     .ValueOrDie();
    // Deterministic tail corruptions sharing each positive's head/relation.
    std::vector<Triple> negatives;
    negatives.reserve(n * kNeg);
    for (size_t i = 0; i < n; ++i) {
      const Triple& t = dataset.test()[i];
      for (size_t j = 0; j < kNeg; ++j) {
        const int32_t corrupt = static_cast<int32_t>(
            (t.tail + 1 + static_cast<int32_t>(i + j)) %
            dataset.num_entities());
        negatives.push_back({t.head, t.relation, corrupt});
      }
    }
    std::vector<float> pos(n), neg(n * kNeg);
    ScoreTriplesWithNegatives(*model, dataset.test().data(), n,
                              negatives.data(), kNeg, pos.data(), neg.data());
    std::vector<float> want_pos(n), want_neg(n * kNeg);
    ScoreTriples(*model, dataset.test().data(), n, want_pos.data());
    ScoreTriples(*model, negatives.data(), negatives.size(),
                 want_neg.data());
    EXPECT_EQ(pos, want_pos) << ModelTypeName(type);
    EXPECT_EQ(neg, want_neg) << ModelTypeName(type);
  }
}

}  // namespace
}  // namespace kgeval
