#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "eval/full_evaluator.h"
#include "eval/metrics.h"
#include "graph/dataset.h"
#include "models/kge_model.h"
#include "util/rng.h"

namespace kgeval {
namespace {

/// A model whose score is supplied by a lambda — lets tests pin exact
/// rankings.
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

  void UpdateTriple(int32_t, int32_t, int32_t, QueryDirection,
                    float) override {}

  void CollectParameters(std::vector<NamedParameter>*) override {}

 private:
  ScoreFn fn_;
};

TEST(RankFromCountsTest, Conventions) {
  EXPECT_DOUBLE_EQ(RankFromCounts(0, 0, TieBreak::kMean), 1.0);
  EXPECT_DOUBLE_EQ(RankFromCounts(3, 0, TieBreak::kMean), 4.0);
  EXPECT_DOUBLE_EQ(RankFromCounts(3, 2, TieBreak::kMean), 5.0);
  EXPECT_DOUBLE_EQ(RankFromCounts(3, 2, TieBreak::kOptimistic), 4.0);
  EXPECT_DOUBLE_EQ(RankFromCounts(3, 2, TieBreak::kPessimistic), 6.0);
}

TEST(MetricsTest, FromRanksBasics) {
  const RankingMetrics m = RankingMetrics::FromRanks({1, 2, 4, 10, 100});
  EXPECT_EQ(m.num_queries, 5);
  EXPECT_NEAR(m.mrr, (1.0 + 0.5 + 0.25 + 0.1 + 0.01) / 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.hits1, 0.2);
  EXPECT_DOUBLE_EQ(m.hits3, 0.4);
  EXPECT_DOUBLE_EQ(m.hits10, 0.8);
  EXPECT_DOUBLE_EQ(m.mean_rank, 23.4);
}

TEST(MetricsTest, EmptyRanks) {
  const RankingMetrics m = RankingMetrics::FromRanks({});
  EXPECT_EQ(m.num_queries, 0);
  EXPECT_EQ(m.mrr, 0.0);
}

TEST(MetricsTest, GetByKind) {
  const RankingMetrics m = RankingMetrics::FromRanks({1, 2});
  EXPECT_DOUBLE_EQ(m.Get(MetricKind::kMrr), m.mrr);
  EXPECT_DOUBLE_EQ(m.Get(MetricKind::kHits1), m.hits1);
  EXPECT_DOUBLE_EQ(m.Get(MetricKind::kHits3), m.hits3);
  EXPECT_DOUBLE_EQ(m.Get(MetricKind::kHits10), m.hits10);
}

TEST(MetricsTest, NamesAreStable) {
  EXPECT_STREQ(MetricKindName(MetricKind::kMrr), "MRR");
  EXPECT_STREQ(MetricKindName(MetricKind::kHits10), "Hits@10");
}

TEST(FilteredRankTest, CountsHigherAndFiltered) {
  // Candidates 0..4 with scores; truth is entity 2 (score 5). Entities 0
  // (score 9) and 1 (score 7) outrank it, but 1 is a known answer ->
  // filtered. Rank = 1 + 1 higher = 2.
  const int32_t candidates[5] = {0, 1, 2, 3, 4};
  const float scores[5] = {9, 7, 5, 3, 1};
  const std::vector<int32_t> answers = {1, 2};
  EXPECT_DOUBLE_EQ(FilteredRank(candidates, scores, 5, 2, 5.0f, answers,
                                TieBreak::kMean, /*candidates_sorted=*/true),
                   2.0);
}

TEST(FilteredRankTest, TiesUseConvention) {
  const int32_t candidates[4] = {0, 1, 2, 3};
  const float scores[4] = {5, 5, 5, 1};
  const std::vector<int32_t> answers = {0};
  // Truth = 0 with score 5; candidates 1 and 2 tie with it.
  EXPECT_DOUBLE_EQ(FilteredRank(candidates, scores, 4, 0, 5.0f, answers,
                                TieBreak::kMean, /*candidates_sorted=*/true),
                   2.0);
  EXPECT_DOUBLE_EQ(FilteredRank(candidates, scores, 4, 0, 5.0f, answers,
                                TieBreak::kOptimistic,
                                /*candidates_sorted=*/true),
                   1.0);
  EXPECT_DOUBLE_EQ(FilteredRank(candidates, scores, 4, 0, 5.0f, answers,
                                TieBreak::kPessimistic,
                                /*candidates_sorted=*/true),
                   3.0);
}

TEST(FilteredRankTest, TruthDuplicatesInPoolIgnored) {
  const int32_t candidates[3] = {2, 2, 4};
  const float scores[3] = {5, 5, 9};
  const std::vector<int32_t> answers = {2};
  EXPECT_DOUBLE_EQ(FilteredRank(candidates, scores, 3, 2, 5.0f, answers,
                                TieBreak::kMean, /*candidates_sorted=*/true),
                   2.0);
}

// The sorted count-then-subtract branch of CountFilteredRank against its
// unsorted reference walk, on seeded random pools: duplicate ids, exact
// score ties (scores come from 5 levels), truths and answers outside the
// pool, answer lists with and without the truth, and every TieBreak. Also
// checks that counts over a split of the pool add up, which the full
// evaluator's per-tile count relies on.
TEST(FilteredRankTest, SortedCountMatchesReferenceWalk) {
  constexpr int32_t kEntities = 40;
  int64_t ties_seen = 0, filtered_seen = 0;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed);
    std::vector<float> level(kEntities + 10);
    for (float& l : level) l = static_cast<float>(rng.NextBounded(5));
    const size_t n = rng.NextBounded(60);
    std::vector<int32_t> pool(n);
    for (int32_t& id : pool) {
      id = static_cast<int32_t>(rng.NextBounded(kEntities));
    }
    std::sort(pool.begin(), pool.end());
    std::vector<float> scores(n);
    for (size_t i = 0; i < n; ++i) scores[i] = level[pool[i]];
    // Ids in [kEntities, kEntities + 10) never appear in the pool.
    const int32_t truth =
        static_cast<int32_t>(rng.NextBounded(kEntities + 10));
    const float truth_score = level[truth];
    std::vector<int32_t> answers(rng.NextBounded(8));
    for (int32_t& a : answers) {
      a = static_cast<int32_t>(rng.NextBounded(kEntities + 10));
    }
    if (rng.NextBounded(2) == 0) answers.push_back(truth);
    std::sort(answers.begin(), answers.end());

    const RankCounts want =
        CountFilteredRank(pool.data(), scores.data(), n, truth, truth_score,
                          answers, /*candidates_sorted=*/false);
    const RankCounts got =
        CountFilteredRank(pool.data(), scores.data(), n, truth, truth_score,
                          answers, /*candidates_sorted=*/true);
    EXPECT_EQ(got.higher, want.higher) << "seed " << seed;
    EXPECT_EQ(got.tied, want.tied) << "seed " << seed;

    const size_t cut = n == 0 ? 0 : rng.NextBounded(n + 1);
    RankCounts split =
        CountFilteredRank(pool.data(), scores.data(), cut, truth,
                          truth_score, answers, /*candidates_sorted=*/true);
    split += CountFilteredRank(pool.data() + cut, scores.data() + cut,
                               n - cut, truth, truth_score, answers,
                               /*candidates_sorted=*/true);
    EXPECT_EQ(split.higher, want.higher) << "seed " << seed;
    EXPECT_EQ(split.tied, want.tied) << "seed " << seed;

    for (TieBreak tie :
         {TieBreak::kMean, TieBreak::kOptimistic, TieBreak::kPessimistic}) {
      EXPECT_EQ(FilteredRank(pool.data(), scores.data(), n, truth,
                             truth_score, answers, tie, true),
                FilteredRank(pool.data(), scores.data(), n, truth,
                             truth_score, answers, tie, false))
          << "seed " << seed;
    }
    ties_seen += want.tied;
    for (int32_t id : pool) {
      filtered_seen += id == truth ||
                       std::binary_search(answers.begin(), answers.end(), id);
    }
  }
  // The generator must actually exercise the tie and subtraction paths.
  EXPECT_GT(ties_seen, 0);
  EXPECT_GT(filtered_seen, 0);
}

// A 4-entity hand-checkable dataset for full-ranking tests.
Dataset HandDataset() {
  std::vector<Triple> train = {{0, 0, 1}, {2, 0, 1}, {0, 0, 3}};
  std::vector<Triple> test = {{0, 0, 2}};
  return Dataset("hand", 4, 1, std::move(train), {}, std::move(test),
                 TypeStore());
}

TEST(FullEvaluatorTest, HandComputedRanks) {
  Dataset d = HandDataset();
  FilterIndex filter(d);
  // Score(h, r, t) = 10*h + t: strictly increasing in t for fixed head.
  FakeModel model(4, 1, [](int32_t h, int32_t, int32_t t) {
    return static_cast<float>(10 * h + t);
  });
  const FullEvalResult result =
      EvaluateFullRanking(model, d, filter, Split::kTest);
  ASSERT_EQ(result.ranks.size(), 2u);
  // Tail query (0, 0, ?) with truth 2: candidates scores 0,1,2,3; filtered
  // answers {1, 2, 3} leave {0}; higher than 2: none -> rank 1.
  EXPECT_DOUBLE_EQ(result.ranks[0], 1.0);
  // Head query (?, 0, 2) with truth 0: candidate heads score 10h+2, higher
  // heads 1,2,3; filtered heads for (0, 2) = {0} only, so 1,2,3 all count
  // -> rank 4.
  EXPECT_DOUBLE_EQ(result.ranks[1], 4.0);
  EXPECT_DOUBLE_EQ(result.metrics.mrr, (1.0 + 0.25) / 2.0);
}

TEST(FullEvaluatorTest, MaxTriplesCapsWork) {
  std::vector<Triple> train = {{0, 0, 1}, {1, 0, 2}, {2, 0, 3}};
  std::vector<Triple> test = {{0, 0, 2}, {1, 0, 3}, {0, 0, 3}};
  Dataset d("cap", 4, 1, std::move(train), {}, std::move(test), TypeStore());
  FilterIndex filter(d);
  FakeModel model(4, 1,
                  [](int32_t h, int32_t, int32_t t) {
                    return static_cast<float>(h + t);
                  });
  FullEvalOptions options;
  options.max_triples = 2;
  const FullEvalResult result =
      EvaluateFullRanking(model, d, filter, Split::kTest, options);
  EXPECT_EQ(result.ranks.size(), 4u);
  EXPECT_EQ(result.metrics.num_queries, 4);
}

TEST(FullEvaluatorTest, PerfectModelGetsMrrOne) {
  Dataset d = HandDataset();
  FilterIndex filter(d);
  // Give the true test triple (0,0,2) the top score everywhere.
  FakeModel model(4, 1, [](int32_t h, int32_t, int32_t t) {
    if (h == 0 && t == 2) return 100.0f;
    return static_cast<float>(-h - t);
  });
  const FullEvalResult result =
      EvaluateFullRanking(model, d, filter, Split::kTest);
  EXPECT_DOUBLE_EQ(result.metrics.mrr, 1.0);
  EXPECT_DOUBLE_EQ(result.metrics.hits1, 1.0);
}

TEST(FullEvaluatorTest, ConstantModelMeanTieRank) {
  Dataset d = HandDataset();
  FilterIndex filter(d);
  FakeModel model(4, 1, [](int32_t, int32_t, int32_t) { return 1.0f; });
  const FullEvalResult result =
      EvaluateFullRanking(model, d, filter, Split::kTest);
  // Tail query: effective candidates {0, 2}; all tied -> rank 1.5.
  EXPECT_DOUBLE_EQ(result.ranks[0], 1.5);
  // Head query: candidates {0,1,2,3} minus filtered {0} -> 3 ties ->
  // rank 1 + 3/2 = 2.5.
  EXPECT_DOUBLE_EQ(result.ranks[1], 2.5);
}

}  // namespace
}  // namespace kgeval
