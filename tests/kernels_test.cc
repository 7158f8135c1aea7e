#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "core/sampled_evaluator.h"
#include "eval/full_evaluator.h"
#include "eval/protocol.h"
#include "eval/screen.h"
#include "la/kernels/kernels.h"
#include "models/kge_model.h"
#include "synth/config.h"
#include "synth/generator.h"

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

Dataset TemporalSynthDataset(int32_t num_timestamps) {
  const Dataset base = SynthDataset();
  auto stamp = [num_timestamps](std::vector<Triple> triples) {
    for (Triple& t : triples) {
      t.time = (t.head * 31 + t.tail * 7 + t.relation) % num_timestamps;
    }
    return triples;
  };
  return Dataset(base.name() + "-temporal", base.num_entities(),
                 base.num_relations(), num_timestamps, stamp(base.train()),
                 stamp(base.valid()), stamp(base.test()), base.types());
}

/// Restores auto-selection when a test that forced a kernel path exits, so
/// test order never leaks a forced path into another test.
struct KernelGuard {
  ~KernelGuard() { SelectScoreKernels("auto"); }
};

bool Contains(const std::vector<std::string>& names,
              const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

// ---------------------------------------------------------------------------
// Registry: compiled/supported listings, selection, and error handling.

TEST(KernelRegistryTest, ScalarIsAlwaysCompiledAndSupported) {
  const std::vector<std::string> compiled = CompiledScoreKernelNames();
  const std::vector<std::string> supported = SupportedScoreKernelNames();
  EXPECT_TRUE(Contains(compiled, "scalar"));
  EXPECT_TRUE(Contains(supported, "scalar"));
  for (const std::string& name : supported) {
    EXPECT_TRUE(Contains(compiled, name))
        << name << " supported but not compiled";
  }
  EXPECT_TRUE(Contains(supported, ActiveScoreKernelName()));
}

TEST(KernelRegistryTest, UnknownNameIsInvalidArgumentAndKeepsActive) {
  KernelGuard guard;
  const std::string before = ActiveScoreKernelName();
  const Status status = SelectScoreKernels("pentium");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ActiveScoreKernelName(), before);
}

TEST(KernelRegistryTest, CompiledButUnsupportedNameFails) {
  KernelGuard guard;
  const std::vector<std::string> supported = SupportedScoreKernelNames();
  for (const std::string& name : CompiledScoreKernelNames()) {
    if (Contains(supported, name)) continue;
    EXPECT_FALSE(SelectScoreKernels(name).ok())
        << name << " is not runnable on this CPU and must not select";
  }
}

TEST(KernelRegistryTest, SelectScalarThenAutoRestoresWidestPath) {
  KernelGuard guard;
  ASSERT_TRUE(SelectScoreKernels("scalar").ok());
  EXPECT_STREQ(ActiveScoreKernelName(), "scalar");
  ASSERT_TRUE(SelectScoreKernels("auto").ok());
  // Auto re-probes the CPU: the widest supported path wins (listings are
  // widest-first).
  EXPECT_EQ(ActiveScoreKernelName(), SupportedScoreKernelNames().front());
}

// ---------------------------------------------------------------------------
// Dispatched-vs-scalar bit equality: every supported implementation must
// produce bit-identical prepared-pool and truth scores for every model and
// both query directions.

class KernelParityTest : public ::testing::TestWithParam<ModelType> {
 protected:
  std::unique_ptr<KgeModel> Make() {
    return CreateModel(GetParam(), /*num_entities=*/40, /*num_relations=*/6,
                       SmallOptions())
        .ValueOrDie();
  }
};

TEST_P(KernelParityTest, EverySupportedKernelMatchesScalarBitExactly) {
  KernelGuard guard;
  auto model = Make();
  const std::vector<int32_t> candidates = {11, 3, 27, 3, 0, 39, 18, 3};
  const std::vector<int32_t> anchors = {0, 5, 5, 17, 39, 2};
  const std::vector<int32_t> truths = {2, 9, 9, 0, 39, 24};
  const size_t n = candidates.size();
  const size_t q = anchors.size();
  CandidateBlock block;
  model->PrepareCandidates(candidates.data(), n, &block);

  struct Output {
    std::vector<float> pool, truth;
  };
  auto score_all = [&] {
    Output out;
    std::vector<float> pool(q * n), truth(q);
    for (int32_t relation : {0, 5}) {
      for (QueryDirection dir :
           {QueryDirection::kTail, QueryDirection::kHead}) {
        model->ScoreBlock(anchors.data(), truths.data(), q, relation, dir,
                          block, pool.data(), truth.data());
        out.pool.insert(out.pool.end(), pool.begin(), pool.end());
        out.truth.insert(out.truth.end(), truth.begin(), truth.end());
      }
    }
    return out;
  };

  ASSERT_TRUE(SelectScoreKernels("scalar").ok());
  const Output reference = score_all();
  for (const std::string& name : SupportedScoreKernelNames()) {
    ASSERT_TRUE(SelectScoreKernels(name).ok()) << name;
    const Output got = score_all();
    // Bit-identical, not approximately equal: the dispatch contract.
    EXPECT_EQ(got.pool, reference.pool)
        << ModelTypeName(GetParam()) << " under " << name;
    EXPECT_EQ(got.truth, reference.truth)
        << ModelTypeName(GetParam()) << " under " << name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, KernelParityTest,
                         ::testing::ValuesIn(kAllModels),
                         [](const ::testing::TestParamInfo<ModelType>& info) {
                           return ModelTypeName(info.param);
                         });

// ---------------------------------------------------------------------------
// Screening: the quantization error bound must dominate the actual
// |approx - exact| error — for each kernel family, on every supported
// implementation.

TEST(ScreenBoundTest, ErrorBoundHoldsForEveryKernelFamily) {
  KernelGuard guard;
  // DistMult = kDot, TransE = kNegL1, RotatE = kNegComplexDist, ConvE adds
  // the per-entity bias to the dot family.
  for (ModelType type : {ModelType::kDistMult, ModelType::kTransE,
                         ModelType::kRotatE, ModelType::kConvE}) {
    auto model = CreateModel(type, /*num_entities=*/60, /*num_relations=*/4,
                             SmallOptions())
                     .ValueOrDie();
    std::vector<int32_t> pool(60);
    std::iota(pool.begin(), pool.end(), 0);
    CandidateBlock block;
    model->PrepareCandidates(pool.data(), pool.size(), &block);
    ASSERT_TRUE(block.prepared);
    QuantizeCandidateBlock(&block);
    ASSERT_TRUE(block.quantized);

    const std::vector<int32_t> anchors = {0, 7, 31, 59, 12, 3};
    for (const std::string& name : SupportedScoreKernelNames()) {
      ASSERT_TRUE(SelectScoreKernels(name).ok()) << name;
      for (QueryDirection dir :
           {QueryDirection::kTail, QueryDirection::kHead}) {
        Matrix queries;
        model->BuildKernelQueries(anchors.data(), anchors.size(), 1, dir,
                                  &queries);
        const size_t dim = queries.cols();
        ScreenScratch scratch;
        ScreenApproxBlock(*model, queries, anchors.size(), block, &scratch);
        std::vector<float> exact(anchors.size() * pool.size());
        model->ScorePool(queries, block, exact.data());
        for (size_t i = 0; i < anchors.size(); ++i) {
          const float bound = ScreenErrorBound(model->batch_kernel(),
                                               queries.Row(i), dim, block);
          EXPECT_GT(bound, 0.0f);
          for (size_t c = 0; c < pool.size(); ++c) {
            const float e = exact[i * pool.size() + c];
            const float a = scratch.approx[i * pool.size() + c];
            EXPECT_LE(std::fabs(a - e), bound)
                << ModelTypeName(type) << " kernels=" << name << " query "
                << i << " candidate " << c;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end rank parity: full-ranking screening on vs off must be
// bit-identical for every model and the temporal protocol, and must match
// the scalar sampled oracle over all-entity pools.

TEST(ScreenedEvalTest, FullRankingBitIdenticalForEveryModel) {
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  for (ModelType type : kAllModels) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), SmallOptions())
                     .ValueOrDie();
    FullEvalOptions exact_options;
    exact_options.max_triples = 40;
    exact_options.entity_tile = 64;  // 500 entities -> 8 tiles.
    const FullEvalResult exact = EvaluateFullRanking(
        *model, dataset, filter, Split::kTest, exact_options);
    FullEvalOptions screened_options = exact_options;
    screened_options.screening = true;
    const FullEvalResult screened = EvaluateFullRanking(
        *model, dataset, filter, Split::kTest, screened_options);
    EXPECT_EQ(screened.ranks, exact.ranks) << ModelTypeName(type);
    EXPECT_EQ(exact.screen.queries, 0);
    EXPECT_GT(screened.screen.queries, 0) << ModelTypeName(type);
    // The whole point: the screen re-scores a subset of what it swept.
    EXPECT_LE(screened.screen.rescored, screened.screen.screened);
  }
}

TEST(ScreenedEvalTest, TemporalProtocolRanksBitIdentical) {
  const Dataset dataset = TemporalSynthDataset(/*num_timestamps=*/5);
  const TemporalFilterIndex filter(dataset);
  const TemporalFilteredProtocol protocol(dataset, &filter);
  ModelOptions model_options = SmallOptions();
  model_options.num_timestamps = dataset.num_timestamps();
  for (ModelType type : {ModelType::kTComplEx, ModelType::kRotatE}) {
    auto model = CreateModel(type, dataset.num_entities(),
                             dataset.num_relations(), model_options)
                     .ValueOrDie();
    FullEvalOptions exact_options;
    exact_options.max_triples = 40;
    exact_options.entity_tile = 64;
    const FullEvalResult exact = EvaluateFullRanking(
        *model, dataset, protocol, Split::kTest, exact_options);
    FullEvalOptions screened_options = exact_options;
    screened_options.screening = true;
    const FullEvalResult screened = EvaluateFullRanking(
        *model, dataset, protocol, Split::kTest, screened_options);
    EXPECT_EQ(screened.ranks, exact.ranks) << ModelTypeName(type);
    EXPECT_GT(screened.screen.queries, 0) << ModelTypeName(type);
  }
}

TEST(ScreenedEvalTest, ExhaustivePoolsMatchScreenedFullRanking) {
  const Dataset dataset = SynthDataset();
  const FilterIndex filter(dataset);
  SampledCandidates pools;
  std::vector<int32_t> all(dataset.num_entities());
  std::iota(all.begin(), all.end(), 0);
  pools.pools.assign(2 * dataset.num_relations(), all);
  auto model = CreateModel(ModelType::kDistMult, dataset.num_entities(),
                           dataset.num_relations(), SmallOptions())
                   .ValueOrDie();
  SampledEvalOptions sampled_options;
  sampled_options.max_triples = 40;
  const SampledEvalResult oracle = EvaluateSampledScalar(
      *model, dataset, filter, Split::kTest, pools, sampled_options);
  FullEvalOptions full_options;
  full_options.max_triples = 40;
  full_options.screening = true;
  full_options.entity_tile = 128;
  const FullEvalResult full = EvaluateFullRanking(
      *model, dataset, filter, Split::kTest, full_options);
  // Exhaustive pools rank against exactly the entity set, so the scalar
  // oracle and the screened (tiled) full pass must agree rank-for-rank.
  EXPECT_EQ(oracle.ranks, full.ranks);
  EXPECT_GT(full.screen.queries, 0);
}

}  // namespace
}  // namespace kgeval
