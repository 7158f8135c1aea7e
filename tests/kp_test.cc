#include <gtest/gtest.h>

#include <cmath>

#include "core/framework.h"
#include "kp/kp_metric.h"
#include "kp/persistence.h"
#include "models/trainer.h"
#include "synth/config.h"
#include "synth/generator.h"

namespace kgeval {
namespace {

TEST(PersistenceTest, EmptyGraph) {
  const PersistenceDiagram d = ComputeZeroDimPersistence(5, {});
  EXPECT_TRUE(d.points.empty());
}

TEST(PersistenceTest, SingleEdgeHasOneEssentialClass) {
  // Two vertices joined at weight 1: one component born at 1, never dies;
  // closed at max weight 1 -> zero persistence, dropped.
  const PersistenceDiagram d =
      ComputeZeroDimPersistence(2, {{0, 1, 1.0f}});
  EXPECT_TRUE(d.points.empty());
}

TEST(PersistenceTest, ChainMergesProduceFinitePairs) {
  // Path 0-1 (w=1), 2-3 (w=2), 1-2 (w=5): components {0,1} born 1 and
  // {2,3} born 2 merge at 5 -> the younger (birth 2) dies: point (2, 5).
  const PersistenceDiagram d = ComputeZeroDimPersistence(
      4, {{0, 1, 1.0f}, {2, 3, 2.0f}, {1, 2, 5.0f}});
  ASSERT_EQ(d.points.size(), 2u);
  // One finite merge pair (2,5) and one essential class (1, max=5).
  EXPECT_FLOAT_EQ(d.points[0].first, 2.0f);
  EXPECT_FLOAT_EQ(d.points[0].second, 5.0f);
  EXPECT_FLOAT_EQ(d.points[1].first, 1.0f);
  EXPECT_FLOAT_EQ(d.points[1].second, 5.0f);
}

TEST(PersistenceTest, RedundantEdgesCreateNoPoints) {
  // A triangle: vertex 2 is born at w=2 and merges at w=2 (zero
  // persistence, dropped); the third edge closes a cycle (no 0-dim event).
  // Only the essential component (born 1, closed at max weight 3) remains.
  const PersistenceDiagram d = ComputeZeroDimPersistence(
      3, {{0, 1, 1.0f}, {1, 2, 2.0f}, {0, 2, 3.0f}});
  ASSERT_EQ(d.points.size(), 1u);
  EXPECT_FLOAT_EQ(d.points[0].first, 1.0f);
  EXPECT_FLOAT_EQ(d.points[0].second, 3.0f);
}

TEST(PersistenceTest, DisconnectedComponentsAllClosed) {
  const PersistenceDiagram d = ComputeZeroDimPersistence(
      6, {{0, 1, 1.0f}, {2, 3, 2.0f}, {4, 5, 3.0f}});
  // Three essential components born at 1, 2, 3, closed at 3; the born-at-3
  // one has zero persistence and is dropped.
  ASSERT_EQ(d.points.size(), 2u);
}

TEST(PersistenceTest, IsolatedVerticesIgnored) {
  const PersistenceDiagram with_isolated =
      ComputeZeroDimPersistence(10, {{0, 1, 1.0f}, {1, 2, 4.0f}});
  const PersistenceDiagram compact =
      ComputeZeroDimPersistence(3, {{0, 1, 1.0f}, {1, 2, 4.0f}});
  EXPECT_EQ(with_isolated.points.size(), compact.points.size());
}

TEST(SlicedWassersteinTest, IdenticalDiagramsZero) {
  PersistenceDiagram d;
  d.points = {{0.1f, 0.5f}, {0.2f, 0.9f}};
  EXPECT_NEAR(SlicedWassersteinDistance(d, d), 0.0, 1e-9);
}

TEST(SlicedWassersteinTest, Symmetric) {
  PersistenceDiagram a, b;
  a.points = {{0.0f, 1.0f}};
  b.points = {{0.2f, 0.4f}, {0.5f, 0.8f}};
  EXPECT_NEAR(SlicedWassersteinDistance(a, b),
              SlicedWassersteinDistance(b, a), 1e-9);
}

TEST(SlicedWassersteinTest, PositiveForDifferentDiagrams) {
  PersistenceDiagram a, b;
  a.points = {{0.0f, 1.0f}};
  b.points = {{0.0f, 0.1f}};
  EXPECT_GT(SlicedWassersteinDistance(a, b), 0.0);
}

TEST(SlicedWassersteinTest, GrowsWithSeparation) {
  PersistenceDiagram base, near, far;
  base.points = {{0.0f, 0.2f}};
  near.points = {{0.0f, 0.3f}};
  far.points = {{0.0f, 2.0f}};
  EXPECT_LT(SlicedWassersteinDistance(base, near),
            SlicedWassersteinDistance(base, far));
}

TEST(SlicedWassersteinTest, EmptyVsEmptyIsZero) {
  PersistenceDiagram a, b;
  EXPECT_EQ(SlicedWassersteinDistance(a, b), 0.0);
}

class KpFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthConfig config;
    config.num_entities = 500;
    config.num_relations = 12;
    config.num_types = 10;
    config.num_train = 6000;
    config.num_valid = 500;
    config.num_test = 500;
    config.seed = 71;
    dataset_ = new Dataset(GenerateDataset(config).ValueOrDie().dataset);
    ModelOptions options;
    options.dim = 24;
    auto model = CreateModel(ModelType::kDistMult, dataset_->num_entities(),
                             dataset_->num_relations(), options)
                     .ValueOrDie();
    TrainerOptions trainer_options;
    trainer_options.epochs = 6;
    // Hogwild training races by design; one thread keeps the suite
    // race-free under TSan, where its draws run on pool workers.
    trainer_options.num_threads = 1;
    Trainer trainer(dataset_, trainer_options);
    ASSERT_TRUE(trainer.Train(model.get()).ok());
    model_ = model.release();
  }
  static void TearDownTestSuite() {
    delete model_;
    delete dataset_;
  }
  static Dataset* dataset_;
  static KgeModel* model_;
};

Dataset* KpFixture::dataset_ = nullptr;
KgeModel* KpFixture::model_ = nullptr;

TEST_F(KpFixture, ScoreIsFiniteAndTimed) {
  KpOptions options;
  options.num_samples = 300;
  const KpResult result =
      ComputeKp(*model_, *dataset_, Split::kTest, options);
  EXPECT_TRUE(std::isfinite(result.score));
  EXPECT_GE(result.score, 0.0);
  EXPECT_GT(result.positive_edges, 0);
  EXPECT_EQ(result.positive_edges, result.negative_edges);
  EXPECT_GE(result.seconds, 0.0);
}

TEST_F(KpFixture, DeterministicGivenSeed) {
  KpOptions options;
  options.num_samples = 200;
  options.seed = 9;
  const KpResult a = ComputeKp(*model_, *dataset_, Split::kTest, options);
  const KpResult b = ComputeKp(*model_, *dataset_, Split::kTest, options);
  EXPECT_DOUBLE_EQ(a.score, b.score);
}

TEST_F(KpFixture, GuidedPoolsChangeTheScore) {
  KpOptions options;
  options.num_samples = 300;
  const KpResult uniform =
      ComputeKp(*model_, *dataset_, Split::kTest, options);

  FrameworkOptions fw_options;
  fw_options.strategy = SamplingStrategy::kProbabilistic;
  fw_options.sample_fraction = 0.2;
  auto framework =
      EvaluationFramework::Build(dataset_, fw_options).ValueOrDie();
  Rng rng(5);
  const SampledCandidates pools = DrawCandidates(
      SamplingStrategy::kProbabilistic, &framework->sets(),
      dataset_->num_entities(), framework->SampleSize(),
      NeededSlots(*dataset_, Split::kTest),
      2 * dataset_->num_relations(), &rng);
  const KpResult guided =
      ComputeKp(*model_, *dataset_, Split::kTest, options, &pools);
  EXPECT_TRUE(std::isfinite(guided.score));
  // Harder negatives make the negative graph closer to the positive one.
  EXPECT_NE(guided.score, uniform.score);
}

TEST_F(KpFixture, TrainedModelSeparatesMoreThanRandomModel) {
  ModelOptions options;
  options.dim = 24;
  options.seed = 1234;
  auto untrained =
      CreateModel(ModelType::kDistMult, dataset_->num_entities(),
                  dataset_->num_relations(), options)
          .ValueOrDie();
  KpOptions kp_options;
  kp_options.num_samples = 500;
  const double trained_score =
      ComputeKp(*model_, *dataset_, Split::kTest, kp_options).score;
  const double untrained_score =
      ComputeKp(*untrained, *dataset_, Split::kTest, kp_options).score;
  // A trained model assigns systematically different weights to true vs
  // corrupted edges, so its KP+/KP- diagrams are farther apart.
  EXPECT_GT(trained_score, untrained_score);
}

}  // namespace
}  // namespace kgeval
