#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "la/adam.h"
#include "la/matrix.h"
#include "la/vector_ops.h"
#include "util/rng.h"

namespace kgeval {
namespace {

TEST(MatrixTest, ShapeAndFill) {
  Matrix m(3, 4, 1.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_FLOAT_EQ(m.At(2, 3), 1.5f);
  m.Fill(0.0f);
  EXPECT_FLOAT_EQ(m.At(0, 0), 0.0f);
}

TEST(MatrixTest, RowPointersAreContiguous) {
  Matrix m(4, 5);
  m.At(2, 0) = 7.0f;
  EXPECT_FLOAT_EQ(m.Row(2)[0], 7.0f);
  EXPECT_EQ(m.Row(3), m.Row(0) + 15);
}

TEST(MatrixTest, StorageStartsOnACacheLine) {
  // Odd sizes, interleaved with unaligned allocations, so that malloc's
  // 16-byte alignment alone would leave some buffers mid-line.
  std::vector<std::vector<char>> spacers;
  for (size_t n = 1; n <= 64; ++n) {
    spacers.emplace_back(n * 7);
    Matrix m(n, 3);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) % 64, 0u) << n;
    m.Resize(n + 5, 9);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) % 64, 0u) << n;
    AlignedFloats buffer(n * 5);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.data()) % 64, 0u) << n;
  }
}

TEST(MatrixTest, XavierBoundsRespected) {
  Matrix m(50, 64);
  Rng rng(1);
  m.InitXavier(&rng, 64, 64);
  const float bound = std::sqrt(6.0f / 128.0f);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.data()[i]), bound);
  }
}

TEST(MatrixTest, UniformInitWithinRange) {
  Matrix m(10, 10);
  Rng rng(2);
  m.InitUniform(&rng, -0.5f, 0.5f);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_GE(m.data()[i], -0.5f);
    EXPECT_LE(m.data()[i], 0.5f);
  }
}

TEST(MatrixTest, GaussianInitRoughMoments) {
  Matrix m(100, 100);
  Rng rng(3);
  m.InitGaussian(&rng, 2.0f);
  double sum = 0.0, sq = 0.0;
  for (size_t i = 0; i < m.size(); ++i) {
    sum += m.data()[i];
    sq += m.data()[i] * m.data()[i];
  }
  EXPECT_NEAR(sum / m.size(), 0.0, 0.05);
  EXPECT_NEAR(sq / m.size(), 4.0, 0.2);
}

TEST(VectorOpsTest, DotAndDot3) {
  const float a[3] = {1, 2, 3};
  const float b[3] = {4, 5, 6};
  const float c[3] = {1, 0, 2};
  EXPECT_FLOAT_EQ(Dot(a, b, 3), 32.0f);
  EXPECT_FLOAT_EQ(Dot3(a, b, c, 3), 4.0f + 0.0f + 36.0f);
}

TEST(VectorOpsTest, AxpyAndScale) {
  const float x[3] = {1, 2, 3};
  float y[3] = {1, 1, 1};
  Axpy(2.0f, x, y, 3);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[2], 7.0f);
  Scale(0.5f, y, 3);
  EXPECT_FLOAT_EQ(y[0], 1.5f);
}

TEST(VectorOpsTest, Distances) {
  const float a[2] = {0, 3};
  const float b[2] = {4, 0};
  EXPECT_FLOAT_EQ(SquaredL2Distance(a, b, 2), 25.0f);
  EXPECT_FLOAT_EQ(L1Distance(a, b, 2), 7.0f);
  EXPECT_FLOAT_EQ(SquaredNorm(a, 2), 9.0f);
}

TEST(VectorOpsTest, SigmoidAndLogSigmoid) {
  EXPECT_FLOAT_EQ(Sigmoid(0.0f), 0.5f);
  EXPECT_NEAR(Sigmoid(10.0f), 1.0f, 1e-4);
  EXPECT_NEAR(Sigmoid(-10.0f), 0.0f, 1e-4);
  EXPECT_NEAR(LogSigmoid(0.0f), std::log(0.5f), 1e-6);
  // Stable in the tails: no -inf / nan.
  EXPECT_TRUE(std::isfinite(LogSigmoid(-100.0f)));
  EXPECT_NEAR(LogSigmoid(100.0f), 0.0f, 1e-6);
  // Identity: log sigmoid(-x) = log(1 - sigmoid(x)).
  EXPECT_NEAR(LogSigmoid(-2.0f), std::log(1.0f - Sigmoid(2.0f)), 1e-6);
}

TEST(AdamTest, DescendsQuadratic) {
  // Minimize f(w) = 0.5 * ||w - target||^2 with per-row updates.
  Matrix w(1, 4, 0.0f);
  const float target[4] = {1.0f, -2.0f, 0.5f, 3.0f};
  AdamOptions options;
  options.learning_rate = 0.05f;
  AdamState adam(1, 4, options);
  for (int step = 0; step < 500; ++step) {
    float grad[4];
    for (int i = 0; i < 4; ++i) grad[i] = w.At(0, i) - target[i];
    adam.UpdateRow(&w, 0, grad);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(w.At(0, i), target[i], 0.05f) << "coord " << i;
  }
}

TEST(AdamTest, LazyRowsUnaffected) {
  Matrix w(3, 2, 1.0f);
  AdamState adam(3, 2, AdamOptions());
  const float grad[2] = {1.0f, 1.0f};
  adam.UpdateRow(&w, 1, grad);
  EXPECT_FLOAT_EQ(w.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(w.At(2, 0), 1.0f);
  EXPECT_LT(w.At(1, 0), 1.0f);
}

TEST(AdamTest, FirstStepMovesByLearningRate) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Matrix w(1, 1, 0.0f);
  AdamOptions options;
  options.learning_rate = 0.1f;
  AdamState adam(1, 1, options);
  const float grad = 3.7f;
  adam.UpdateRow(&w, 0, &grad);
  EXPECT_NEAR(w.At(0, 0), -0.1f, 1e-4);
}

TEST(AdamTest, DenseUpdateTouchesAllRows) {
  Matrix w(3, 2, 0.0f);
  AdamState adam(3, 2, AdamOptions());
  Matrix grads(3, 2, 1.0f);
  adam.UpdateDense(&w, grads);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_LT(w.At(r, 0), 0.0f);
  }
}

}  // namespace
}  // namespace kgeval
