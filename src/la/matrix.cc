#include "la/matrix.h"

#include <algorithm>
#include <cmath>

#include "la/kernels/kernels.h"

namespace kgeval {

void Matrix::InitXavier(Rng* rng, size_t fan_in, size_t fan_out) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  InitUniform(rng, -bound, bound);
}

void Matrix::InitUniform(Rng* rng, float lo, float hi) {
  for (auto& v : data_) v = lo + (hi - lo) * rng->NextFloat();
}

void Matrix::InitGaussian(Rng* rng, float stddev) {
  for (auto& v : data_) {
    v = static_cast<float>(rng->NextGaussian()) * stddev;
  }
}

void GatherRowsT(const Matrix& src, const int32_t* ids, size_t n,
                 Matrix* out) {
  const size_t cols = src.cols();
  out->Resize(cols, n);
  float* data = out->data();
  for (size_t c = 0; c < n; ++c) {
    const float* row = src.Row(static_cast<size_t>(ids[c]));
    for (size_t k = 0; k < cols; ++k) {
      data[k * n + c] = row[k];
    }
  }
}

// The batch kernels dispatch to the active ScoreKernels table (la/kernels):
// the scalar baseline or a hand-written AVX2/AVX-512/NEON path, all
// bit-identical per cell (see kernels.h for the lane-order contract these
// wrappers' callers rely on).

void DotScoreTile(const Matrix& queries, const Matrix& gathered_t,
                  float* out) {
  KGEVAL_CHECK(queries.cols() == gathered_t.rows());
  ActiveScoreKernels().dot(queries.data(), queries.rows(), queries.cols(),
                           gathered_t.data(), gathered_t.cols(), out);
}

void NegL1ScoreTile(const Matrix& queries, const Matrix& gathered_t,
                    float* out) {
  KGEVAL_CHECK(queries.cols() == gathered_t.rows());
  ActiveScoreKernels().neg_l1(queries.data(), queries.rows(), queries.cols(),
                              gathered_t.data(), gathered_t.cols(), out);
}

void NegComplexDistScoreTile(const Matrix& queries, const Matrix& gathered_t,
                             float eps, float* out) {
  KGEVAL_CHECK(queries.cols() == gathered_t.rows());
  KGEVAL_CHECK(queries.cols() % 2 == 0);
  ActiveScoreKernels().neg_complex_dist(queries.data(), queries.rows(),
                                        queries.cols(), gathered_t.data(),
                                        gathered_t.cols(), eps, out);
}

}  // namespace kgeval
