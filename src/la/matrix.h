#ifndef KGEVAL_LA_MATRIX_H_
#define KGEVAL_LA_MATRIX_H_

#include <cstddef>
#include <new>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace kgeval {

/// Allocator whose blocks start on a 64-byte boundary: one cache line, one
/// AVX-512 vector. With malloc's 16-byte alignment a buffer's offset within
/// its cache line is whatever the heap hands out, and the batched kernels'
/// loads and stores split a cache line on every vector unless that offset is
/// 0; a heap offset that differs per process would make the same full-ranking
/// sweep ~30% faster in one process than in the next.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlignment{64};

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlignment));
  }
  void deallocate(T* p, size_t) { ::operator delete(p, kAlignment); }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const CacheAlignedAllocator<U>&) const {
    return false;
  }
};

/// Float buffer for kernel inputs and outputs; see CacheAlignedAllocator.
using AlignedFloats = std::vector<float, CacheAlignedAllocator<float>>;

/// Row-major dense float matrix. The embedding tables and all model
/// parameters live in these; rows are the unit of parallel/sparse access.
/// Storage starts on a cache line (see CacheAlignedAllocator).
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  float* Row(size_t r) {
    KGEVAL_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }
  const float* Row(size_t r) const {
    KGEVAL_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }

  float& At(size_t r, size_t c) {
    KGEVAL_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float At(size_t r, size_t c) const {
    KGEVAL_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void Fill(float value) { std::fill(data_.begin(), data_.end(), value); }

  /// Reshapes to rows x cols, reusing the allocation when possible. Contents
  /// are unspecified after a resize that changes the element count.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Xavier/Glorot uniform initialization with the given fan-in/fan-out.
  void InitXavier(Rng* rng, size_t fan_in, size_t fan_out);

  /// Uniform initialization in [lo, hi].
  void InitUniform(Rng* rng, float lo, float hi);

  /// Gaussian initialization with the given standard deviation.
  void InitGaussian(Rng* rng, float stddev);

 private:
  size_t rows_;
  size_t cols_;
  AlignedFloats data_;
};

/// Gathers rows `ids[0..n)` of `src` into `out` TRANSPOSED: out is
/// src.cols() x n with out(k, c) = src(ids[c], k). The candidate axis
/// becomes the contiguous one, which turns the batched scoring kernels into
/// independent-lane loops over candidates that the compiler vectorizes
/// without reassociating any per-candidate reduction.
void GatherRowsT(const Matrix& src, const int32_t* ids, size_t n,
                 Matrix* out);

/// out[q * n + c] = dot(queries.Row(q), column c of gathered_t), where
/// `gathered_t` is a k x n transposed candidate block from GatherRowsT.
/// Each output cell accumulates over k in exactly Dot()'s sequential order
/// (the vectorized lanes are independent candidates), so every score is
/// bit-identical to the scalar path.
void DotScoreTile(const Matrix& queries, const Matrix& gathered_t,
                  float* out);

/// out[q * n + c] = -sum_k |queries(q, k) - gathered_t(k, c)| — the pairwise
/// negative L1 distance used by translational scoring. Same transposed
/// layout and bit-exactness guarantee as DotScoreTile.
void NegL1ScoreTile(const Matrix& queries, const Matrix& gathered_t,
                    float* out);

/// out[q * n + c] = -sum_j sqrt((q_re - g_re)^2 + (q_im - g_im)^2 + eps)
/// over the m = rows/2 complex coordinates: pairwise negative complex
/// distance over split re/im planes. Rows [0, m) of `gathered_t` are the
/// candidates' real plane and rows [m, 2m) the imaginary plane (the natural
/// split a transposed gather produces for the complex-valued models). Same
/// layout and bit-exactness guarantee as DotScoreTile.
void NegComplexDistScoreTile(const Matrix& queries, const Matrix& gathered_t,
                             float eps, float* out);

}  // namespace kgeval

#endif  // KGEVAL_LA_MATRIX_H_
