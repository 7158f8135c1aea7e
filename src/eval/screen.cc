#include "eval/screen.h"

#include <algorithm>
#include <cmath>

#include "la/kernels/kernels.h"
#include "util/logging.h"

namespace kgeval {
namespace {

/// Per-term floating-point slack multiplied by the sum of term magnitudes:
/// a length-dim reduction accumulates at most dim roundings of at most the
/// running-sum magnitude each, on BOTH sides of the comparison (the exact
/// sequential reference and the possibly fused/reordered quantized kernel),
/// so 2 x 2 x machine-epsilon per term is a safe, still-tiny allowance next
/// to the quantization term (~amp/254 per dim).
float FpSlack(size_t dim) { return 2.4e-7f * static_cast<float>(dim); }

/// One lane of the query-row quantization for the integer dot: the
/// round-to-nearest level of pre-scaled value `a` at inverse scale
/// `inv_qs`, clamped to the symmetric int8 range. ScreenErrorBound and
/// ScreenApproxBlock MUST quantize through this same function — the bound
/// covers the measured rounding of exactly these levels.
int32_t QuantizeQueryLane(float a, float inv_qs) {
  const long v = std::lround(a * inv_qs);
  return static_cast<int32_t>(std::min<long>(127, std::max<long>(-127, v)));
}

}  // namespace

void QuantizeCandidateBlock(CandidateBlock* block) {
  KGEVAL_CHECK(block->prepared);
  const size_t dim = block->gathered_t.rows();
  const size_t n = block->gathered_t.cols();
  KGEVAL_CHECK(n > 0) << "cannot quantize an empty candidate tile";
  const size_t dim_quads = (dim + 3) / 4;
  block->q8.resize(dim * n);
  block->q8i.assign(dim_quads * n * 4, 0);
  block->q8_colsum.assign(n, 0);
  block->q8_scale.resize(dim);
  block->q8_err.resize(dim);
  block->q8_amp.resize(dim);
  block->q8_bias_amp = 0.0f;
  for (float b : block->bias) {
    block->q8_bias_amp = std::max(block->q8_bias_amp, std::fabs(b));
  }
  const float* tile = block->gathered_t.data();
  for (size_t k = 0; k < dim; ++k) {
    const float* row = tile + k * n;
    int8_t* qrow = block->q8.data() + k * n;
    float amp = 0.0f;
    for (size_t c = 0; c < n; ++c) amp = std::max(amp, std::fabs(row[c]));
    block->q8_amp[k] = amp;
    if (amp == 0.0f) {
      block->q8_scale[k] = 0.0f;
      block->q8_err[k] = 0.0f;
      std::fill(qrow, qrow + n, static_cast<int8_t>(0));
      continue;
    }
    const float scale = amp / 127.0f;
    const float inv = 127.0f / amp;
    // q8_err records the tile's ACTUAL max reconstruction error — measured
    // against the same q * scale product the dequantizing kernels compute —
    // which is what makes the bound both tight and airtight.
    float err = 0.0f;
    int8_t* irow = block->q8i.data() + ((k / 4) * n) * 4 + (k % 4);
    for (size_t c = 0; c < n; ++c) {
      const long q = std::lround(row[c] * inv);
      const int8_t q8 = static_cast<int8_t>(
          std::min<long>(127, std::max<long>(-127, q)));
      qrow[c] = q8;
      irow[c * 4] = q8;
      block->q8_colsum[c] += q8;
      err = std::max(err,
                     std::fabs(row[c] - static_cast<float>(q8) * scale));
    }
    block->q8_scale[k] = scale;
    block->q8_err[k] = err;
  }
  block->quantized = true;
}

float ScreenErrorBound(BatchKernel kind, const float* qrow, size_t dim,
                       const CandidateBlock& block) {
  const float* err = block.q8_err.data();
  const float* amp = block.q8_amp.data();
  const float bias_amp = block.q8_bias_amp;
  const float slack = FpSlack(dim);
  switch (kind) {
    case BatchKernel::kDot: {
      // Two rounding sources, both measured rather than worst-cased:
      // the tile's |q_k| err_k per dim, and the query row's own int8
      // levels — approx substitutes a'_k = qs * round(a_k / qs) for
      // a_k = q_k scale_k, and each |a'_k - a_k| meets a tile byte of
      // magnitude at most 127. The integer sum itself is exact; the slack
      // covers only the final int->float convert, scale, and bias add
      // (the sum's magnitude is at most 127 * 127 * dim in query-scale
      // units, hence the 16129 qs term).
      const float* scale = block.q8_scale.data();
      float quant = 0.0f, mag = 0.0f, maxa = 0.0f;
      for (size_t k = 0; k < dim; ++k) {
        const float a = std::fabs(qrow[k]);
        quant += a * err[k];
        mag += a * amp[k];
        maxa = std::max(maxa, std::fabs(qrow[k] * scale[k]));
      }
      float qs = 0.0f;
      if (maxa > 0.0f) {
        qs = maxa / 127.0f;
        const float inv = 127.0f / maxa;
        float dqsum = 0.0f;
        for (size_t k = 0; k < dim; ++k) {
          const float a = qrow[k] * scale[k];
          dqsum += std::fabs(
              qs * static_cast<float>(QuantizeQueryLane(a, inv)) - a);
        }
        quant += 127.0f * dqsum;
      }
      return quant + slack * (mag + bias_amp + 16129.0f * qs);
    }
    case BatchKernel::kNegL1: {
      // | |q-e| - |q-deq| | <= |e - deq| per dim: the quantization term is
      // query-independent.
      float quant = 0.0f, mag = 0.0f;
      for (size_t k = 0; k < dim; ++k) {
        quant += err[k];
        mag += std::fabs(qrow[k]) + amp[k];
      }
      return quant + slack * mag;
    }
    case BatchKernel::kNegComplexDist: {
      // sqrt(dre^2 + dim^2 + eps) is 1-Lipschitz in each coordinate for any
      // eps >= 0, so per complex coordinate the error is at most
      // err_re + err_im; summing gives the same query-independent bound as
      // L1. The +1 term covers the sqrt's own rounding around small values.
      float quant = 0.0f, mag = 0.0f;
      for (size_t k = 0; k < dim; ++k) {
        quant += err[k];
        mag += std::fabs(qrow[k]) + amp[k];
      }
      return quant + slack * (mag + 1.0f);
    }
  }
  return 0.0f;
}

void ScreenApproxBlock(const KgeModel& model, const Matrix& queries,
                       size_t num_queries, const CandidateBlock& block,
                       ScreenScratch* scratch) {
  KGEVAL_CHECK(block.prepared && block.quantized);
  const ScoreKernels& kern = ActiveScoreKernels();
  const size_t n = block.size();
  const size_t dim = queries.cols();
  KGEVAL_DCHECK(dim == block.gathered_t.rows());
  scratch->approx.resize(num_queries * n);
  switch (model.batch_kernel()) {
    case BatchKernel::kDot: {
      // Fold the dequantization scales into the query row, then quantize the
      // scaled row itself to 127 signed levels stored offset-binary (+128):
      // pass 1 becomes a pure u8 x s8 integer dot, identical on every ISA.
      // Padding quads of the tile are zero bytes, so the query's pad bytes
      // (128 = value 0) contribute nothing either way.
      const size_t dim_quads = (dim + 3) / 4;
      scratch->q8_queries.assign(num_queries * dim_quads * 4, 128);
      scratch->q8_query_scale.resize(num_queries);
      scratch->iapprox.resize(num_queries * n);
      const float* scale = block.q8_scale.data();
      for (size_t q = 0; q < num_queries; ++q) {
        const float* src = queries.Row(q);
        uint8_t* dst = scratch->q8_queries.data() + q * dim_quads * 4;
        float maxa = 0.0f;
        for (size_t k = 0; k < dim; ++k) {
          maxa = std::max(maxa, std::fabs(src[k] * scale[k]));
        }
        const float qs = maxa / 127.0f;
        scratch->q8_query_scale[q] = qs;
        if (maxa > 0.0f) {
          const float inv = 127.0f / maxa;
          for (size_t k = 0; k < dim; ++k) {
            dst[k] = static_cast<uint8_t>(
                QuantizeQueryLane(src[k] * scale[k], inv) + 128);
          }
        }
      }
      kern.dot_q8(scratch->q8_queries.data(), num_queries, dim_quads,
                  block.q8i.data(), n, scratch->iapprox.data());
      const float* bias = block.bias.empty() ? nullptr : block.bias.data();
      const int32_t* colsum = block.q8_colsum.data();
      for (size_t q = 0; q < num_queries; ++q) {
        const float qs = scratch->q8_query_scale[q];
        const int32_t* irow = scratch->iapprox.data() + q * n;
        float* row = scratch->approx.data() + q * n;
        for (size_t c = 0; c < n; ++c) {
          row[c] = qs * static_cast<float>(irow[c] - 128 * colsum[c]) +
                   (bias ? bias[c] : 0.0f);
        }
      }
      break;
    }
    case BatchKernel::kNegL1:
      kern.neg_l1_q8(queries.data(), num_queries, dim, block.q8.data(),
                     block.q8_scale.data(), n, scratch->approx.data());
      break;
    case BatchKernel::kNegComplexDist:
      kern.neg_complex_dist_q8(queries.data(), num_queries, dim,
                               block.q8.data(), block.q8_scale.data(), n,
                               model.batch_kernel_eps(),
                               scratch->approx.data());
      break;
  }
}

}  // namespace kgeval
