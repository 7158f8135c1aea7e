#ifndef KGEVAL_EVAL_SCREEN_H_
#define KGEVAL_EVAL_SCREEN_H_

#include <cstdint>
#include <vector>

#include "eval/metrics.h"
#include "la/matrix.h"
#include "models/kge_model.h"

namespace kgeval {

/// Two-pass quantized screening of the full evaluator's entity tiles.
///
/// Pass 1 scores every candidate against an int8 copy of the pool tile —
/// 4x smaller, and for the dot family the query row is itself quantized so
/// the sweep is a pure integer dot (VNNI / 16-bit madd, exact in int32).
/// Pass 2 re-scores, with the exact fp32 reduction, only the *band* of
/// candidates whose
/// approximate score plus a conservative error bound reaches the query's
/// exact truth score. Candidates outside the band provably score strictly
/// below the truth, so they can contribute neither a "higher" nor a "tied"
/// count to CountFilteredRank — which is the whole input the rank (and
/// every metric derived from it) depends on. Screened ranks are therefore
/// bit-identical to full exact scoring, at a fraction of the fp32 work
/// whenever most of the pool sits clearly below the truth.
///
/// The error bound folds the measured per-dim quantization error
/// (CandidateBlock::q8_err — the actual max |exact - dequantized| of the
/// tile, tighter than the worst-case half-step) and, for the dot family,
/// the measured rounding of the query row's own quantization, with a
/// generous per-term floating-point slack covering both the exact
/// reference accumulation order and whatever order the quantized kernels
/// use. Conservative in the only direction that matters: a loose bound
/// re-scores a few extra candidates; it never skips one that counts.

/// Counters describing how much work screening did and saved.
struct ScreenStats {
  int64_t queries = 0;    // Queries ranked through the screen.
  int64_t screened = 0;   // Tile entries scored with the int8 kernel.
  int64_t rescored = 0;   // Band entries re-scored with the exact kernel.
};

/// Attaches the int8 sidecar to a prepared block: per-dim symmetric
/// quantization of the gathered tile (q8[k*n+c] = round(tile/scale_k),
/// scale_k = row-max/127) in both the transposed layout (distance kernels)
/// and the quad-interleaved layout + column sums (integer dot kernel),
/// plus the per-dim reconstruction-error and magnitude bounds the band
/// test needs. Costs one pass over the tile; amortized over every block
/// scored against the pool, exactly like the gather itself. Idempotent per
/// prepare; FillCandidateIds resets it.
void QuantizeCandidateBlock(CandidateBlock* block);

/// Conservative bound on |approx - exact| for one query row against every
/// candidate of a quantized block (the block's q8_bias_amp covers the
/// per-entity bias when the model adds one). Exposed for the property
/// tests.
float ScreenErrorBound(BatchKernel kind, const float* qrow, size_t dim,
                       const CandidateBlock& block);

/// Reusable buffers for the screened sweep (one per thread).
struct ScreenScratch {
  Matrix queries;
  std::vector<uint8_t> q8_queries;  // kDot: quantized (+128 offset) rows.
  std::vector<float> q8_query_scale;  // kDot: per-row dequantization scale.
  std::vector<int32_t> iapprox;       // kDot: raw integer dots.
  std::vector<float> approx;          // num_queries x n int8-path scores.
  std::vector<int32_t> band_ids;      // Entity ids of one query's band.
  std::vector<float> band_scores;     // Their exact scores.
};

/// Pass 1 of the screen: approximate scores of `num_queries` query rows
/// (from `queries`, as BuildKernelQueries laid them out) against every
/// candidate of a quantized block, through the active int8 kernels, into
/// scratch->approx (num_queries x block.size(), row-major). Adds the
/// per-candidate bias when the block carries one.
void ScreenApproxBlock(const KgeModel& model, const Matrix& queries,
                       size_t num_queries, const CandidateBlock& block,
                       ScreenScratch* scratch);

}  // namespace kgeval

#endif  // KGEVAL_EVAL_SCREEN_H_
