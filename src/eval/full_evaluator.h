#ifndef KGEVAL_EVAL_FULL_EVALUATOR_H_
#define KGEVAL_EVAL_FULL_EVALUATOR_H_

#include <vector>

#include "eval/metrics.h"
#include "eval/protocol.h"
#include "eval/screen.h"
#include "graph/dataset.h"
#include "models/kge_model.h"

namespace kgeval {

/// Options for the exhaustive filtered-ranking evaluation (the O(|E|^2)
/// procedure whose cost the paper's framework avoids).
struct FullEvalOptions {
  TieBreak tie = TieBreak::kMean;
  /// Cap on evaluated triples (0 = all). Deterministic prefix of the split;
  /// used by benches to bound the cost of the ground-truth computation.
  int64_t max_triples = 0;
  /// Entities per candidate tile. Each tile is prepared (gathered +
  /// transposed) once per evaluation and reused by every slot block; one
  /// score block is 16 x entity_tile floats. Small values force multi-tile
  /// sweeps (used by tests); ranks are identical for any tile size.
  size_t entity_tile = 32768;
  /// Quantized screening of the entity sweep (eval/screen.h): each tile
  /// gets an int8 sidecar, every tile is swept with the int8 kernel, and
  /// only each query's band is re-scored exactly. Ranks stay bit-identical
  /// to the unscreened sweep. Models without a kernel surface ignore the
  /// flag.
  bool screening = false;
};

/// Result of a full evaluation: aggregated metrics plus per-query ranks
/// (two per triple: tail query first, then head query).
struct FullEvalResult {
  RankingMetrics metrics;
  std::vector<double> ranks;
  /// Screening work counters (zero when FullEvalOptions::screening was off
  /// or the model has no kernel surface).
  ScreenStats screen;
};

/// Ranks every entity for every (h,r,?) and (?,r,t) query of `split`,
/// with the protocol supplying the filtered answer sets (and, through its
/// schedule grouping, the kernel relation homogeneity time-aware models
/// need). Multi-threaded.
FullEvalResult EvaluateFullRanking(const KgeModel& model,
                                   const Dataset& dataset,
                                   const EvalProtocol& protocol, Split split,
                                   const FullEvalOptions& options = {});

/// Static-protocol convenience: filters known true answers
/// (train+valid+test) regardless of timestamp; bit-identical to the
/// pre-protocol evaluator.
FullEvalResult EvaluateFullRanking(const KgeModel& model,
                                   const Dataset& dataset,
                                   const FilterIndex& filter, Split split,
                                   const FullEvalOptions& options = {});

/// Scores strictly above and exactly equal to the truth's, over the
/// candidates that survive filtering. Every rank in the library is built
/// from these two counts.
struct RankCounts {
  int64_t higher = 0;
  int64_t tied = 0;

  RankCounts& operator+=(const RankCounts& other) {
    higher += other.higher;
    tied += other.tied;
    return *this;
  }
};

/// Counts a scored candidate array against the true answer, with the
/// filtered candidates removed: `answers` is the sorted list of known true
/// answers for the query. `scores[i]` corresponds to `candidates[i]`;
/// candidates may contain duplicates of `truth` (skipped). Fastest when
/// `candidates` is sorted (one vectorized sweep plus binary searches over
/// the candidates for each answer, the layout candidate pools and entity
/// tiles arrive in); unsorted arrays take a reference walk with identical
/// counts. `candidates_sorted` states whether the array is non-decreasing —
/// pool sortedness is a SampledCandidates invariant, so callers compute it
/// once per pool (PrepareCandidates records it) instead of paying an O(n)
/// sweep per query. Counts over disjoint candidate ranges add up, so a
/// caller may count tile by tile.
RankCounts CountFilteredRank(const int32_t* candidates, const float* scores,
                             size_t n, int32_t truth, float truth_score,
                             const std::vector<int32_t>& answers,
                             bool candidates_sorted);

/// Rank of the true answer within a scored candidate array, with the
/// filtered candidates removed: CountFilteredRank resolved by `tie`.
double FilteredRank(const int32_t* candidates, const float* scores, size_t n,
                    int32_t truth, float truth_score,
                    const std::vector<int32_t>& answers, TieBreak tie,
                    bool candidates_sorted);

}  // namespace kgeval

#endif  // KGEVAL_EVAL_FULL_EVALUATOR_H_
