#ifndef KGEVAL_CORE_SAMPLED_EVALUATOR_H_
#define KGEVAL_CORE_SAMPLED_EVALUATOR_H_

#include "core/samplers.h"
#include "eval/full_evaluator.h"
#include "eval/metrics.h"
#include "eval/protocol.h"
#include "eval/slot_blocks.h"
#include "graph/dataset.h"
#include "models/kge_model.h"
#include "util/cancel.h"

namespace kgeval {

/// Queries scored per fused kernel call by the slot-major evaluators.
/// Bounds the qb x |pool| score block (256 x n_s floats); the pool gather
/// itself happens once per slot, not per block, so the block size only
/// trades score-matrix footprint for call overhead.
constexpr size_t kSampledQueryBlock = 256;

/// Options for a sampled evaluation pass.
struct SampledEvalOptions {
  TieBreak tie = TieBreak::kMean;
  /// Cap on evaluated triples (0 = all); deterministic prefix of the split.
  int64_t max_triples = 0;
  /// Confidence level of the RankingCi reported with the result.
  double ci_confidence = 0.95;
  /// Cooperative cancellation, polled between query blocks (not borrowed —
  /// must outlive the pass). A cancelled pass winds down at the next block
  /// boundary and flags its result `cancelled`; the partial metrics are
  /// meaningless and must be discarded by the caller.
  const CancelToken* cancel = nullptr;
};

/// Result of estimating the ranking metrics from sampled candidate pools.
struct SampledEvalResult {
  RankingMetrics metrics;
  /// Normal-approximation half-widths around `metrics` (query-sampling
  /// noise; see RankingCi for what the interval does and does not cover).
  RankingCi ci;
  /// Per-query estimated ranks (tail query, then head query, per triple).
  std::vector<double> ranks;
  double eval_seconds = 0.0;    // Scoring + ranking time.
  double sample_seconds = 0.0;  // Copied from the SampledCandidates.
  int64_t scored_candidates = 0;
  /// True when SampledEvalOptions::cancel fired mid-pass: the pass ended
  /// early, metrics/ranks are partial garbage, discard everything.
  bool cancelled = false;
};

/// Per-thread scratch for ScoreSlotBlocks. Buffers grow on demand (never
/// beyond block-queries x the largest pool among the slots actually scored
/// through this scratch), and the prepared candidate tile carries across
/// consecutive blocks — and calls — of the same slot, so slot-contiguous
/// schedules prepare each pool once.
struct SlotBlockScratch {
  std::vector<int32_t> anchors, truths;
  std::vector<float> scores, truth_scores;
  CandidateBlock prepared;
  int32_t prepared_slot = -1;
};

/// The shared incremental core of the sampled evaluators: scores blocks
/// [begin, end) of a protocol's slot-contiguous schedule against
/// `candidates` and writes each query's filtered rank into
/// `ranks[2 * triple_index + (tail ? 0 : 1)]`. The protocol supplies the
/// filtered answer sets; the kernel relation id of each block is derived
/// from one of its triples via KgeModel::KernelRelation, so time-aware
/// models score with their virtual relation ids while static models see
/// the plain relation. Thread-safe across disjoint block ranges (each
/// thread brings its own scratch; rank slots are disjoint). Returns the
/// number of candidate + truth scores computed. Ranks are bit-identical
/// regardless of how the schedule is cut into ranges or threads.
int64_t ScoreSlotBlocks(const KgeModel& model,
                        const std::vector<Triple>& triples,
                        const EvalProtocol& protocol,
                        const SampledCandidates& candidates,
                        const std::vector<SlotBlock>& blocks, size_t begin,
                        size_t end, const SampledEvalOptions& options,
                        SlotBlockScratch* scratch, double* ranks);

/// Dies (KGEVAL_CHECK) if any slot queried by the evaluated prefix of
/// `triples` has an empty candidate pool: an empty pool would silently
/// score the truth against nothing and report rank 1 for every query of the
/// slot — an optimistic estimate indistinguishable from a perfect model.
/// Slots the split never queries may be empty (their pools are never
/// ranked against, and the per-thread scratch only ever grows to the
/// slots its own chunks score).
void ValidateQueriedPools(const std::vector<Triple>& triples,
                          int64_t num_triples, int32_t num_relations,
                          const SampledCandidates& candidates);

/// Ranks each test query's true answer against its slot's sampled pool
/// (filtered; the true answer is always included). The estimated metrics
/// aggregate these pool-ranks directly — no rescaling — which is exactly why
/// uniform Random pools are optimistic and recommender-guided pools are not
/// (Section 4).
/// The hot path is slot-major: queries are grouped by (relation, direction)
/// so each group ranks against one shared pool. Each slot's pool is
/// prepared (gathered + transposed) once, at its first query block, and
/// reused by the rest of the slot's blocks; every block is scored through
/// the fused ScoreBlock kernel — one query construction per block emitting
/// pool and truth scores together — parallelized over slot-aligned chunks
/// of blocks so parallelism never splits a slot across chunks that would
/// each re-prepare its pool.
SampledEvalResult EvaluateSampled(const KgeModel& model,
                                  const Dataset& dataset,
                                  const EvalProtocol& protocol, Split split,
                                  const SampledCandidates& candidates,
                                  const SampledEvalOptions& options = {});

/// Static-protocol convenience: wraps `filter` in a StaticFilteredProtocol
/// and evaluates. Bit-identical to the protocol overload with that
/// protocol — and to the pre-protocol evaluator.
SampledEvalResult EvaluateSampled(const KgeModel& model,
                                  const Dataset& dataset,
                                  const FilterIndex& filter, Split split,
                                  const SampledCandidates& candidates,
                                  const SampledEvalOptions& options = {});

/// Reference triple-major implementation scoring one query at a time through
/// ScoreCandidates. Kept as the parity oracle the prepared engine is
/// benchmarked and tested against; produces bit-identical ranks to
/// EvaluateSampled.
SampledEvalResult EvaluateSampledScalar(const KgeModel& model,
                                        const Dataset& dataset,
                                        const EvalProtocol& protocol,
                                        Split split,
                                        const SampledCandidates& candidates,
                                        const SampledEvalOptions& options = {});

/// Static-protocol convenience for the scalar reference path.
SampledEvalResult EvaluateSampledScalar(const KgeModel& model,
                                        const Dataset& dataset,
                                        const FilterIndex& filter, Split split,
                                        const SampledCandidates& candidates,
                                        const SampledEvalOptions& options = {});

}  // namespace kgeval

#endif  // KGEVAL_CORE_SAMPLED_EVALUATOR_H_
