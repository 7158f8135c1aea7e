#ifndef KGEVAL_CORE_SAMPLERS_H_
#define KGEVAL_CORE_SAMPLERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/candidate_sets.h"
#include "graph/dataset.h"
#include "util/rng.h"

namespace kgeval {

/// The three candidate-sampling strategies compared throughout the paper:
/// uniform Random over all entities, Static (uniform over the thresholded
/// candidate sets, capped at the set size as in Theorem 1), and
/// Probabilistic (score-weighted, without replacement).
enum class SamplingStrategy { kRandom = 0, kStatic = 1, kProbabilistic = 2 };

const char* SamplingStrategyName(SamplingStrategy strategy);

/// The candidate pools drawn for one evaluation pass: one pool per
/// domain/range slot, drawn once (the framework's 2|R| samplings).
struct SampledCandidates {
  /// Per slot: sorted, deduplicated sampled entity ids (empty for slots that
  /// were not requested).
  std::vector<std::vector<int32_t>> pools;
  double sample_seconds = 0.0;
  int64_t total_sampled = 0;
};

/// Slots actually needed to evaluate `split` (both directions of every test
/// relation). Sampling only these is what turns the per-query sampling cost
/// into the per-relation cost of Table 3.
std::vector<int32_t> NeededSlots(const Dataset& dataset, Split split);

/// Draws candidate pools of size `n_s` for the requested (distinct) slots.
/// Takes exactly one value from `rng` per call and seeds one stream per
/// slot from it, so a pool is a pure function of (the parent stream's state,
/// slot): it does not depend on the worker count or on which other slots
/// were requested. Slots are drawn in parallel on the global worker pool
/// (inline when called from a pool worker).
/// - kRandom ignores `sets` (may be null) and samples uniformly from all
///   entities.
/// - kStatic requires `sets` (thresholded) and draws min(n_s, |set|)
///   uniformly within each set.
/// - kProbabilistic requires `sets` with weights and draws up to n_s
///   entities without replacement, proportional to the recommender scores.
SampledCandidates DrawCandidates(SamplingStrategy strategy,
                                 const CandidateSets* sets,
                                 int32_t num_entities, int64_t n_s,
                                 const std::vector<int32_t>& slots,
                                 int32_t num_slots_total, Rng* rng);

}  // namespace kgeval

#endif  // KGEVAL_CORE_SAMPLERS_H_
