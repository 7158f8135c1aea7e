#include "core/sampled_evaluator.h"

#include <algorithm>
#include <atomic>

#include "sched/task_group.h"
#include "stats/confidence.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kgeval {
namespace {

/// Folds every rank into an accumulator (in index order, so the CI is
/// deterministic) and stamps the result's confidence half-widths.
void FillCi(double confidence, SampledEvalResult* result) {
  RankingAccumulator acc;
  for (double rank : result->ranks) acc.Add(rank);
  result->ci = acc.Ci(TwoSidedZ(confidence));
}

}  // namespace

void ValidateQueriedPools(const std::vector<Triple>& triples,
                          int64_t num_triples, int32_t num_relations,
                          const SampledCandidates& candidates) {
  // One flag per slot so each pool is checked once, not once per triple.
  std::vector<char> queried(2 * static_cast<size_t>(num_relations), 0);
  for (int64_t i = 0; i < num_triples; ++i) {
    queried[triples[i].relation] = 1;                  // Head query slot.
    queried[triples[i].relation + num_relations] = 1;  // Tail query slot.
  }
  for (size_t slot = 0; slot < queried.size(); ++slot) {
    if (!queried[slot]) continue;
    const size_t n = candidates.pools[slot].size();
    const size_t relation = slot < static_cast<size_t>(num_relations)
                                ? slot
                                : slot - num_relations;
    KGEVAL_CHECK(n > 0)
        << "empty candidate pool for queried slot " << slot << " (relation "
        << relation << ", "
        << (slot < static_cast<size_t>(num_relations) ? "head" : "tail")
        << " queries): ranking against an empty pool would report rank 1 "
        << "for every query of the slot";
  }
}

int64_t ScoreSlotBlocks(const KgeModel& model,
                        const std::vector<Triple>& triples,
                        const EvalProtocol& protocol,
                        const SampledCandidates& candidates,
                        const std::vector<SlotBlock>& blocks, size_t begin,
                        size_t end, const SampledEvalOptions& options,
                        SlotBlockScratch* scratch, double* ranks) {
  int64_t scored = 0;
  for (size_t b = begin; b < end; ++b) {
    // The cancellation poll: one relaxed load per ~256-query block. A
    // cancelled pass stops scoring here — worker tasks drain in one block
    // instead of being orphaned mid-evaluation.
    if (options.cancel != nullptr && options.cancel->cancelled()) break;
    const SlotBlock& block = blocks[b];
    const bool tail_dir = block.direction == QueryDirection::kTail;
    const int32_t slot = block.pool_slot;
    const std::vector<int32_t>& pool = candidates.pools[slot];
    const size_t n = pool.size();
    const size_t qb = block.end - block.begin;
    // Protocol blocks are kernel-homogeneous (same relation and, for
    // temporal groups, same timestamp), so any block triple yields the
    // block's kernel relation id — the plain relation for static models,
    // the virtual (relation, time) id for time-aware ones.
    const int32_t kernel_relation =
        model.KernelRelation(triples[(*block.triple_idx)[block.begin]]);
    if (scratch->anchors.size() < qb) {
      scratch->anchors.resize(qb);
      scratch->truths.resize(qb);
      scratch->truth_scores.resize(qb);
    }
    if (scratch->scores.size() < qb * n) scratch->scores.resize(qb * n);
    for (size_t q = 0; q < qb; ++q) {
      const Triple& triple = triples[(*block.triple_idx)[block.begin + q]];
      scratch->anchors[q] = tail_dir ? triple.head : triple.tail;
      scratch->truths[q] = tail_dir ? triple.tail : triple.head;
    }
    // Slot-contiguous schedules keep a slot's blocks adjacent, so the pool
    // is prepared at its first block (the gather stays hot in cache for the
    // scoring call right after) and the prepared tile — its allocation and
    // precomputed sortedness included — is reused by every following block
    // of the same slot.
    if (slot != scratch->prepared_slot) {
      model.PrepareCandidates(pool.data(), n, &scratch->prepared);
      scratch->prepared_slot = slot;
    }
    // Fused kernel: one query construction serves the pool matrix and the
    // per-query truth scores.
    model.ScoreBlock(scratch->anchors.data(), scratch->truths.data(), qb,
                     kernel_relation, block.direction, scratch->prepared,
                     scratch->scores.data(), scratch->truth_scores.data());
    scored += static_cast<int64_t>(qb) * (n + 1);
    for (size_t q = 0; q < qb; ++q) {
      const int32_t i = (*block.triple_idx)[block.begin + q];
      const Triple& triple = triples[i];
      const std::vector<int32_t>* answers =
          protocol.Answers(triple, block.direction);
      KGEVAL_CHECK(answers != nullptr);
      const double rank = FilteredRank(
          pool.data(), scratch->scores.data() + q * n, n,
          scratch->truths[q], scratch->truth_scores[q], *answers,
          options.tie, scratch->prepared.sorted);
      ranks[static_cast<size_t>(i) * 2 + (tail_dir ? 0 : 1)] = rank;
    }
  }
  return scored;
}

SampledEvalResult EvaluateSampled(const KgeModel& model,
                                  const Dataset& dataset,
                                  const EvalProtocol& protocol, Split split,
                                  const SampledCandidates& candidates,
                                  const SampledEvalOptions& options) {
  WallTimer timer;
  const std::vector<Triple>& triples = dataset.split(split);
  int64_t num_triples = static_cast<int64_t>(triples.size());
  if (options.max_triples > 0) {
    num_triples = std::min(num_triples, options.max_triples);
  }
  const int32_t num_r = dataset.num_relations();
  ValidateQueriedPools(triples, num_triples, num_r, candidates);

  SampledEvalResult result;
  result.sample_seconds = candidates.sample_seconds;
  result.ranks.assign(static_cast<size_t>(num_triples) * 2, 0.0);
  std::atomic<int64_t> scored{0};

  // Slot-major order: every query block shares one (relation, direction)
  // candidate pool, so the pool's embeddings are gathered once and whole
  // query blocks are scored per kernel call. The protocol owns the
  // grouping and emission order; its contract is only that blocks sharing
  // a pool slot are contiguous.
  const EvalSchedule schedule =
      protocol.BuildSchedule(triples, num_triples, kSampledQueryBlock);
  // Parallelism is over slot-aligned chunks, not raw block ranges: a chunk
  // boundary inside a slot would make both sides prepare the slot's pool.
  // The pass is its own TaskGroup, so a concurrent evaluation (another
  // model in an EvalSession, another session entirely) interleaves chunks
  // on the shared workers and neither pass waits on the other's work.
  TaskGroup group;
  SubmitSlotChunks(&group, schedule.blocks, [&](size_t lo, size_t hi) {
    SlotBlockScratch scratch;
    const int64_t local_scored =
        ScoreSlotBlocks(model, triples, protocol, candidates,
                        schedule.blocks, lo, hi, options, &scratch,
                        result.ranks.data());
    scored.fetch_add(local_scored, std::memory_order_relaxed);
  });
  group.Wait();

  result.cancelled =
      options.cancel != nullptr && options.cancel->cancelled();
  result.scored_candidates = scored.load();
  // A cancelled pass abandoned some blocks, leaving their ranks at 0.0 —
  // metrics over partial ranks would be garbage (and rank 0 is outside the
  // accumulator's domain), so they stay zeroed; callers discard a
  // cancelled result.
  if (!result.cancelled) {
    result.metrics = RankingMetrics::FromRanks(result.ranks);
    FillCi(options.ci_confidence, &result);
  }
  result.eval_seconds = timer.Seconds();
  return result;
}

SampledEvalResult EvaluateSampledScalar(const KgeModel& model,
                                        const Dataset& dataset,
                                        const EvalProtocol& protocol,
                                        Split split,
                                        const SampledCandidates& candidates,
                                        const SampledEvalOptions& options) {
  WallTimer timer;
  const std::vector<Triple>& triples = dataset.split(split);
  int64_t num_triples = static_cast<int64_t>(triples.size());
  if (options.max_triples > 0) {
    num_triples = std::min(num_triples, options.max_triples);
  }
  const int32_t num_r = dataset.num_relations();
  ValidateQueriedPools(triples, num_triples, num_r, candidates);

  SampledEvalResult result;
  result.sample_seconds = candidates.sample_seconds;
  result.ranks.assign(static_cast<size_t>(num_triples) * 2, 0.0);
  std::atomic<int64_t> scored{0};

  ParallelFor(
      0, static_cast<size_t>(num_triples),
      [&](size_t lo, size_t hi) {
        std::vector<float> scores;
        int64_t local_scored = 0;
        for (size_t i = lo; i < hi; ++i) {
          const Triple& triple = triples[i];
          const int32_t kernel_relation = model.KernelRelation(triple);
          for (QueryDirection dir :
               {QueryDirection::kTail, QueryDirection::kHead}) {
            const bool tail_dir = dir == QueryDirection::kTail;
            const int32_t anchor = tail_dir ? triple.head : triple.tail;
            const int32_t truth = tail_dir ? triple.tail : triple.head;
            const int32_t slot = protocol.PoolSlotFor(triple, dir);
            const std::vector<int32_t>& pool = candidates.pools[slot];
            scores.resize(pool.size() + 1);
            // Score the pool plus the true answer in one model call.
            model.ScoreCandidates(anchor, kernel_relation, dir, pool.data(),
                                  pool.size(), scores.data());
            model.ScoreCandidates(anchor, kernel_relation, dir, &truth, 1,
                                  scores.data() + pool.size());
            local_scored += static_cast<int64_t>(pool.size()) + 1;
            const std::vector<int32_t>* answers =
                protocol.Answers(triple, dir);
            KGEVAL_CHECK(answers != nullptr);
            const double rank = FilteredRank(
                pool.data(), scores.data(), pool.size(), truth,
                scores[pool.size()], *answers, options.tie,
                std::is_sorted(pool.begin(), pool.end()));
            result.ranks[i * 2 + (tail_dir ? 0 : 1)] = rank;
          }
        }
        scored.fetch_add(local_scored, std::memory_order_relaxed);
      },
      /*min_chunk=*/8);

  result.scored_candidates = scored.load();
  result.metrics = RankingMetrics::FromRanks(result.ranks);
  FillCi(options.ci_confidence, &result);
  result.eval_seconds = timer.Seconds();
  return result;
}

SampledEvalResult EvaluateSampled(const KgeModel& model,
                                  const Dataset& dataset,
                                  const FilterIndex& filter, Split split,
                                  const SampledCandidates& candidates,
                                  const SampledEvalOptions& options) {
  const StaticFilteredProtocol protocol(dataset.num_relations(), &filter);
  return EvaluateSampled(model, dataset, protocol, split, candidates,
                         options);
}

SampledEvalResult EvaluateSampledScalar(const KgeModel& model,
                                        const Dataset& dataset,
                                        const FilterIndex& filter, Split split,
                                        const SampledCandidates& candidates,
                                        const SampledEvalOptions& options) {
  const StaticFilteredProtocol protocol(dataset.num_relations(), &filter);
  return EvaluateSampledScalar(model, dataset, protocol, split, candidates,
                               options);
}

}  // namespace kgeval
