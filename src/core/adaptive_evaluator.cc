#include "core/adaptive_evaluator.h"

#include <algorithm>
#include <atomic>

#include "sched/task_group.h"
#include "stats/confidence.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace kgeval {

AdaptiveEvalResult EvaluateAdaptive(const KgeModel& model,
                                    const Dataset& dataset,
                                    const EvalProtocol& protocol, Split split,
                                    const SampledCandidates& candidates,
                                    const AdaptiveEvalOptions& options) {
  WallTimer timer;
  const std::vector<Triple>& triples = dataset.split(split);
  const int64_t num_triples = static_cast<int64_t>(triples.size());
  const int32_t num_r = dataset.num_relations();
  const int32_t num_groups = protocol.num_groups();
  ValidateQueriedPools(triples, num_triples, num_r, candidates);

  AdaptiveEvalResult result;
  result.total_queries = 2 * num_triples;
  result.ranks.assign(static_cast<size_t>(result.total_queries), 0.0);

  // The schedule is a uniform shuffle of *queries*, so every round — and
  // every prefix of rounds — is a simple random sample of the split's
  // query set: the running mean is unbiased and the iid interval honest.
  // (Shuffling slot blocks instead would make rounds cluster samples of
  // same-relation queries, whose correlated ranks bias small rounds and
  // shrink the effective sample size far below the query count.) Each
  // round's queries are regrouped by protocol group purely for scoring
  // efficiency.
  Rng rng(options.shuffle_seed);
  const std::vector<int64_t> order = ShuffledQueryOrder(num_triples, &rng);

  SampledEvalOptions eval_options;
  eval_options.tie = options.tie;
  eval_options.cancel = options.cancel;

  const double z = TwoSidedZ(options.confidence);
  const int64_t query_budget = options.max_triples > 0
                                   ? std::min<int64_t>(2 * options.max_triples,
                                                       result.total_queries)
                                   : result.total_queries;
  const size_t batch_queries = std::max<size_t>(1, options.batch_queries);

  RankingAccumulator acc;
  // Per-round group buckets (head queries rank the group's domain slot,
  // tail queries its range slot); cleared and refilled each round,
  // capacity kept.
  std::vector<std::vector<int32_t>> head_buckets(num_groups);
  std::vector<std::vector<int32_t>> tail_buckets(num_groups);
  std::vector<SlotBlock> round_blocks;
  size_t next_query = 0;
  while (next_query < order.size()) {
    // The between-rounds cancellation poll; blocks inside a round bail in
    // ScoreSlotBlocks through eval_options.cancel.
    if (options.cancel != nullptr && options.cancel->cancelled()) break;
    if (acc.count() >= query_budget) break;
    // The candidate budget is checked between rounds: the round that
    // crosses it is finished (at most one round of overshoot).
    if (options.max_candidates > 0 &&
        result.scored_candidates >= options.max_candidates) {
      break;
    }
    const size_t take = std::min(
        {batch_queries, order.size() - next_query,
         static_cast<size_t>(query_budget - acc.count())});
    for (std::vector<int32_t>& bucket : head_buckets) bucket.clear();
    for (std::vector<int32_t>& bucket : tail_buckets) bucket.clear();
    const size_t round_begin = next_query;
    for (size_t k = 0; k < take; ++k) {
      const int64_t qid = order[next_query + k];
      const int64_t i = qid >> 1;
      const int32_t group = protocol.GroupOf(triples[i]);
      ((qid & 1) ? head_buckets : tail_buckets)[group].push_back(
          static_cast<int32_t>(i));
    }
    next_query += take;
    // Slot-contiguous blocks over the (now stable) round buckets; the
    // per-group buckets are small, so blocks rarely fill
    // kSampledQueryBlock. Each block's dataset relation comes from a
    // bucket triple (every triple of a group shares it).
    round_blocks.clear();
    for (int32_t g = 0; g < num_groups; ++g) {
      for (QueryDirection dir :
           {QueryDirection::kHead, QueryDirection::kTail}) {
        const std::vector<int32_t>& bucket =
            dir == QueryDirection::kHead ? head_buckets[g] : tail_buckets[g];
        if (bucket.empty()) continue;
        const int32_t relation = triples[bucket[0]].relation;
        const int32_t slot = protocol.PoolSlotOf(g, dir);
        for (size_t lo = 0; lo < bucket.size(); lo += kSampledQueryBlock) {
          round_blocks.push_back(
              {relation, dir, &bucket, lo,
               std::min(bucket.size(), lo + kSampledQueryBlock), slot});
        }
      }
    }
    std::atomic<int64_t> scored{0};
    // Each round is its own TaskGroup: the wait at the end of the round is
    // per-pass, so concurrent adaptive passes (EstimateAdaptiveMany) stay
    // independent down to the round granularity.
    TaskGroup round_group;
    SubmitSlotChunks(&round_group, round_blocks, [&](size_t lo, size_t hi) {
      SlotBlockScratch scratch;
      const int64_t local_scored =
          ScoreSlotBlocks(model, triples, protocol, candidates, round_blocks,
                          lo, hi, eval_options, &scratch,
                          result.ranks.data());
      scored.fetch_add(local_scored, std::memory_order_relaxed);
    });
    round_group.Wait();
    result.scored_candidates += scored.load();

    // A cancel that landed mid-round left part of this round's ranks
    // unscored (0.0); folding them would poison the accumulator, so the
    // whole round is dropped — the accumulator then holds only fully
    // scored rounds and the (discarded-by-callers) partial metrics below
    // stay well-defined.
    if (options.cancel != nullptr && options.cancel->cancelled()) break;

    // Fold the round's ranks in schedule order: the scored ranks are
    // bit-identical however the chunks were threaded, so the accumulator —
    // and with it the stopping decision — is reproducible.
    for (size_t k = round_begin; k < next_query; ++k) {
      acc.Add(result.ranks[static_cast<size_t>(order[k])]);
    }
    ++result.rounds;

    double half_width = acc.CiHalfWidth(options.target_metric, z);
    if (options.finite_population_correction) {
      half_width *=
          FinitePopulationCorrection(acc.count(), result.total_queries);
    }
    result.half_width_history.push_back(half_width);
    if (acc.count() >= options.min_queries &&
        half_width <= options.target_half_width) {
      result.converged = true;
      break;
    }
  }

  result.cancelled =
      options.cancel != nullptr && options.cancel->cancelled();
  if (result.cancelled) result.converged = false;
  result.evaluated_queries = acc.count();
  result.metrics = acc.Metrics();
  result.ci = acc.Ci(z);
  if (options.finite_population_correction) {
    const double fpc =
        FinitePopulationCorrection(acc.count(), result.total_queries);
    result.ci.mrr *= fpc;
    result.ci.hits1 *= fpc;
    result.ci.hits3 *= fpc;
    result.ci.hits10 *= fpc;
    result.ci.mean_rank *= fpc;
  }
  result.eval_seconds = timer.Seconds();
  return result;
}

AdaptiveEvalResult EvaluateAdaptive(const KgeModel& model,
                                    const Dataset& dataset,
                                    const FilterIndex& filter, Split split,
                                    const SampledCandidates& candidates,
                                    const AdaptiveEvalOptions& options) {
  const StaticFilteredProtocol protocol(dataset.num_relations(), &filter);
  return EvaluateAdaptive(model, dataset, protocol, split, candidates,
                          options);
}

}  // namespace kgeval
