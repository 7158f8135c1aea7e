#include "eval/full_evaluator.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "eval/slot_blocks.h"
#include "la/matrix.h"
#include "sched/task_group.h"
#include "util/logging.h"

namespace kgeval {

RankCounts CountFilteredRank(const int32_t* candidates, const float* scores,
                             size_t n, int32_t truth, float truth_score,
                             const std::vector<int32_t>& answers,
                             bool candidates_sorted) {
  RankCounts counts;
  if (candidates_sorted) {
    // Count higher/tied over the whole array in one vectorizable sweep,
    // then subtract the skipped candidates (truth duplicates and filtered
    // answers) located by binary search — identical counts to the reference
    // walk below, at a fraction of its branchy per-candidate cost.
    {
      int32_t h = 0, t = 0;
      for (size_t i = 0; i < n; ++i) {
        h += scores[i] > truth_score;
        t += scores[i] == truth_score;
      }
      counts.higher = h;
      counts.tied = t;
    }
    const auto subtract_range = [&](int32_t value) {
      const int32_t* lo = std::lower_bound(candidates, candidates + n, value);
      for (const int32_t* p = lo; p != candidates + n && *p == value; ++p) {
        const float s = scores[p - candidates];
        if (s > truth_score) {
          --counts.higher;
        } else if (s == truth_score) {
          --counts.tied;
        }
      }
    };
    subtract_range(truth);
    for (size_t a = 0; a < answers.size(); ++a) {
      // Filtered setting: other known-true answers never demote the rank.
      if (answers[a] == truth) continue;          // Already subtracted.
      if (a > 0 && answers[a] == answers[a - 1]) continue;  // Deduplicate.
      subtract_range(answers[a]);
    }
  } else {
    // Reference walk for unsorted candidate arrays.
    for (size_t i = 0; i < n; ++i) {
      const int32_t c = candidates[i];
      if (c == truth) continue;
      if (std::binary_search(answers.begin(), answers.end(), c)) continue;
      if (scores[i] > truth_score) {
        ++counts.higher;
      } else if (scores[i] == truth_score) {
        ++counts.tied;
      }
    }
  }
  return counts;
}

double FilteredRank(const int32_t* candidates, const float* scores, size_t n,
                    int32_t truth, float truth_score,
                    const std::vector<int32_t>& answers, TieBreak tie,
                    bool candidates_sorted) {
  const RankCounts counts = CountFilteredRank(
      candidates, scores, n, truth, truth_score, answers, candidates_sorted);
  return RankFromCounts(counts.higher, counts.tied, tie);
}

namespace {

/// Queries per batched kernel call. One score block is kQueryBlock x
/// entity_tile floats (~2 MB at the default tile). The tile is deliberately
/// large: per-query work that happens once per kernel call (TuckER's core
/// contraction, ConvE's conv/FC trunk) repeats once per tile, so small
/// tiles would multiply it.
constexpr size_t kQueryBlock = 16;

}  // namespace

FullEvalResult EvaluateFullRanking(const KgeModel& model,
                                   const Dataset& dataset,
                                   const EvalProtocol& protocol, Split split,
                                   const FullEvalOptions& options) {
  const std::vector<Triple>& triples = dataset.split(split);
  int64_t num_triples = static_cast<int64_t>(triples.size());
  if (options.max_triples > 0) {
    num_triples = std::min(num_triples, options.max_triples);
  }
  const int32_t num_entities = dataset.num_entities();

  FullEvalResult result;
  result.ranks.assign(static_cast<size_t>(num_triples) * 2, 0.0);

  // Slot-major order, sharing the fused ScoreBlock kernel with the sampled
  // evaluator: queries are grouped by the protocol and the entity range
  // acts as the shared candidate pool, swept in cache-sized tiles.
  std::vector<int32_t> all_entities(num_entities);
  std::iota(all_entities.begin(), all_entities.end(), 0);
  const EvalSchedule schedule =
      protocol.BuildSchedule(triples, num_triples, kQueryBlock);
  const std::vector<SlotBlock>& blocks = schedule.blocks;

  // Prepare every entity tile once per evaluation; each slot block then
  // sweeps the prepared tiles instead of re-gathering/transposing the same
  // entity rows per block (the dominant per-block overhead PR 1 paid).
  // One TaskGroup task per tile: the prepare is pure per-tile work, and a
  // concurrent evaluation interleaves its own tiles on the shared workers
  // instead of waiting on this pass's prepare barrier.
  const size_t tile_size = std::max<size_t>(1, options.entity_tile);
  const size_t num_tiles =
      (static_cast<size_t>(num_entities) + tile_size - 1) / tile_size;
  std::vector<CandidateBlock> tiles(num_tiles);
  TaskGroup prepare_group;
  for (size_t t = 0; t < num_tiles; ++t) {
    prepare_group.Submit([&, t] {
      const size_t e0 = t * tile_size;
      const size_t e1 =
          std::min(static_cast<size_t>(num_entities), e0 + tile_size);
      model.PrepareCandidates(all_entities.data() + e0, e1 - e0, &tiles[t]);
      // The int8 sidecar rides the same once-per-evaluation amortization
      // as the gather; models without a kernel surface never set
      // `prepared`, which keeps them on the exact unscreened sweep.
      if (options.screening && tiles[t].prepared) {
        QuantizeCandidateBlock(&tiles[t]);
      }
    });
  }
  prepare_group.Wait();
  const bool screened = num_tiles > 0 && tiles[0].quantized;

  std::atomic<int64_t> screen_queries{0}, screen_screened{0},
      screen_rescored{0};
  // Slot-aligned chunks on an explicit TaskGroup, like the sampled
  // evaluator: the pass waits only on its own chunks, and chunk boundaries
  // coincide with slot boundaries so per-chunk query state never straddles
  // a kernel-relation change.
  TaskGroup group;
  SubmitSlotChunks(&group, blocks, [&](size_t block_lo, size_t block_hi) {
    std::vector<int32_t> anchors(kQueryBlock), truths(kQueryBlock);
    std::vector<float> truth_scores(kQueryBlock);
    AlignedFloats scores(kQueryBlock * tile_size);
    std::vector<const std::vector<int32_t>*> answers(kQueryBlock);
    std::vector<RankCounts> counts(kQueryBlock);
    ScreenScratch screen_scratch;
    ScreenStats stats;
    for (size_t b = block_lo; b < block_hi; ++b) {
      const SlotBlock& block = blocks[b];
      const bool tail_dir = block.direction == QueryDirection::kTail;
      const size_t qb = block.end - block.begin;
      const int32_t kernel_relation = model.KernelRelation(
          triples[(*block.triple_idx)[block.begin]]);
      for (size_t q = 0; q < qb; ++q) {
        const Triple& triple =
            triples[(*block.triple_idx)[block.begin + q]];
        anchors[q] = tail_dir ? triple.head : triple.tail;
        truths[q] = tail_dir ? triple.tail : triple.head;
        answers[q] = protocol.Answers(triple, block.direction);
        KGEVAL_CHECK(answers[q] != nullptr);
        counts[q] = RankCounts();
      }
      if (screened) {
        // Screened sweep: one query construction serves the truth scores
        // and every band re-score.
        const BatchKernel kind = model.batch_kernel();
        model.BuildKernelQueries(anchors.data(), qb, kernel_relation,
                                 block.direction, &screen_scratch.queries);
        const Matrix& queries = screen_scratch.queries;
        const size_t dim = queries.cols();
        for (size_t q = 0; q < qb; ++q) {
          model.ScoreWithQuery(queries, q, &truths[q], 1,
                               &truth_scores[q]);
        }
        stats.queries += static_cast<int64_t>(qb);
        for (const CandidateBlock& tile : tiles) {
          const size_t tn = tile.size();
          ScreenApproxBlock(model, queries, qb, tile, &screen_scratch);
          stats.screened += static_cast<int64_t>(qb) * tn;
          for (size_t q = 0; q < qb; ++q) {
            const float bound =
                ScreenErrorBound(kind, queries.Row(q), dim, tile);
            const float truth_score = truth_scores[q];
            const float* approx = screen_scratch.approx.data() + q * tn;
            screen_scratch.band_ids.clear();
            for (size_t c = 0; c < tn; ++c) {
              if (approx[c] + bound >= truth_score) {
                screen_scratch.band_ids.push_back(tile.ids[c]);
              }
            }
            const size_t band = screen_scratch.band_ids.size();
            screen_scratch.band_scores.resize(band);
            model.ScoreWithQuery(queries, q,
                                 screen_scratch.band_ids.data(), band,
                                 screen_scratch.band_scores.data());
            // The band keeps the tile's sorted id order.
            counts[q] += CountFilteredRank(
                screen_scratch.band_ids.data(),
                screen_scratch.band_scores.data(), band, truths[q],
                truth_score, *answers[q], /*candidates_sorted=*/true);
            stats.rescored += static_cast<int64_t>(band);
          }
        }
      } else {
        for (size_t ti = 0; ti < num_tiles; ++ti) {
          const CandidateBlock& tile = tiles[ti];
          // The first tile's fused call also emits the truth scores, so
          // the block runs one query construction fewer than a separate
          // ScorePairs pass would.
          model.ScoreBlock(
              anchors.data(), ti == 0 ? truths.data() : nullptr, qb,
              kernel_relation, block.direction, tile, scores.data(),
              ti == 0 ? truth_scores.data() : nullptr);
          for (size_t q = 0; q < qb; ++q) {
            counts[q] += CountFilteredRank(
                tile.ids.data(), scores.data() + q * tile.size(),
                tile.size(), truths[q], truth_scores[q], *answers[q],
                tile.sorted);
          }
        }
      }
      for (size_t q = 0; q < qb; ++q) {
        const double rank =
            RankFromCounts(counts[q].higher, counts[q].tied, options.tie);
        const size_t i =
            static_cast<size_t>((*block.triple_idx)[block.begin + q]);
        result.ranks[i * 2 + (tail_dir ? 0 : 1)] = rank;
      }
    }
    if (stats.queries > 0) {
      screen_queries.fetch_add(stats.queries, std::memory_order_relaxed);
      screen_screened.fetch_add(stats.screened, std::memory_order_relaxed);
      screen_rescored.fetch_add(stats.rescored, std::memory_order_relaxed);
    }
  });
  group.Wait();
  result.screen.queries = screen_queries.load();
  result.screen.screened = screen_screened.load();
  result.screen.rescored = screen_rescored.load();

  result.metrics = RankingMetrics::FromRanks(result.ranks);
  return result;
}

FullEvalResult EvaluateFullRanking(const KgeModel& model,
                                   const Dataset& dataset,
                                   const FilterIndex& filter, Split split,
                                   const FullEvalOptions& options) {
  const StaticFilteredProtocol protocol(dataset.num_relations(), &filter);
  return EvaluateFullRanking(model, dataset, protocol, split, options);
}

}  // namespace kgeval
