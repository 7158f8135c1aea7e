#include "perfbench/src/library_phase.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include "core/candidate_sets.h"
#include "core/sampled_evaluator.h"
#include "eval/full_evaluator.h"
#include "eval/protocol.h"
#include "eval/slot_blocks.h"
#include "graph/io.h"
#include "recommenders/recommender.h"
#include "sched/task_group.h"
#include "util/string_util.h"

namespace perfbench {

using namespace kgeval;

namespace {

constexpr Split kSplit = Split::kTest;
constexpr double kSampleFraction = 0.08;
/// Queries per full-ranking slot block; mirrors the evaluator's own block
/// size (kQueryBlock in eval/full_evaluator.cc) so the kernel replay makes
/// the same ScoreBlock calls as the pass it is subtracted from.
constexpr size_t kFullQueryBlock = 16;
/// Library cycles a run makes even when --seconds is shorter: the
/// cross-pass gate needs two full-ranking passes.
constexpr int kMinCycles = 2;
/// Estimate calls per strategy (kStrategies order) in each cycle of one
/// full-ranking pass: the shorter calls repeat so that every median rests
/// on several samples.
constexpr std::array<int, 3> kEstimateReps = {2, 2, 8};
/// Test-split prefixes (triples) the scalar-oracle gates check.
constexpr int64_t kOraclePrefix = 500;
constexpr int64_t kFullOraclePrefix = 300;

FrameworkOptions OptionsFor(SamplingStrategy strategy, uint64_t seed) {
  FrameworkOptions options;
  options.recommender = RecommenderType::kLwd;
  options.strategy = strategy;
  options.sample_fraction = kSampleFraction;
  // One draw stream per (seed, strategy).
  options.seed = seed * 3 + static_cast<uint64_t>(strategy);
  return options;
}

template <typename Fn>
double TimeCall(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return SecondsBetween(t0, Clock::now());
}

/// Number of the first `n` entries whose bits differ (n past either end
/// counts every missing entry).
size_t RankMismatches(const std::vector<double>& a,
                      const std::vector<double>& b, size_t n) {
  size_t bad = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i >= a.size() || i >= b.size() ||
        std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      ++bad;
    }
  }
  return bad;
}

/// Candidate pools holding every entity, for each slot the first `prefix`
/// triples of the split query: the scalar oracle over them ranks exactly
/// like full filtered ranking.
SampledCandidates AllEntityPools(const Dataset& dataset, int64_t prefix) {
  const int32_t num_relations = dataset.num_relations();
  std::vector<int32_t> all(static_cast<size_t>(dataset.num_entities()));
  std::iota(all.begin(), all.end(), 0);
  SampledCandidates pools;
  pools.pools.resize(2 * static_cast<size_t>(num_relations));
  const std::vector<Triple>& triples = dataset.split(kSplit);
  for (int64_t i = 0; i < prefix; ++i) {
    for (QueryDirection dir : {QueryDirection::kTail, QueryDirection::kHead}) {
      std::vector<int32_t>& pool = pools.pools[static_cast<size_t>(
          DomainRangeIndex(triples[static_cast<size_t>(i)].relation, dir,
                           num_relations))];
      if (pool.empty()) pool = all;
    }
  }
  return pools;
}

/// The kernel half of one EvaluateFullRanking pass, replayed through the
/// public surface the evaluator is built on: the same protocol schedule,
/// the same entity tiles prepared once in parallel, the same slot-aligned
/// chunks on the worker pool, and one ScoreBlock per (block, tile) —
/// everything except the rank walk over the scores.
void ReplayFullKernel(const KgeModel& model, const Dataset& dataset,
                      const FilterIndex& filter) {
  const StaticFilteredProtocol protocol(dataset.num_relations(), &filter);
  const std::vector<Triple>& triples = dataset.split(kSplit);
  const int32_t num_entities = dataset.num_entities();
  const size_t tile_size = FullEvalOptions().entity_tile;
  std::vector<int32_t> all(static_cast<size_t>(num_entities));
  std::iota(all.begin(), all.end(), 0);
  const EvalSchedule schedule = protocol.BuildSchedule(
      triples, static_cast<int64_t>(triples.size()), kFullQueryBlock);
  const std::vector<SlotBlock>& blocks = schedule.blocks;

  const size_t num_tiles =
      (static_cast<size_t>(num_entities) + tile_size - 1) / tile_size;
  std::vector<CandidateBlock> tiles(num_tiles);
  TaskGroup prepare;
  for (size_t t = 0; t < num_tiles; ++t) {
    prepare.Submit([&, t] {
      const size_t e0 = t * tile_size;
      const size_t e1 =
          std::min(static_cast<size_t>(num_entities), e0 + tile_size);
      model.PrepareCandidates(all.data() + e0, e1 - e0, &tiles[t]);
    });
  }
  prepare.Wait();

  TaskGroup group;
  SubmitSlotChunks(&group, blocks, [&](size_t lo, size_t hi) {
    std::vector<int32_t> anchors(kFullQueryBlock), truths(kFullQueryBlock);
    std::vector<float> truth_scores(kFullQueryBlock);
    std::vector<float> scores(kFullQueryBlock * tile_size);
    for (size_t b = lo; b < hi; ++b) {
      const SlotBlock& block = blocks[b];
      const bool tail = block.direction == QueryDirection::kTail;
      const size_t qb = block.end - block.begin;
      const int32_t kernel_relation =
          model.KernelRelation(triples[static_cast<size_t>(
              (*block.triple_idx)[block.begin])]);
      for (size_t q = 0; q < qb; ++q) {
        const Triple& t = triples[static_cast<size_t>(
            (*block.triple_idx)[block.begin + q])];
        anchors[q] = tail ? t.head : t.tail;
        truths[q] = tail ? t.tail : t.head;
      }
      for (size_t ti = 0; ti < num_tiles; ++ti) {
        model.ScoreBlock(anchors.data(), ti == 0 ? truths.data() : nullptr,
                         qb, kernel_relation, block.direction, tiles[ti],
                         scores.data(),
                         ti == 0 ? truth_scores.data() : nullptr);
      }
    }
  });
  group.Wait();
}

double SpanMedian(const Tracer& tracer, const std::string& name) {
  return Median(tracer.Durations(name));
}

int64_t SpanCount(const Tracer& tracer, const std::string& name) {
  return static_cast<int64_t>(tracer.Durations(name).size());
}

}  // namespace

const char* StrategyKey(SamplingStrategy strategy) {
  switch (strategy) {
    case SamplingStrategy::kRandom:
      return "random";
    case SamplingStrategy::kProbabilistic:
      return "probabilistic";
    case SamplingStrategy::kStatic:
      return "static";
  }
  return "unknown";
}

Result<double> SetupLibrary(const Fixture& fixture, uint64_t seed,
                            Tracer* tracer, LibrarySetup* out) {
  const int64_t trace = tracer->NewTrace();
  const int32_t root = tracer->Open("setup.library", trace);
  double seconds = 0.0;
  {
    const Clock::time_point t0 = Clock::now();
    Result<Dataset> loaded = [&] {
      ScopedSpan span(tracer, "graph.load_tsv", trace, root);
      return LoadDatasetFromTsv(fixture.tsv_dir, fixture.preset);
    }();
    seconds += SecondsBetween(t0, Clock::now());
    if (!loaded.ok()) return loaded.status();
    out->dataset = std::make_unique<Dataset>(std::move(loaded).ValueOrDie());
  }
  seconds += TimeCall([&] {
    ScopedSpan span(tracer, "graph.filter_index", trace, root);
    out->filter = std::make_unique<FilterIndex>(*out->dataset);
  });
  if (tracer->enabled()) {
    // Build() runs these inside one call; timing them standalone splits
    // set-up time by module. Outside the returned set-up time.
    const Result<RecommenderScores> scores = [&] {
      ScopedSpan span(tracer, "recommenders.lwd_fit", trace, root);
      return CreateRecommender(RecommenderType::kLwd)->Fit(*out->dataset);
    }();
    if (!scores.ok()) return scores.status();
    const FrameworkOptions defaults;
    StaticSetOptions static_options = defaults.static_options;
    static_options.include_seen = defaults.include_seen;
    {
      ScopedSpan span(tracer, "core.candidate_sets.static", trace, root);
      BuildStaticSets(scores.ValueOrDie(), *out->dataset, static_options);
    }
    {
      ScopedSpan span(tracer, "core.candidate_sets.probabilistic", trace,
                      root);
      BuildProbabilisticSets(scores.ValueOrDie(), *out->dataset,
                             defaults.include_seen);
    }
  }
  for (size_t k = 0; k < kStrategies.size(); ++k) {
    const Clock::time_point t0 = Clock::now();
    Result<std::unique_ptr<EvaluationFramework>> built = [&] {
      ScopedSpan span(tracer, "core.framework.build", trace, root);
      return EvaluationFramework::Build(out->dataset.get(),
                                        OptionsFor(kStrategies[k], seed));
    }();
    seconds += SecondsBetween(t0, Clock::now());
    if (!built.ok()) return built.status();
    out->frameworks[k] = std::move(built).ValueOrDie();
  }
  tracer->Close(root);
  return seconds;
}

void RunLibraryPhase(double seconds, const std::string& inject,
                     const KgeModel& model, LibrarySetup* setup,
                     Tracer* tracer, Report* report) {
  const Dataset& dataset = *setup->dataset;
  const FilterIndex& filter = *setup->filter;
  const bool traced = tracer->enabled();
  std::array<std::vector<double>, 3> estimate_s, estimate_mrr, pool_entries,
      scored, candidates_per_s;
  std::vector<double> full_s;
  std::vector<double> first_full_ranks;
  double full_mrr = 0.0;

  const Clock::time_point start = Clock::now();
  int cycles = 0;
  while (cycles < kMinCycles ||
         SecondsBetween(start, Clock::now()) < seconds) {
    for (size_t k = 0; k < kStrategies.size(); ++k) {
      EvaluationFramework& fw = *setup->frameworks[k];
      for (int rep = 0; rep < kEstimateReps[k]; ++rep) {
        // The end-to-end call: one Estimate, fresh draw included.
        SampledEvalResult result;
        estimate_s[k].push_back(TimeCall(
            [&] { result = fw.Estimate(model, filter, kSplit); }));
        estimate_mrr[k].push_back(result.metrics.mrr);
        report->Attempt();
        if (!traced) continue;
        // The same work split at its layer boundary: Estimate is
        // EstimateOnPools(DrawPools()).
        const int64_t trace = tracer->NewTrace();
        const std::string key = StrategyKey(kStrategies[k]);
        const int32_t root =
            tracer->Open("core.framework.estimate." + key, trace);
        SampledCandidates pools;
        {
          ScopedSpan span(tracer, "core.samplers.draw." + key, trace, root);
          pools = fw.DrawPools(kSplit);
        }
        const Clock::time_point s0 = Clock::now();
        const int32_t score_span = tracer->Open(
            "core.sampled_evaluator.score." + key, trace, root);
        const SampledEvalResult split_result =
            fw.EstimateOnPools(model, filter, kSplit, pools);
        tracer->Close(score_span);
        const double score_s = SecondsBetween(s0, Clock::now());
        tracer->Close(root);
        report->Attempt();
        pool_entries[k].push_back(static_cast<double>(pools.total_sampled));
        scored[k].push_back(
            static_cast<double>(split_result.scored_candidates));
        candidates_per_s[k].push_back(
            static_cast<double>(split_result.scored_candidates) / score_s);
      }
    }
    FullEvalResult full;
    {
      const int32_t span =
          tracer->Open("eval.full_evaluator.full", tracer->NewTrace());
      full_s.push_back(TimeCall(
          [&] { full = EvaluateFullRanking(model, dataset, filter, kSplit); }));
      tracer->Close(span);
    }
    report->Attempt();
    if (first_full_ranks.empty()) {
      first_full_ranks = full.ranks;
      full_mrr = full.metrics.mrr;
      if (inject == "full-rank") first_full_ranks[0] += 1.0;
    } else {
      const size_t bad =
          RankMismatches(full.ranks, first_full_ranks,
                         std::max(full.ranks.size(), first_full_ranks.size()));
      if (bad != 0) {
        report->Fail(StrFormat("full ranking pass %d: %zu ranks differ from "
                               "the first pass",
                               cycles + 1, bad));
      }
    }
    if (traced) {
      ScopedSpan span(tracer, "models.full_kernel", tracer->NewTrace());
      ReplayFullKernel(model, dataset, filter);
    }
    ++cycles;
  }

  // Gate: the batched engine on one pinned draw per strategy against the
  // one-query-at-a-time scalar oracle, bit for bit.
  const int64_t num_test = static_cast<int64_t>(dataset.split(kSplit).size());
  const int64_t oracle_prefix = std::min(kOraclePrefix, num_test);
  for (size_t k = 0; k < kStrategies.size(); ++k) {
    EvaluationFramework& fw = *setup->frameworks[k];
    const SampledCandidates pools = fw.DrawPools(kSplit);
    SampledEvalResult engine = fw.EstimateOnPools(model, filter, kSplit, pools);
    SampledEvalOptions oracle_options;
    oracle_options.tie = fw.options().tie;
    oracle_options.max_triples = oracle_prefix;
    const SampledEvalResult oracle = EvaluateSampledScalar(
        model, dataset, filter, kSplit, pools, oracle_options);
    if (inject == "sampled-rank" && k == 0) engine.ranks[1] += 1.0;
    report->Attempt();
    const size_t bad = RankMismatches(engine.ranks, oracle.ranks,
                                      2 * static_cast<size_t>(oracle_prefix));
    if (bad != 0) {
      report->Fail(StrFormat("%s: %zu of %lld engine ranks differ from the "
                             "scalar oracle",
                             StrategyKey(kStrategies[k]), bad,
                             static_cast<long long>(2 * oracle_prefix)));
    }
  }
  // Gate: full ranking equals the scalar oracle over all-entity pools.
  {
    const int64_t prefix = std::min(kFullOraclePrefix, num_test);
    SampledEvalOptions oracle_options;
    oracle_options.max_triples = prefix;
    const SampledEvalResult oracle =
        EvaluateSampledScalar(model, dataset, filter, kSplit,
                              AllEntityPools(dataset, prefix), oracle_options);
    report->Attempt();
    const size_t bad = RankMismatches(first_full_ranks, oracle.ranks,
                                      2 * static_cast<size_t>(prefix));
    if (bad != 0) {
      report->Fail(StrFormat("full ranking: %zu of %lld ranks differ from "
                             "the scalar oracle over all-entity pools",
                             bad, static_cast<long long>(2 * prefix)));
    }
  }

  const int64_t n_full = static_cast<int64_t>(full_s.size());
  // Every sample in call order, so drift within a run is visible.
  const auto print_samples = [](const std::string& name,
                                const std::vector<double>& samples) {
    std::printf("samples %s:", name.c_str());
    for (double v : samples) std::printf(" %.4g", v);
    std::printf("\n");
  };
  for (size_t k = 0; k < kStrategies.size(); ++k) {
    print_samples(StrFormat("estimate_s.%s", StrategyKey(kStrategies[k])),
                  estimate_s[k]);
  }
  print_samples("full_s", full_s);
  if (!traced) {
    for (size_t k = 0; k < kStrategies.size(); ++k) {
      report->Metric(StrFormat("estimate_s.%s", StrategyKey(kStrategies[k])),
                     Median(estimate_s[k]), "s",
                     static_cast<int64_t>(estimate_s[k].size()));
    }
    report->Metric("full_s", Median(full_s), "s", n_full);
    // Random's error is printed, not reported as a metric: it is the
    // paper's finding (uniform pools are optimistic), not a target.
    for (size_t k = 0; k < kStrategies.size(); ++k) {
      const double mean =
          std::accumulate(estimate_mrr[k].begin(), estimate_mrr[k].end(),
                          0.0) /
          static_cast<double>(estimate_mrr[k].size());
      const double rel_err = std::fabs(mean - full_mrr) / full_mrr;
      const std::string key = StrategyKey(kStrategies[k]);
      if (kStrategies[k] == SamplingStrategy::kRandom) {
        std::printf("mrr_rel_err.random %.6f (reported, not gated)\n",
                    rel_err);
      } else {
        report->Metric("mrr_rel_err." + key, rel_err, "ratio",
                       static_cast<int64_t>(estimate_mrr[k].size()));
      }
      std::printf("estimated mrr %-13s mean %.6f over %zu draws; full mrr "
                  "%.6f\n",
                  key.c_str(), mean, estimate_mrr[k].size(), full_mrr);
    }
    // Table 9's speed-ups, with their bases. Not gated: a faster full
    // ranking would read as a lower speed-up.
    for (size_t k = 0; k < kStrategies.size(); ++k) {
      std::printf("speed-up %-13s full_s %.4f s / estimate_s %.4f s = "
                  "%.2fx\n",
                  StrategyKey(kStrategies[k]), Median(full_s),
                  Median(estimate_s[k]),
                  Median(full_s) / Median(estimate_s[k]));
    }
    return;
  }

  // Traced run: the per-layer split.
  report->Metric("graph.load_tsv_s", SpanMedian(*tracer, "graph.load_tsv"),
                 "s", SpanCount(*tracer, "graph.load_tsv"));
  report->Metric("graph.filter_index_s",
                 SpanMedian(*tracer, "graph.filter_index"), "s",
                 SpanCount(*tracer, "graph.filter_index"));
  report->Metric("recommenders.lwd_fit_s",
                 SpanMedian(*tracer, "recommenders.lwd_fit"), "s",
                 SpanCount(*tracer, "recommenders.lwd_fit"));
  for (const char* key : {"static", "probabilistic"}) {
    const std::string span = std::string("core.candidate_sets.") + key;
    report->Metric(std::string("core.candidate_sets_s.") + key,
                   SpanMedian(*tracer, span), "s", SpanCount(*tracer, span));
  }
  double traced_total = 0.0, untraced_total = 0.0;
  for (size_t k = 0; k < kStrategies.size(); ++k) {
    const std::string key = StrategyKey(kStrategies[k]);
    const int64_t n = static_cast<int64_t>(pool_entries[k].size());
    const double draw = SpanMedian(*tracer, "core.samplers.draw." + key);
    const double score =
        SpanMedian(*tracer, "core.sampled_evaluator.score." + key);
    const double root = SpanMedian(*tracer, "core.framework.estimate." + key);
    const double untraced = Median(estimate_s[k]);
    report->Metric("core.samplers.draw_s." + key, draw, "s", n);
    report->Metric("core.samplers.pool_entries." + key,
                   Median(pool_entries[k]), "count", n);
    report->Metric("core.sampled_evaluator.score_s." + key, score, "s", n);
    report->Metric("core.sampled_evaluator.scored_candidates." + key,
                   Median(scored[k]), "count", n);
    report->Metric("core.sampled_evaluator.candidates_per_s." + key,
                   Median(candidates_per_s[k]), "1/s", n);
    std::printf("reconcile %-13s draw %.4f + score %.4f = %.4f s; traced "
                "estimate %.4f s; untraced Estimate %.4f s\n",
                key.c_str(), draw, score, draw + score, root, untraced);
    traced_total += root;
    untraced_total += untraced;
  }
  const double kernel = SpanMedian(*tracer, "models.full_kernel");
  report->Metric("models.full_kernel_s", kernel, "s",
                 SpanCount(*tracer, "models.full_kernel"));
  report->Metric("eval.full_evaluator.rank_s", Median(full_s) - kernel, "s",
                 n_full);
  report->Metric("eval.full_evaluator.scored_pairs",
                 2.0 * static_cast<double>(num_test) *
                     static_cast<double>(dataset.num_entities()),
                 "count", n_full);
  // Tracing overhead: the traced Estimate path against the untraced calls
  // made in the same run.
  report->Metric("trace.overhead_frac", traced_total / untraced_total - 1.0,
                 "ratio", static_cast<int64_t>(estimate_s[0].size()));
}

}  // namespace perfbench
