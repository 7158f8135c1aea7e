#include "core/samplers.h"

#include <algorithm>
#include <unordered_set>

#include "sched/task_group.h"
#include "stats/sampling.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kgeval {

const char* SamplingStrategyName(SamplingStrategy strategy) {
  switch (strategy) {
    case SamplingStrategy::kRandom:
      return "Random";
    case SamplingStrategy::kStatic:
      return "Static";
    case SamplingStrategy::kProbabilistic:
      return "Probabilistic";
  }
  return "?";
}

std::vector<int32_t> NeededSlots(const Dataset& dataset, Split split) {
  const int32_t num_r = dataset.num_relations();
  std::unordered_set<int32_t> slots;
  for (const Triple& t : dataset.split(split)) {
    slots.insert(t.relation);            // Head queries sample the domain.
    slots.insert(t.relation + num_r);    // Tail queries sample the range.
  }
  std::vector<int32_t> out(slots.begin(), slots.end());
  std::sort(out.begin(), out.end());
  return out;
}

SampledCandidates DrawCandidates(SamplingStrategy strategy,
                                 const CandidateSets* sets,
                                 int32_t num_entities, int64_t n_s,
                                 const std::vector<int32_t>& slots,
                                 int32_t num_slots_total, Rng* rng) {
  WallTimer timer;
  SampledCandidates out;
  out.pools.resize(num_slots_total);
  if (strategy != SamplingStrategy::kRandom) {
    KGEVAL_CHECK(sets != nullptr);
    KGEVAL_CHECK_EQ(sets->num_slots(), num_slots_total);
  }
  // Each slot's pool is written by exactly one task.
  std::vector<char> requested(num_slots_total, 0);
  for (int32_t slot : slots) {
    KGEVAL_CHECK(slot >= 0 && slot < num_slots_total);
    KGEVAL_CHECK(!requested[slot]);
    requested[slot] = 1;
  }
  const uint64_t base = rng->Next();
  ParallelFor(
      0, slots.size(),
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const int32_t slot = slots[i];
          Rng slot_rng(base + static_cast<uint64_t>(slot));
          std::vector<int32_t>& pool = out.pools[slot];
          switch (strategy) {
            case SamplingStrategy::kRandom:
              pool = SampleWithoutReplacement(num_entities, n_s, &slot_rng);
              break;
            case SamplingStrategy::kStatic:
              // Theorem 1's restriction: n_s,r = min(n_s, |set|).
              pool = SampleFrom(sets->sets[slot], n_s, &slot_rng);
              break;
            case SamplingStrategy::kProbabilistic:
              pool = WeightedSampleWithoutReplacement(
                  sets->sets[slot], sets->weights[slot], n_s, &slot_rng);
              break;
          }
        }
      },
      // A slot is thousands of draws: split even a few hundred slots.
      /*min_chunk=*/1);
  for (int32_t slot : slots) {
    out.total_sampled += static_cast<int64_t>(out.pools[slot].size());
  }
  out.sample_seconds = timer.Seconds();
  return out;
}

}  // namespace kgeval
