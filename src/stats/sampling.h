#ifndef KGEVAL_STATS_SAMPLING_H_
#define KGEVAL_STATS_SAMPLING_H_

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace kgeval {

// Every sampler here returns sorted, distinct values.

/// Draws `k` distinct integers uniformly from [0, n) without replacement
/// using Robert Floyd's algorithm: k bounded draws and an O(k) hash set, so
/// neither time nor memory grows with `n`. If k >= n, returns all of [0, n).
std::vector<int32_t> SampleWithoutReplacement(int64_t n, int64_t k, Rng* rng);

/// Draws `k` values uniformly without replacement from `population` (whose
/// values must be distinct). If k >= population size, returns the whole
/// population.
std::vector<int32_t> SampleFrom(const std::vector<int32_t>& population,
                                int64_t k, Rng* rng);

/// Weighted sampling without replacement: draws up to `k` of the (distinct)
/// values of `items`, with the inclusion law of successive sampling
/// proportional to `weights` (Efraimidis–Spirakis A-Res). Implemented as
/// A-ExpJ, the exponential-jump variant: once k items are held, it jumps
/// straight to the next item that enters the reservoir, so it makes
/// O(k log(n/k)) expected random draws instead of one per item. Items with
/// weight <= 0 are never drawn.
std::vector<int32_t> WeightedSampleWithoutReplacement(
    const std::vector<int32_t>& items, const std::vector<float>& weights,
    int64_t k, Rng* rng);

}  // namespace kgeval

#endif  // KGEVAL_STATS_SAMPLING_H_
