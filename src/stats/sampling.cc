#include "stats/sampling.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/logging.h"

namespace kgeval {
namespace {

/// Uniform double in the open interval (0, 1): log() of it is finite and
/// strictly negative.
double OpenUnit(Rng* rng) {
  return (static_cast<double>(rng->Next() >> 11) + 0.5) * 0x1.0p-53;
}

/// Open-addressing set of non-negative int32 values sized for `capacity`
/// insertions: O(k) memory for Floyd's k draws, independent of n.
class FlatIntSet {
 public:
  explicit FlatIntSet(int64_t capacity) {
    size_t buckets = 16;
    while (buckets < static_cast<size_t>(capacity) * 2) buckets <<= 1;
    slots_.assign(buckets, kEmpty);
    mask_ = buckets - 1;
  }

  /// Inserts `value`; false if it was already present.
  bool Insert(int32_t value) {
    // Multiplicative hash: bits 32.. of value * 2^64/phi index the table.
    size_t i = static_cast<size_t>(
                   (static_cast<uint64_t>(value) * 0x9E3779B97F4A7C15ULL) >>
                   32) &
               mask_;
    while (slots_[i] != kEmpty) {
      if (slots_[i] == value) return false;
      i = (i + 1) & mask_;
    }
    slots_[i] = value;
    return true;
  }

 private:
  static constexpr int32_t kEmpty = -1;
  std::vector<int32_t> slots_;
  size_t mask_ = 0;
};

/// Sorts `ids` ascending: an LSD radix sort on the bytes of id - min, with
/// as many passes as the value span needs (two for 40k entities). Random
/// ids make std::sort mispredict at nearly every comparison.
void SortIds(std::vector<int32_t>* ids) {
  if (ids->size() < 2) return;
  const auto [lo, hi] = std::minmax_element(ids->begin(), ids->end());
  const uint32_t base = static_cast<uint32_t>(*lo);
  const uint32_t span = static_cast<uint32_t>(*hi) - base;
  std::vector<int32_t> buffer(ids->size());
  for (int shift = 0; shift < 32 && (span >> shift) != 0; shift += 8) {
    const auto digit = [base, shift](int32_t id) {
      return ((static_cast<uint32_t>(id) - base) >> shift) & 0xFF;
    };
    std::array<size_t, 257> offset{};
    for (int32_t id : *ids) ++offset[digit(id) + 1];
    for (size_t d = 1; d < offset.size(); ++d) offset[d] += offset[d - 1];
    for (int32_t id : *ids) buffer[offset[digit(id)]++] = id;
    ids->swap(buffer);
  }
}

}  // namespace

std::vector<int32_t> SampleWithoutReplacement(int64_t n, int64_t k, Rng* rng) {
  KGEVAL_CHECK_GE(n, 0);
  if (k >= n) {
    std::vector<int32_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  std::vector<int32_t> out;
  out.reserve(k);
  FlatIntSet chosen(k);
  // Floyd's algorithm: for j in [n-k, n), draw t in [0, j]; take t unless
  // already chosen, in which case take j (never chosen: every earlier pick
  // is < j).
  for (int64_t j = n - k; j < n; ++j) {
    int32_t pick = static_cast<int32_t>(rng->NextBounded(j + 1));
    if (!chosen.Insert(pick)) {
      pick = static_cast<int32_t>(j);
      chosen.Insert(pick);
    }
    out.push_back(pick);
  }
  SortIds(&out);
  return out;
}

std::vector<int32_t> SampleFrom(const std::vector<int32_t>& population,
                                int64_t k, Rng* rng) {
  std::vector<int32_t> out;
  if (k >= static_cast<int64_t>(population.size())) {
    out = population;
  } else {
    out.reserve(k);
    for (int32_t i : SampleWithoutReplacement(
             static_cast<int64_t>(population.size()), k, rng)) {
      out.push_back(population[i]);
    }
  }
  // Sorted indices already give sorted values for a sorted population.
  if (!std::is_sorted(out.begin(), out.end())) SortIds(&out);
  return out;
}

std::vector<int32_t> WeightedSampleWithoutReplacement(
    const std::vector<int32_t>& items, const std::vector<float>& weights,
    int64_t k, Rng* rng) {
  KGEVAL_CHECK_EQ(items.size(), weights.size());
  const size_t n = items.size();
  k = std::min(k, static_cast<int64_t>(n));
  if (k <= 0) return {};
  // Efraimidis–Spirakis in log space: item i's key is log(u_i) / w_i, the
  // log of A-Res's u_i^(1/w_i), and the k largest keys win.
  using Entry = std::pair<double, int32_t>;
  std::vector<Entry> kept;
  kept.reserve(static_cast<size_t>(std::min(2 * k, static_cast<int64_t>(n))));
  size_t i = 0;
  for (; i < n && static_cast<int64_t>(kept.size()) < k; ++i) {
    const double w = static_cast<double>(weights[i]);
    if (w <= 0.0) continue;
    kept.emplace_back(std::log(OpenUnit(rng)) / w, items[i]);
  }
  // Keeps the k largest keys; returns the smallest kept one.
  const auto cut = [&kept, k] {
    std::nth_element(kept.begin(), kept.begin() + (k - 1), kept.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.first > b.first;
                     });
    kept.resize(k);
    return kept.back().first;
  };
  // A-ExpJ. With k keys held, let t be a lower bound on the k-th largest.
  // The next item whose key beats t is the one at which the cumulative
  // weight passes log(r) / t, so the items in between need neither a random
  // draw nor a log. Its key, conditioned on beating t, is log(u) / w for u
  // uniform in (e^(wt), 1), drawn as 1 - (1 - e^(wt)) * v for v in [0, 1)
  // via expm1/log1p, which stays exact when e^(wt) is close to 1.
  // t is refreshed only when the buffer reaches 2k: a stale (lower) t admits
  // items that a later cut discards, but every item it skips is below the
  // k-th largest key, so the result is exactly A-Res's top k, with no heap.
  if (i < n) {
    double log_t = cut();
    double jump = std::log(OpenUnit(rng)) / log_t;
    for (; i < n; ++i) {
      const double w = static_cast<double>(weights[i]);
      if (w <= 0.0) continue;
      jump -= w;
      if (jump > 0.0) continue;
      const double miss = -std::expm1(w * log_t);  // 1 - e^(wt).
      kept.emplace_back(std::log1p(-miss * rng->NextDouble()) / w, items[i]);
      if (static_cast<int64_t>(kept.size()) == 2 * k) log_t = cut();
      jump = std::log(OpenUnit(rng)) / log_t;
    }
    if (static_cast<int64_t>(kept.size()) > k) cut();
  }
  std::vector<int32_t> out;
  out.reserve(kept.size());
  for (const Entry& entry : kept) out.push_back(entry.second);
  SortIds(&out);
  return out;
}

}  // namespace kgeval
