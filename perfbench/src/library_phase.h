#ifndef KGEVAL_PERFBENCH_LIBRARY_PHASE_H_
#define KGEVAL_PERFBENCH_LIBRARY_PHASE_H_

#include <array>
#include <memory>
#include <string>

#include "core/framework.h"
#include "graph/dataset.h"
#include "models/kge_model.h"
#include "perfbench/src/fixture.h"
#include "perfbench/src/trace.h"

namespace perfbench {

/// The three sampling strategies of Table 9, in report order.
constexpr std::array<kgeval::SamplingStrategy, 3> kStrategies = {
    kgeval::SamplingStrategy::kRandom,
    kgeval::SamplingStrategy::kProbabilistic,
    kgeval::SamplingStrategy::kStatic};

/// Metric-name suffix of a strategy: "random", "probabilistic", "static".
const char* StrategyKey(kgeval::SamplingStrategy strategy);

/// What the library phase runs on: the TSV-loaded dataset, its filter, and
/// one framework per strategy (indexed like kStrategies).
struct LibrarySetup {
  std::unique_ptr<kgeval::Dataset> dataset;
  std::unique_ptr<kgeval::FilterIndex> filter;
  std::array<std::unique_ptr<kgeval::EvaluationFramework>, 3> frameworks;
};

/// One library set-up: LoadDatasetFromTsv, the FilterIndex constructor and
/// one EvaluationFramework::Build per strategy (L-WD recommender, 8%
/// sample), with draw seeds derived from `seed`. Returns its wall time.
/// With tracing on it also times the recommender fit and both
/// candidate-set builders as standalone calls (outside the returned time).
kgeval::Result<double> SetupLibrary(const Fixture& fixture, uint64_t seed,
                                    Tracer* tracer, LibrarySetup* out);

/// The Table 9 loop for `seconds`: cycles of 2 Random, 2 Probabilistic
/// and 8 Static Estimate calls, each with a fresh draw, and one full
/// filtered ranking pass on the test split.
/// Then the gates: engine ranks on a pinned draw against the scalar
/// oracle, full-ranking ranks across passes and against the oracle over
/// all-entity pools. Adds the estimate/full/accuracy metrics (timed run)
/// or the per-layer split (traced run) to `report`. `inject` names a
/// defect to plant for the gate self-tests ("sampled-rank", "full-rank").
void RunLibraryPhase(double seconds, const std::string& inject,
                     const kgeval::KgeModel& model, LibrarySetup* setup,
                     Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // KGEVAL_PERFBENCH_LIBRARY_PHASE_H_
