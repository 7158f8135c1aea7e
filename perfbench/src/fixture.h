#ifndef KGEVAL_PERFBENCH_FIXTURE_H_
#define KGEVAL_PERFBENCH_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/dataset.h"
#include "models/kge_model.h"
#include "perfbench/src/trace.h"
#include "synth/generator.h"
#include "util/status.h"

namespace perfbench {

/// One benchmark workload: the dataset preset of the library phase
/// (Table 9: sampled estimates and full ranking), the preset the service
/// phase LOADs, how the run's measuring time is split between the two
/// phases, and the service phase's fixed offered EVAL rate.
struct WorkloadSpec {
  std::string name;
  std::string library_preset;
  std::string service_preset;
  /// Share of --seconds given to the library phase; the service phase gets
  /// the rest.
  double library_share = 0.5;
  /// Open-loop EVAL requests per second, a fixed number derived from the
  /// EVAL capacity measured when the benchmark was defined (see
  /// perfbench/README.md).
  double eval_rate_hz = 10.0;
};

/// Inputs generated once per run for one preset, excluded from every
/// metric: the generator-ordered dataset (what the service's LOAD builds),
/// its TSV copy (what the library phase loads), a ComplEx fixture model
/// trained single-threaded with fixed seeds, and that training run's
/// per-epoch checkpoints (the service's EVAL targets).
struct Fixture {
  std::string preset;
  std::string tsv_dir;
  kgeval::SynthOutput synth;
  std::unique_ptr<kgeval::KgeModel> model;  // Final epoch, generator ids.
  std::vector<std::string> checkpoints;
  double generate_s = 0.0;
  double write_tsv_s = 0.0;
  double train_s = 0.0;
};

/// Generates `preset`, writes its TSV copy and trains the fixture model
/// under `work_dir` (created). The GenerateDataset call, the call the
/// service's LOAD runs, is recorded as span `synth.generate.<preset>`.
kgeval::Result<Fixture> BuildFixture(const std::string& preset,
                                     const std::string& work_dir,
                                     Tracer* tracer);

/// Re-indexes `model` (trained on `from`) onto `to`, the same graph with
/// entity and relation ids assigned in another order (a TSV round trip
/// numbers them by first appearance). Rows are matched through the
/// datasets' labels, so the result scores every labelled triple exactly as
/// `model` does.
kgeval::Result<std::unique_ptr<kgeval::KgeModel>> ReindexModel(
    kgeval::KgeModel* model, const kgeval::Dataset& from,
    const kgeval::Dataset& to);

}  // namespace perfbench

#endif  // KGEVAL_PERFBENCH_FIXTURE_H_
