#include "perfbench/src/fixture.h"

#include <cstring>
#include <filesystem>
#include <unordered_map>

#include "graph/io.h"
#include "models/trainer.h"
#include "synth/config.h"
#include "util/string_util.h"

namespace perfbench {

using namespace kgeval;

namespace {

// Fixed fixture seeds: the model, its training order and its checkpoints
// are identical in every run of every seed, so accuracy metrics move only
// with the draws and a changed program.
constexpr uint64_t kModelSeed = 11;
constexpr uint64_t kTrainSeed = 77;
/// Two epochs leave two checkpoints for EVAL to cycle through.
constexpr int32_t kTrainEpochs = 2;
constexpr int32_t kNegatives = 8;

ModelOptions FixtureModelOptions() {
  ModelOptions options;
  options.dim = 32;
  options.adam.learning_rate = 3e-3f;
  options.seed = kModelSeed;
  return options;
}

/// Position of every label of `to` in `from`'s id space.
Result<std::vector<int32_t>> MapLabels(const std::vector<std::string>& from,
                                       const std::vector<std::string>& to,
                                       const char* what) {
  if (from.size() != to.size() || from.empty()) {
    return Status::InvalidArgument(
        StrFormat("%s labels differ in count: %zu vs %zu", what, from.size(),
                  to.size()));
  }
  std::unordered_map<std::string, int32_t> index;
  index.reserve(from.size());
  for (size_t i = 0; i < from.size(); ++i) {
    index.emplace(from[i], static_cast<int32_t>(i));
  }
  std::vector<int32_t> map(to.size());
  for (size_t i = 0; i < to.size(); ++i) {
    auto it = index.find(to[i]);
    if (it == index.end()) {
      return Status::InvalidArgument(
          StrFormat("%s label %s missing", what, to[i].c_str()));
    }
    map[i] = it->second;
  }
  return {std::move(map)};
}

}  // namespace

Result<Fixture> BuildFixture(const std::string& preset,
                             const std::string& work_dir, Tracer* tracer) {
  namespace fs = std::filesystem;
  Fixture fixture;
  fixture.preset = preset;
  fixture.tsv_dir = (fs::path(work_dir) / "tsv").string();
  std::error_code ec;
  fs::create_directories(fixture.tsv_dir, ec);
  if (ec) return Status::IoError("cannot create " + fixture.tsv_dir);

  auto config = GetPreset(preset, PresetScale::kScaled);
  if (!config.ok()) return config.status();
  {
    const Clock::time_point t0 = Clock::now();
    const int32_t span =
        tracer->Open("synth.generate." + preset, tracer->NewTrace());
    auto synth = GenerateDataset(config.ValueOrDie());
    tracer->Close(span);
    if (!synth.ok()) return synth.status();
    fixture.synth = std::move(synth).ValueOrDie();
    fixture.generate_s = SecondsBetween(t0, Clock::now());
  }
  const Dataset& dataset = fixture.synth.dataset;
  {
    const Clock::time_point t0 = Clock::now();
    KGEVAL_RETURN_NOT_OK(SaveDatasetToTsv(dataset, fixture.tsv_dir));
    fixture.write_tsv_s = SecondsBetween(t0, Clock::now());
  }
  {
    const Clock::time_point t0 = Clock::now();
    auto model = CreateModel(ModelType::kComplEx, dataset.num_entities(),
                             dataset.num_relations(), FixtureModelOptions());
    if (!model.ok()) return model.status();
    fixture.model = std::move(model).ValueOrDie();
    TrainerOptions trainer;
    trainer.epochs = kTrainEpochs;
    trainer.negatives_per_positive = kNegatives;
    // Hogwild training is nondeterministic above one thread.
    trainer.num_threads = 1;
    trainer.seed = kTrainSeed;
    trainer.checkpoint_dir = (fs::path(work_dir) / "checkpoints").string();
    Trainer run(&dataset, trainer);
    KGEVAL_RETURN_NOT_OK(run.Train(fixture.model.get()));
    for (int32_t epoch = 0; epoch < kTrainEpochs; ++epoch) {
      fixture.checkpoints.push_back(
          CheckpointPath(trainer.checkpoint_dir, epoch, kTrainEpochs));
    }
    fixture.train_s = SecondsBetween(t0, Clock::now());
  }
  return {std::move(fixture)};
}

Result<std::unique_ptr<KgeModel>> ReindexModel(KgeModel* model,
                                               const Dataset& from,
                                               const Dataset& to) {
  auto entity_map =
      MapLabels(from.entity_labels(), to.entity_labels(), "entity");
  if (!entity_map.ok()) return entity_map.status();
  auto relation_map =
      MapLabels(from.relation_labels(), to.relation_labels(), "relation");
  if (!relation_map.ok()) return relation_map.status();
  auto copy = CreateModel(model->type(), to.num_entities(),
                          to.num_relations(), model->options());
  if (!copy.ok()) return copy.status();
  std::unique_ptr<KgeModel> out = std::move(copy).ValueOrDie();

  std::vector<KgeModel::NamedParameter> src, dst;
  model->CollectParameters(&src);
  out->CollectParameters(&dst);
  if (src.size() != dst.size()) {
    return Status::Internal("parameter lists differ");
  }
  for (size_t p = 0; p < src.size(); ++p) {
    const Matrix& a = *src[p].matrix;
    Matrix& b = *dst[p].matrix;
    if (std::strcmp(src[p].name, dst[p].name) != 0 || a.rows() != b.rows() ||
        a.cols() != b.cols()) {
      return Status::Internal(
          StrFormat("parameter %s differs in shape", src[p].name));
    }
    const std::vector<int32_t>* map = nullptr;
    if (std::strcmp(src[p].name, "entities") == 0) {
      map = &entity_map.ValueOrDie();
    } else if (std::strcmp(src[p].name, "relations") == 0) {
      map = &relation_map.ValueOrDie();
    } else {
      return Status::InvalidArgument(
          StrFormat("cannot re-index parameter %s", src[p].name));
    }
    for (size_t row = 0; row < b.rows(); ++row) {
      std::memcpy(b.Row(row), a.Row(static_cast<size_t>((*map)[row])),
                  b.cols() * sizeof(float));
    }
  }
  return {std::move(out)};
}

}  // namespace perfbench
