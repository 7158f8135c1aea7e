// Measures the int8 quantized screen (eval/screen.h) against the exact
// tile sweep it replaces in the full filtered ranking (per-tile band
// rescoring). Every screened pass is parity-checked rank-for-rank against
// its exact twin — screening is only a win if it is *free* in correctness
// terms — and --json writes BENCH_screening.json whose top-level "parity"
// field CI gates on. A rank mismatch prints MISMATCH and exits nonzero.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "eval/full_evaluator.h"
#include "la/kernels/kernels.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace kgeval;

struct ScreenRow {
  const char* model;
  double exact_s = 0.0;
  double screened_s = 0.0;
  int64_t screened = 0;
  int64_t rescored = 0;
  bool parity = false;

  double Speedup() const { return exact_s / screened_s; }
  double RescoreFraction() const {
    return screened > 0 ? static_cast<double>(rescored) / screened : 0.0;
  }
};

double MinSeconds(int reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    fn();
    const double s = timer.Seconds();
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void WriteJson(const std::vector<ScreenRow>& rows, bool all_parity) {
  const char* path = "BENCH_screening.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"kernels\": \"%s\",\n  \"parity\": \"%s\",\n",
               JsonEscape(ActiveScoreKernelName()).c_str(),
               all_parity ? "ok" : "MISMATCH");
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScreenRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"model\": \"%s\", \"exact_s\": %.6f, \"screened_s\": %.6f, "
        "\"speedup\": %.3f, \"screened\": %lld, \"rescored\": %lld, "
        "\"rescore_fraction\": %.4f, \"rank_parity\": %s}%s\n",
        JsonEscape(r.model).c_str(), r.exact_s, r.screened_s, r.Speedup(),
        static_cast<long long>(r.screened),
        static_cast<long long>(r.rescored), r.RescoreFraction(),
        r.parity ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  std::printf("score kernels: %s\n", ActiveScoreKernelName());

  const std::string dataset_name =
      args.only_dataset.empty() ? (args.fast ? "codex-s" : "codex-m")
                                : args.only_dataset;
  const SynthOutput synth = bench::LoadPreset(dataset_name, args);
  const Dataset& dataset = synth.dataset;
  const FilterIndex filter(dataset);
  const int reps = args.fast ? 3 : 7;

  // Trained models, not random init: the screen's band width tracks how far
  // the truth score sits above the pool, which is exactly what training
  // creates. Random embeddings would report a uselessly pessimistic band.
  const std::vector<ModelType> models = {ModelType::kComplEx,
                                         ModelType::kDistMult,
                                         ModelType::kTransE};

  bench::PrintHeader(StrFormat(
      "Full-ranking screening vs exact tile sweep (%s, kernels=%s)",
      dataset_name.c_str(), ActiveScoreKernelName()));
  TextTable table({"Model", "Exact (s)", "Screened (s)", "Speed-up",
                   "Rescored", "Rank parity"});
  std::vector<ScreenRow> rows;
  bool all_parity = true;
  for (ModelType type : models) {
    bench::TrainSpec spec;
    spec.type = type;
    // Paper-scale embedding width on the measured run: the screen's edge is
    // memory traffic (int8 tile = 1/4 the fp32 tile), which only shows once
    // the working set outgrows mid-level cache. --fast keeps the default
    // small dim for CI smoke.
    if (!args.fast) spec.dim = 128;
    spec.epochs = args.fast ? 2 : 6;
    if (args.epochs > 0) spec.epochs = args.epochs;
    auto model = bench::TrainModel(dataset, spec);

    FullEvalOptions exact_options;
    if (args.fast) exact_options.max_triples = 200;
    FullEvalOptions screened_options = exact_options;
    screened_options.screening = true;
    const FullEvalResult exact = EvaluateFullRanking(
        *model, dataset, filter, Split::kTest, exact_options);
    const FullEvalResult screened = EvaluateFullRanking(
        *model, dataset, filter, Split::kTest, screened_options);
    ScreenRow row;
    row.model = ModelTypeName(type);
    row.parity = exact.ranks == screened.ranks;
    row.screened = screened.screen.screened;
    row.rescored = screened.screen.rescored;
    row.exact_s = MinSeconds(reps, [&] {
      EvaluateFullRanking(*model, dataset, filter, Split::kTest,
                          exact_options);
    });
    row.screened_s = MinSeconds(reps, [&] {
      EvaluateFullRanking(*model, dataset, filter, Split::kTest,
                          screened_options);
    });
    all_parity = all_parity && row.parity;
    rows.push_back(row);
    table.AddRow({row.model, bench::F(row.exact_s, 4),
                  bench::F(row.screened_s, 4),
                  StrFormat("%.2fx", row.Speedup()),
                  bench::Pct(row.RescoreFraction()),
                  row.parity ? "exact" : "MISMATCH"});
  }
  std::printf("%s", table.ToString().c_str());
  bench::PrintNote(
      "'Rescored' is the fraction of int8-swept candidates whose band "
      "reached the truth score and was re-scored exactly — the screen's "
      "work bound. Ranks are compared bit-for-bit against the exact "
      "sweep; any mismatch fails this binary.");
  if (args.json) WriteJson(rows, all_parity);
  if (!all_parity) {
    std::fprintf(stderr, "bench_screening: RANK PARITY MISMATCH\n");
    return 1;
  }
  return 0;
}
