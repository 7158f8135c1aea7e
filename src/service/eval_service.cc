#include "service/eval_service.h"

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#include "la/kernels/kernels.h"
#include "service/checkpoint_watcher.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace kgeval {

namespace {

/// Metric values are formatted with %.17g everywhere in the protocol:
/// round-trip exact for IEEE doubles, so "served value equals directly
/// computed value" is byte comparison, not epsilon comparison.
std::string Fmt(double v) { return StrFormat("%.17g", v); }

bool ParseDouble(const std::string& s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == s.c_str()) return false;
  *out = v;
  return true;
}

bool ParseInt(const std::string& s, int64_t* out) {
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || end == s.c_str()) return false;
  *out = v;
  return true;
}

std::string SampledReply(const SampledEvalResult& r) {
  return StrFormat(
      "OK mrr=%s ci=%s hits1=%s hits3=%s hits10=%s queries=%lld scored=%lld "
      "eval_s=%.6f",
      Fmt(r.metrics.mrr).c_str(), Fmt(r.ci.mrr).c_str(),
      Fmt(r.metrics.hits1).c_str(), Fmt(r.metrics.hits3).c_str(),
      Fmt(r.metrics.hits10).c_str(),
      static_cast<long long>(r.metrics.num_queries),
      static_cast<long long>(r.scored_candidates), r.eval_seconds);
}

std::string AdaptiveReply(const AdaptiveEvalResult& r) {
  return StrFormat(
      "OK mrr=%s ci=%s hits1=%s hits3=%s hits10=%s queries=%lld scored=%lld "
      "eval_s=%.6f converged=%d rounds=%lld",
      Fmt(r.metrics.mrr).c_str(), Fmt(r.ci.mrr).c_str(),
      Fmt(r.metrics.hits1).c_str(), Fmt(r.metrics.hits3).c_str(),
      Fmt(r.metrics.hits10).c_str(),
      static_cast<long long>(r.evaluated_queries),
      static_cast<long long>(r.scored_candidates), r.eval_seconds,
      r.converged ? 1 : 0, static_cast<long long>(r.rounds));
}

}  // namespace

FrameworkOptions EvalService::ServiceFrameworkOptions() {
  // Deliberately explicit, not just FrameworkOptions{}: these values are
  // part of the service contract (PROTOCOL.md "LOAD") and the load bench's
  // parity gate reconstructs them.
  FrameworkOptions options;
  options.recommender = RecommenderType::kLwd;
  options.strategy = SamplingStrategy::kProbabilistic;
  options.sample_fraction = 0.1;
  options.seed = 33;
  return options;
}

EvalService::EvalService(Options options)
    : options_(options),
      start_seconds_(
          std::chrono::duration<double>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count()) {}

std::shared_ptr<const EvalService::Loaded> EvalService::Snapshot() const {
  MutexLock lock(&state_mutex_);
  return state_;
}

std::string EvalService::loaded_name() const {
  auto state = Snapshot();
  return state == nullptr ? std::string() : state->name;
}

bool EvalService::EmitError(const EmitFn& emit, const std::string& code,
                            const std::string& message) {
  counters_.errors.fetch_add(1, std::memory_order_relaxed);
  return emit(StrFormat("ERR %s %s", code.c_str(), message.c_str()));
}

bool EvalService::EmitCancelled(const EmitFn& emit, const CancelToken& cancel,
                                const std::string& what) {
  if (cancel.reason() == CancelToken::Reason::kDeadline) {
    counters_.deadlines_exceeded.fetch_add(1, std::memory_order_relaxed);
    return EmitError(emit, "deadline-exceeded", what);
  }
  counters_.cancelled.fetch_add(1, std::memory_order_relaxed);
  return EmitError(emit, "cancelled", what);
}

void EvalService::Execute(const ParsedCommand& cmd, const EmitFn& emit,
                          const CancelToken* cancel) {
  KGEVAL_CHECK(cmd.spec != nullptr);
  counters_.commands.fetch_add(1, std::memory_order_relaxed);
  counters_.in_flight.fetch_add(1, std::memory_order_relaxed);
  switch (cmd.spec->verb) {
    case Verb::kPing:
      emit("OK pong");
      break;
    case Verb::kLoad:
      ExecuteLoad(cmd, emit);
      break;
    case Verb::kEval:
      ExecuteEval(cmd, emit, cancel);
      break;
    case Verb::kSweep:
      ExecuteSweep(cmd, emit, cancel);
      break;
    case Verb::kWatch:
      ExecuteWatch(cmd, emit, cancel);
      break;
    case Verb::kStats:
      ExecuteStats(emit);
      break;
    case Verb::kQuit:
      // Transport-level; the server handles it before dispatch.
      EmitError(emit, "internal", "QUIT reached the service");
      break;
  }
  counters_.in_flight.fetch_sub(1, std::memory_order_relaxed);
}

void EvalService::ExecuteLoad(const ParsedCommand& cmd, const EmitFn& emit) {
  const std::string& name = cmd.args[0];
  Split split = Split::kTest;
  if (cmd.args.size() > 1) {
    std::string s = cmd.args[1];
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    if (s == "valid") {
      split = Split::kValid;
    } else if (s == "test") {
      split = Split::kTest;
    } else {
      EmitError(emit, "bad-argument",
                StrFormat("split must be valid|test, got %s",
                          cmd.args[1].c_str()));
      return;
    }
  }
  auto config = GetPreset(name, options_.scale);
  if (!config.ok()) {
    EmitError(emit, "bad-argument", config.status().message());
    return;
  }
  WallTimer timer;
  // One LOAD builds at a time: two clients racing LOADs would each burn a
  // recommender fit only for one result to be dropped.
  MutexLock load_lock(&load_mutex_);
  auto loaded = std::make_shared<Loaded>();
  loaded->name = name;
  loaded->split = split;
  auto synth = GenerateDataset(config.ValueOrDie());
  if (!synth.ok()) {
    EmitError(emit, "internal", synth.status().message());
    return;
  }
  loaded->synth =
      std::make_unique<SynthOutput>(std::move(synth).ValueOrDie());
  loaded->filter = std::make_unique<FilterIndex>(loaded->synth->dataset);
  loaded->temporal_filter =
      std::make_unique<TemporalFilterIndex>(loaded->synth->dataset);
  loaded->static_protocol = std::make_unique<StaticFilteredProtocol>(
      loaded->synth->dataset, loaded->filter.get());
  loaded->temporal_protocol = std::make_unique<TemporalFilteredProtocol>(
      loaded->synth->dataset, loaded->temporal_filter.get());
  auto session =
      EvalSession::Create(&loaded->synth->dataset, loaded->filter.get(),
                          ServiceFrameworkOptions(), split);
  if (!session.ok()) {
    EmitError(emit, "internal", session.status().message());
    return;
  }
  loaded->session = std::move(session).ValueOrDie();
  const Dataset& dataset = loaded->synth->dataset;
  const int64_t sample_size = loaded->session->framework().SampleSize();
  {
    MutexLock lock(&state_mutex_);
    state_ = std::move(loaded);
  }
  auto state = Snapshot();
  emit(StrFormat(
      "OK dataset=%s split=%s entities=%d relations=%d train=%lld "
      "eval_triples=%lld sample_size=%lld build_s=%.3f",
      name.c_str(), split == Split::kValid ? "valid" : "test",
      dataset.num_entities(), dataset.num_relations(),
      static_cast<long long>(dataset.train().size()),
      static_cast<long long>(split == Split::kValid ? dataset.valid().size()
                                                    : dataset.test().size()),
      static_cast<long long>(sample_size), timer.Seconds()));
}

void EvalService::ExecuteEval(const ParsedCommand& cmd, const EmitFn& emit,
                              const CancelToken* cancel) {
  auto state = Snapshot();
  if (state == nullptr) {
    EmitError(emit, "no-dataset", "LOAD a dataset before EVAL");
    return;
  }
  const std::string& path = cmd.args[0];
  const EvaluationFramework& framework = state->session->framework();
  // Optional arguments, in order: a numeric half_width (switching to the
  // adaptive estimator), then a protocol name. A lone non-numeric token is
  // a protocol name, so `EVAL <ckpt> temporal` works without a half_width.
  bool adaptive_requested = false;
  double half_width = 0.0;
  size_t arg = 1;
  if (cmd.args.size() > 1 && ParseDouble(cmd.args[1], &half_width)) {
    if (half_width <= 0.0 || half_width >= 1.0) {
      EmitError(emit, "bad-argument",
                StrFormat("half_width must be in (0, 1), got %s",
                          cmd.args[1].c_str()));
      return;
    }
    adaptive_requested = true;
    arg = 2;
  }
  const EvalProtocol* protocol = state->static_protocol.get();
  if (arg < cmd.args.size()) {
    const std::string& protocol_name = cmd.args[arg];
    if (arg + 1 < cmd.args.size()) {
      EmitError(emit, "bad-argument",
                StrFormat("unexpected argument %s (half_width must precede "
                          "the protocol name)",
                          cmd.args[arg + 1].c_str()));
      return;
    }
    if (protocol_name == "static") {
      protocol = state->static_protocol.get();
    } else if (protocol_name == "temporal") {
      protocol = state->temporal_protocol.get();
    } else {
      EmitError(emit, "unknown-protocol",
                StrFormat("protocol must be static|temporal, got %s",
                          protocol_name.c_str()));
      return;
    }
  }
  if (adaptive_requested) {
    AdaptiveEvalOptions adaptive;
    adaptive.target_half_width = half_width;
    auto result = framework.EstimateAdaptiveCheckpointOnPools(
        path, *protocol, state->split, state->session->pools(), adaptive,
        cancel);
    if (!result.ok()) {
      if (result.status().code() == StatusCode::kCancelled &&
          cancel != nullptr) {
        EmitCancelled(emit, *cancel, result.status().message());
      } else {
        EmitError(emit, "eval-failed", result.status().message());
      }
      return;
    }
    counters_.checkpoints_evaluated.fetch_add(1, std::memory_order_relaxed);
    emit(AdaptiveReply(result.ValueOrDie()));
    return;
  }
  auto result = framework.EstimateCheckpointOnPools(
      path, *protocol, state->split, state->session->pools(),
      /*max_triples=*/0, cancel);
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kCancelled &&
        cancel != nullptr) {
      EmitCancelled(emit, *cancel, result.status().message());
    } else {
      EmitError(emit, "eval-failed", result.status().message());
    }
    return;
  }
  counters_.checkpoints_evaluated.fetch_add(1, std::memory_order_relaxed);
  emit(SampledReply(result.ValueOrDie()));
}

void EvalService::ExecuteSweep(const ParsedCommand& cmd, const EmitFn& emit,
                               const CancelToken* cancel) {
  auto state = Snapshot();
  if (state == nullptr) {
    EmitError(emit, "no-dataset", "LOAD a dataset before SWEEP");
    return;
  }
  auto paths = ListCheckpointFiles(cmd.args[0]);
  if (!paths.ok()) {
    EmitError(emit, "io", paths.status().message());
    return;
  }
  // ITEM lines ride the sweep's serialized progress callback: they stream
  // in completion order as snapshots finish, each tagged with its input-
  // order index. A dead client flips `live` and the remaining callbacks
  // stop emitting (the sweep itself runs to completion — evaluation work
  // is shared-pool work that cannot be yanked mid-chunk). Cancelled
  // outcomes are the sweep winding down, not per-item failures: their ITEM
  // lines are suppressed and the terminal line reports the abandonment.
  bool live = true;
  size_t emitted = 0;
  CheckpointSweepStats stats;
  state->session->EstimateCheckpoints(
      paths.ValueOrDie(), /*max_triples=*/0,
      [&](size_t index, const CheckpointEstimate& outcome) {
        if (!live) return;
        if (outcome.status.code() == StatusCode::kCancelled) return;
        counters_.items_streamed.fetch_add(1, std::memory_order_relaxed);
        ++emitted;
        if (outcome.status.ok()) {
          counters_.checkpoints_evaluated.fetch_add(1,
                                                    std::memory_order_relaxed);
          live = emit(StrFormat("ITEM %zu %s %s", index,
                                Fmt(outcome.result.metrics.mrr).c_str(),
                                Fmt(outcome.result.ci.mrr).c_str()));
        } else {
          live = emit(StrFormat("ITEM %zu ERR %s", index,
                                outcome.status.message().c_str()));
        }
      },
      &stats, cancel);
  if (!live) return;
  if (cancel != nullptr && cancel->cancelled()) {
    EmitCancelled(emit, *cancel,
                  StrFormat("sweep abandoned after %zu of %zu checkpoints",
                            emitted, paths.ValueOrDie().size()));
    return;
  }
  emit(StrFormat("DONE %zu failed=%zu max_resident=%zu wall_s=%.6f",
                 paths.ValueOrDie().size(), stats.failed,
                 stats.max_resident_models, stats.wall_seconds));
}

void EvalService::ExecuteWatch(const ParsedCommand& cmd, const EmitFn& emit,
                               const CancelToken* cancel) {
  auto state = Snapshot();
  if (state == nullptr) {
    EmitError(emit, "no-dataset", "LOAD a dataset before WATCH");
    return;
  }
  int64_t count = 0;
  if (!ParseInt(cmd.args[1], &count) || count < 1 || count > 1000000) {
    EmitError(emit, "bad-argument",
              StrFormat("count must be in [1, 1000000], got %s",
                        cmd.args[1].c_str()));
    return;
  }
  double timeout_s = options_.default_watch_timeout_s;
  if (cmd.args.size() > 2) {
    if (!ParseDouble(cmd.args[2], &timeout_s) || timeout_s <= 0.0 ||
        timeout_s > 3600.0) {
      EmitError(emit, "bad-argument",
                StrFormat("timeout_s must be in (0, 3600], got %s",
                          cmd.args[2].c_str()));
      return;
    }
  }
  const EvaluationFramework& framework = state->session->framework();
  CheckpointWatcher watcher(cmd.args[0]);
  WallTimer timer;
  int64_t delivered = 0;
  bool timed_out = false;
  while (delivered < count) {
    if (cancel != nullptr && cancel->cancelled()) {
      EmitCancelled(emit, *cancel,
                    StrFormat("watch abandoned after %lld of %lld items",
                              static_cast<long long>(delivered),
                              static_cast<long long>(count)));
      return;
    }
    if (timer.Seconds() >= timeout_s || shutting_down()) {
      timed_out = true;
      break;
    }
    auto fresh = watcher.Poll();
    if (!fresh.ok()) {
      EmitError(emit, "io", fresh.status().message());
      return;
    }
    for (const std::string& path : fresh.ValueOrDie()) {
      if (delivered >= count) break;
      auto result = framework.EstimateCheckpointOnPools(
          path, *state->filter, state->split, state->session->pools(),
          /*max_triples=*/0, cancel);
      if (!result.ok() &&
          result.status().code() == StatusCode::kCancelled &&
          cancel != nullptr) {
        EmitCancelled(emit, *cancel,
                      StrFormat("watch abandoned after %lld of %lld items",
                                static_cast<long long>(delivered),
                                static_cast<long long>(count)));
        return;
      }
      counters_.items_streamed.fetch_add(1, std::memory_order_relaxed);
      bool live;
      if (result.ok()) {
        counters_.checkpoints_evaluated.fetch_add(1,
                                                  std::memory_order_relaxed);
        live = emit(StrFormat(
            "ITEM %lld %s %s", static_cast<long long>(delivered),
            Fmt(result.ValueOrDie().metrics.mrr).c_str(),
            Fmt(result.ValueOrDie().ci.mrr).c_str()));
      } else {
        // A partially-written or corrupt snapshot: one ERR item, claimed
        // forever (the watcher never re-delivers), and the watch goes on.
        live = emit(StrFormat("ITEM %lld ERR %s",
                              static_cast<long long>(delivered),
                              result.status().message().c_str()));
      }
      ++delivered;
      if (!live) return;
    }
    if (delivered < count) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.poll_interval_ms));
    }
  }
  emit(StrFormat("DONE %lld timeout=%d", static_cast<long long>(delivered),
                 timed_out ? 1 : 0));
}

void EvalService::ExecuteStats(const EmitFn& emit) {
  const double uptime =
      std::chrono::duration<double>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count() -
      start_seconds_;
  const std::string name = loaded_name();
  emit(StrFormat(
      "OK uptime_s=%.3f dataset=%s connections=%llu accepted=%llu "
      "commands=%llu errors=%llu items=%llu evals=%llu in_flight=%llu "
      "shed=%llu deadlines=%llu cancelled=%llu idle_closed=%llu "
      "threads=%zu kernels=%s",
      uptime, name.empty() ? "-" : name.c_str(),
      static_cast<unsigned long long>(counters_.connections_open.load()),
      static_cast<unsigned long long>(counters_.connections_accepted.load()),
      static_cast<unsigned long long>(counters_.commands.load()),
      static_cast<unsigned long long>(counters_.errors.load()),
      static_cast<unsigned long long>(counters_.items_streamed.load()),
      static_cast<unsigned long long>(counters_.checkpoints_evaluated.load()),
      static_cast<unsigned long long>(counters_.in_flight.load()),
      static_cast<unsigned long long>(counters_.shed.load()),
      static_cast<unsigned long long>(counters_.deadlines_exceeded.load()),
      static_cast<unsigned long long>(counters_.cancelled.load()),
      static_cast<unsigned long long>(counters_.idle_closed.load()),
      GlobalThreadPool()->num_threads(), ActiveScoreKernelName()));
}

}  // namespace kgeval
