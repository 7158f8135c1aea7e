#ifndef KGEVAL_PERFBENCH_TRACE_H_
#define KGEVAL_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady_clock points.
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One timed call at a layer boundary. `trace` groups the spans of one
/// operation (one Estimate, one EVAL); `parent` is the index of the span
/// that caused this one, -1 for a root.
struct Span {
  std::string name;
  int64_t trace = 0;
  int32_t parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span recorder. Disabled tracers record nothing (Open returns
/// -1 and Close ignores it), so the timed run pays one branch per call
/// boundary. Spans are written out once, when the run ends. Thread-safe:
/// the service phase records wire requests from its reader threads.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A fresh operation id for a group of spans.
  int64_t NewTrace();

  /// Starts a span now; returns its index (-1 when disabled).
  int32_t Open(const std::string& name, int64_t trace, int32_t parent = -1);
  /// Ends span `index` now (no-op for -1).
  void Close(int32_t index);
  /// Records a span whose bounds were measured elsewhere.
  void Record(const std::string& name, int64_t trace, int32_t parent,
              Clock::time_point start, Clock::time_point end);

  /// Durations (seconds) of every closed span named `name`, in order.
  std::vector<double> Durations(const std::string& name) const;

  /// Per span name: count, total duration, and self time (duration minus
  /// the part of it covered by child spans), all in seconds.
  struct NameStats {
    int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, NameStats> Summarize() const;

  /// Writes every span as one JSON object per line (times in ns from the
  /// first span's start). Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // Guarded by mutex_.
  int64_t next_trace_ = 1;   // Guarded by mutex_.
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t trace,
             int32_t parent = -1)
      : tracer_(tracer), index_(tracer->Open(name, trace, parent)) {}
  ~ScopedSpan() { tracer_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
double Median(std::vector<double> values);

/// Nearest-rank percentile, p in (0, 1]; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// What one run reports: named metrics with units and sample counts, the
/// operations it attempted, and every failed operation with its reason.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              int64_t samples);
  void Attempt(int64_t n = 1) { attempted_ += n; }
  /// Counts `count` failed operations for `reason`; callers count every
  /// operation, failed or not, through Attempt().
  void Fail(const std::string& reason, int64_t count = 1);
  /// Marks the run as not scorable without counting a failed operation
  /// (a load generator that fell behind its schedule).
  void Flag(const std::string& reason);

  bool correct() const { return failed_ == 0 && flags_.empty(); }

  /// Human-readable metric table plus failures and flags, then the final
  /// one-line JSON result every run ends with.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    int64_t samples;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> flags_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // KGEVAL_PERFBENCH_TRACE_H_
