#include "perfbench/src/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

int64_t Tracer::NewTrace() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_trace_++;
}

int32_t Tracer::Open(const std::string& name, int64_t trace, int32_t parent) {
  if (!enabled_) return -1;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, trace, parent, now, now});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::Close(int32_t index) {
  if (index < 0) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(index)].end = now;
}

void Tracer::Record(const std::string& name, int64_t trace, int32_t parent,
                    Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, trace, parent, start, end});
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(SecondsBetween(s.start, s.end));
  }
  return out;
}

std::map<std::string, Tracer::NameStats> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, NameStats> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent's, so
    // overlapping children are not subtracted twice.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (size_t c : children[i]) {
      const Clock::time_point a = std::max(spans_[c].start, s.start);
      const Clock::time_point b = std::min(spans_[c].end, s.end);
      if (a < b) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    for (size_t k = 0; k < cover.size();) {
      Clock::time_point a = cover[k].first, b = cover[k].second;
      for (++k; k < cover.size() && cover[k].first <= b; ++k) {
        b = std::max(b, cover[k].second);
      }
      covered += SecondsBetween(a, b);
    }
    const double duration = SecondsBetween(s.start, s.end);
    NameStats& stats = out[s.name];
    stats.count += 1;
    stats.total_s += duration;
    stats.self_s += duration - covered;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Clock::time_point epoch = spans_.empty() ? Clock::now() : spans_[0].start;
  for (const Span& s : spans_) epoch = std::min(epoch, s.start);
  const auto ns = [&](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
            .count());
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"trace\": %lld, "
                 "\"parent\": %d, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 i, s.name.c_str(), static_cast<long long>(s.trace), s.parent,
                 ns(s.start), ns(s.end));
  }
  return std::fclose(f) == 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, int64_t samples) {
  if (!std::isfinite(value) || samples < 1) {
    Attempt();
    Fail("metric " + name + " was not measured");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit, samples});
}

void Report::Fail(const std::string& reason, int64_t count) {
  failed_ += count;
  failures_.push_back(count == 1 ? reason
                                 : std::to_string(count) + " x " + reason);
}

void Report::Flag(const std::string& reason) { flags_.push_back(reason); }

void Report::Print() const {
  std::printf("%-56s %16s %-6s %8s\n", "metric", "value", "unit", "samples");
  for (const Entry& m : metrics_) {
    std::printf("%-56s %16.6g %-6s %8lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  for (const std::string& f : failures_) std::printf("FAILED: %s\n", f.c_str());
  for (const std::string& f : flags_) std::printf("FLAGGED: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(attempted_, 1)),
              static_cast<long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
