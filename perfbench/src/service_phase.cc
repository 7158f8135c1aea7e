#include "perfbench/src/service_phase.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "core/eval_session.h"
#include "models/checkpoint.h"
#include "service/command.h"
#include "service/eval_service.h"
#include "service/line_client.h"
#include "util/string_util.h"

namespace perfbench {

using namespace kgeval;

namespace {

constexpr Split kServiceSplit = Split::kValid;
constexpr double kReplyTimeoutS = 30.0;
/// Open-loop PING rate on the third connection.
constexpr double kPingRateHz = 100.0;
/// Closed-loop PINGs timed on the idle server (traced run).
constexpr int kIdlePings = 300;
/// Samples per layer timed on the idle server (traced run).
constexpr int kLayerSamples = 12;
/// Open-loop windows measured at most, until one keeps to its schedule.
constexpr int kOpenLoopWindows = 3;

/// "OK k1=v1 k2=v2 ..." -> {k1: v1, ...}.
std::map<std::string, std::string> ParseKeyValues(const std::string& line) {
  std::map<std::string, std::string> out;
  size_t pos = 0;
  while (pos < line.size()) {
    size_t end = line.find(' ', pos);
    if (end == std::string::npos) end = line.size();
    const std::string token = line.substr(pos, end - pos);
    const size_t eq = token.find('=');
    if (eq != std::string::npos) {
      out[token.substr(0, eq)] = token.substr(eq + 1);
    }
    pos = end + 1;
  }
  return out;
}

/// The EVAL reply PROTOCOL.md specifies for `r`, up to its wall-time field
/// (values in %.17g, so equal doubles give equal bytes).
std::string ExpectedReply(const SampledEvalResult& r) {
  return StrFormat(
      "OK mrr=%.17g ci=%.17g hits1=%.17g hits3=%.17g hits10=%.17g "
      "queries=%lld scored=%lld",
      r.metrics.mrr, r.ci.mrr, r.metrics.hits1, r.metrics.hits3,
      r.metrics.hits10, static_cast<long long>(r.metrics.num_queries),
      static_cast<long long>(r.scored_candidates));
}

/// A served EVAL reply without its trailing `eval_s=` wall time.
std::string WithoutWallTime(const std::string& reply) {
  const size_t pos = reply.find(" eval_s=");
  return pos == std::string::npos ? reply : reply.substr(0, pos);
}

Result<LineClient> Connect(const EvalServer& server) {
  auto client =
      LineClient::Connect(server.host(), server.port(), kReplyTimeoutS);
  if (!client.ok()) return client.status();
  auto banner = client.ValueOrDie().ReadLine();
  if (!banner.ok()) return banner.status();
  if (banner.ValueOrDie().rfind("KGEVAL ", 0) != 0) {
    return Status::IoError("bad banner: " + banner.ValueOrDie());
  }
  return client;
}

/// One request in flight on a connection.
struct Pending {
  Clock::time_point due;
  bool eval = false;
  size_t ckpt = 0;
  int64_t trace = 0;
};

/// One open-loop connection: the generator appends what it sent, the
/// connection's reader pops each reply in order (the protocol answers
/// pipelined requests strictly in request order).
struct Connection {
  LineClient client;
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> pending;  // Guarded by mutex.
  bool closing = false;         // Guarded by mutex: nothing more is sent.
  bool broken = false;          // Guarded by mutex.
  // Written by the reader (and by the generator only under mutex), read
  // after both have been joined.
  std::vector<double> eval_ms, ping_ms;
  std::vector<std::pair<size_t, std::string>> replies;
  int64_t errors = 0, shed = 0, lost = 0;
  std::string failure;
};

void ReadReplies(Connection* c, Tracer* tracer) {
  while (true) {
    Pending p;
    {
      std::unique_lock<std::mutex> lock(c->mutex);
      c->cv.wait(lock, [&] { return !c->pending.empty() || c->closing; });
      if (c->pending.empty()) return;
      p = c->pending.front();
    }
    auto reply = c->client.ReadReply();
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(c->mutex);
    if (!reply.ok()) {
      c->failure = reply.status().ToString();
      c->broken = true;
      c->lost += static_cast<int64_t>(c->pending.size());
      c->pending.clear();
      return;
    }
    c->pending.pop_front();
    const std::string& terminal = reply.ValueOrDie().back();
    if (LineClient::ErrorCode(terminal) == "busy") {
      ++c->shed;
      continue;
    }
    if (terminal.rfind("OK", 0) != 0) {
      ++c->errors;
      if (c->failure.empty()) c->failure = terminal;
      continue;
    }
    const double ms = SecondsBetween(p.due, now) * 1e3;
    tracer->Record(p.eval ? "service.eval" : "net.ping", p.trace, -1, p.due,
                   now);
    if (p.eval) {
      c->eval_ms.push_back(ms);
      c->replies.emplace_back(p.ckpt, terminal);
    } else {
      c->ping_ms.push_back(ms);
    }
  }
}

struct OpenLoopResult {
  std::vector<double> eval_ms, ping_ms, lateness_ms;
  std::vector<std::pair<size_t, std::string>> replies;
  int64_t sent = 0, errors = 0, shed = 0, lost = 0;
  std::vector<std::string> failures;
};

/// Open-loop load: EVAL on connections 0 and 1 (staggered by half a
/// period, so the server sees one EVAL every 1/eval_rate s), PING on
/// connection 2. This thread is the generator: it sends each request at
/// its due time whatever the replies do, and three reader threads time
/// the replies from those due times.
OpenLoopResult RunOpenLoop(const EvalServer& server,
                           const std::vector<std::string>& ckpts,
                           double eval_rate, double ping_rate, double seconds,
                           uint64_t seed, Tracer* tracer) {
  OpenLoopResult out;
  std::array<Connection, 3> conns;
  for (Connection& c : conns) {
    auto client = Connect(server);
    if (!client.ok()) {
      out.failures.push_back("connect: " + client.status().ToString());
      return out;
    }
    c.client = std::move(client).ValueOrDie();
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::array<double, 3> gap = {2.0 / eval_rate, 2.0 / eval_rate,
                                     1.0 / ping_rate};
  std::array<double, 3> next;
  next[0] = unit(rng) * gap[0];
  next[1] = next[0] + 0.5 * gap[0];
  next[2] = unit(rng) * gap[2];
  size_t ckpt = static_cast<size_t>(rng() % ckpts.size());

  std::vector<std::thread> readers;
  for (Connection& c : conns) {
    readers.emplace_back(ReadReplies, &c, tracer);
  }
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  while (true) {
    const size_t i = static_cast<size_t>(
        std::min_element(next.begin(), next.end()) - next.begin());
    if (next[i] >= seconds) break;
    Connection& c = conns[i];
    Pending p;
    p.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(next[i]));
    p.eval = i < 2;
    p.ckpt = p.eval ? ckpt++ % ckpts.size() : 0;
    p.trace = tracer->NewTrace();
    next[i] += gap[i];
    std::this_thread::sleep_until(p.due);
    ++out.sent;
    {
      std::lock_guard<std::mutex> lock(c.mutex);
      if (c.broken) {
        ++c.lost;
        continue;
      }
      c.pending.push_back(p);
    }
    c.cv.notify_one();
    const Clock::time_point sent = Clock::now();
    out.lateness_ms.push_back(SecondsBetween(p.due, sent) * 1e3);
    const Status st = c.client.SendLine(
        p.eval ? "EVAL " + ckpts[p.ckpt] : std::string("PING"));
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(c.mutex);
      if (c.failure.empty()) c.failure = "send: " + st.ToString();
    }
  }
  for (Connection& c : conns) {
    {
      std::lock_guard<std::mutex> lock(c.mutex);
      c.closing = true;
    }
    c.cv.notify_one();
  }
  for (std::thread& t : readers) t.join();
  for (Connection& c : conns) {
    c.client.SendLine("QUIT");
    out.eval_ms.insert(out.eval_ms.end(), c.eval_ms.begin(), c.eval_ms.end());
    out.ping_ms.insert(out.ping_ms.end(), c.ping_ms.begin(), c.ping_ms.end());
    out.replies.insert(out.replies.end(), c.replies.begin(), c.replies.end());
    out.errors += c.errors;
    out.shed += c.shed;
    out.lost += c.lost;
    if (!c.failure.empty()) out.failures.push_back(c.failure);
  }
  return out;
}

/// Counts one open-loop window's operations and failures, and gates every
/// served EVAL reply against the direct call, byte for byte. `inject`
/// "reply-byte" flips one served byte first.
void CheckOpenLoop(const OpenLoopResult& load, const std::string& inject,
                   const std::vector<std::string>& expected, Report* report) {
  report->Attempt(load.sent);
  for (const std::string& f : load.failures) {
    std::printf("connection failure: %s\n", f.c_str());
  }
  if (load.errors > 0) report->Fail("ERR replies", load.errors);
  if (load.shed > 0) report->Fail("shed (ERR busy) replies", load.shed);
  if (load.lost > 0) report->Fail("requests lost to transport", load.lost);
  if (!load.failures.empty() && load.errors + load.lost == 0) {
    report->Attempt();
    report->Fail("transport: " + load.failures.front());
  }

  std::vector<std::pair<size_t, std::string>> served = load.replies;
  if (inject == "reply-byte" && !served.empty()) {
    std::string& line = served.front().second;
    const size_t pos = line.find("mrr=");
    if (pos != std::string::npos && pos + 4 < line.size()) line[pos + 4] ^= 1;
  }
  int64_t mismatches = 0;
  for (const auto& [k, line] : served) {
    if (WithoutWallTime(line) != expected[k]) {
      if (mismatches == 0) {
        std::printf("PARITY MISMATCH\n  served: %s\n  direct: %s\n",
                    line.c_str(), expected[k].c_str());
      }
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    report->Fail("served EVAL replies differ from the direct call",
                 mismatches);
  }
}

/// One round trip on a fresh connection; the terminal reply line.
Result<std::string> RoundTrip(const EvalServer& server,
                              const std::string& line) {
  auto client = Connect(server);
  if (!client.ok()) return client.status();
  KGEVAL_RETURN_NOT_OK(client.ValueOrDie().SendLine(line));
  auto reply = client.ValueOrDie().ReadReply();
  if (!reply.ok()) return reply.status();
  client.ValueOrDie().SendLine("QUIT");
  return reply.ValueOrDie().back();
}

}  // namespace

Result<double> SetupService(const WorkloadSpec& spec, Tracer* tracer,
                            std::unique_ptr<EvalServer>* out) {
  const int64_t trace = tracer->NewTrace();
  const int32_t root = tracer->Open("setup.service", trace);
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer, "service.start", trace, root);
    auto started = EvalServer::Start(EvalServer::Options());
    if (!started.ok()) return started.status();
    *out = std::move(started).ValueOrDie();
  }
  Result<std::string> loaded = [&] {
    ScopedSpan span(tracer, "service.load", trace, root);
    return RoundTrip(**out, "LOAD " + spec.service_preset + " valid");
  }();
  const double seconds = SecondsBetween(t0, Clock::now());
  tracer->Close(root);
  if (!loaded.ok()) return loaded.status();
  if (loaded.ValueOrDie().rfind("OK", 0) != 0) {
    return Status::Internal("LOAD failed: " + loaded.ValueOrDie());
  }
  return seconds;
}

void RunServicePhase(const WorkloadSpec& spec, uint64_t seed, double seconds,
                     const std::string& inject, const Fixture& fixture,
                     EvalServer* server, Tracer* tracer, Report* report) {
  const std::vector<std::string>& ckpts = fixture.checkpoints;
  // The session LOAD built, reconstructed: same generated dataset, same
  // ServiceFrameworkOptions, so the same first pool draw.
  const Dataset& dataset = fixture.synth.dataset;
  const FilterIndex filter(dataset);
  auto session_or =
      EvalSession::Create(&dataset, &filter,
                          EvalService::ServiceFrameworkOptions(),
                          kServiceSplit);
  if (!session_or.ok()) {
    report->Attempt();
    report->Fail("parity session: " + session_or.status().ToString());
    return;
  }
  const std::unique_ptr<EvalSession> session =
      std::move(session_or).ValueOrDie();
  const EvaluationFramework& framework = session->framework();
  std::vector<std::string> expected;
  for (const std::string& path : ckpts) {
    auto direct = framework.EstimateCheckpointOnPools(
        path, filter, kServiceSplit, session->pools());
    if (!direct.ok()) {
      report->Attempt();
      report->Fail("direct EVAL: " + direct.status().ToString());
      return;
    }
    expected.push_back(ExpectedReply(direct.ValueOrDie()));
  }

  const bool traced = tracer->enabled();
  if (traced) {
    // One EVAL's layers, each timed alone on the idle server.
    auto client = Connect(*server);
    for (int i = 0; client.ok() && i < kIdlePings; ++i) {
      ScopedSpan span(tracer, "net.ping_idle", tracer->NewTrace());
      report->Attempt();
      if (!client.ValueOrDie().SendLine("PING").ok() ||
          !client.ValueOrDie().ReadReply().ok()) {
        report->Fail("idle PING");
        break;
      }
    }
    if (!client.ok()) {
      report->Attempt();
      report->Fail("connect: " + client.status().ToString());
    } else {
      client.ValueOrDie().SendLine("QUIT");
    }
    for (int i = 0; i < kLayerSamples; ++i) {
      const size_t k = static_cast<size_t>(i) % ckpts.size();
      const int64_t trace = tracer->NewTrace();
      report->Attempt();
      auto model = [&] {
        ScopedSpan span(tracer, "models.checkpoint_load", trace);
        return LoadModel(ckpts[k]);
      }();
      if (!model.ok()) {
        report->Fail("LoadModel: " + model.status().ToString());
        continue;
      }
      {
        ScopedSpan span(tracer, "core.framework.estimate_on_pools", trace);
        framework.EstimateOnPools(*model.ValueOrDie(), filter, kServiceSplit,
                                  session->pools());
      }
      const ParsedCommand cmd =
          ParseCommandLine("EVAL " + ckpts[k]).ValueOrDie();
      std::string terminal;
      {
        ScopedSpan span(tracer, "service.execute.eval", trace);
        server->service().Execute(cmd, [&](const std::string& line) {
          terminal = line;
          return true;
        });
      }
      if (WithoutWallTime(terminal) != expected[k]) {
        report->Fail("direct Execute reply differs: " + terminal);
      }
    }
  }

  // A window whose generator fell behind its schedule (p99 send delay
  // over half the spacing of consecutive EVALs) did not offer the load the
  // workload defines: it is flagged and not scored, and a fresh window is
  // measured, up to kOpenLoopWindows in all. Every window's replies still
  // go through the gates below.
  const double max_lateness_ms = 0.5 * 1e3 / spec.eval_rate_hz;
  OpenLoopResult load;
  double lateness_p99 = 0.0;
  for (int window = 1; window <= kOpenLoopWindows; ++window) {
    load = RunOpenLoop(*server, ckpts, spec.eval_rate_hz, kPingRateHz,
                       seconds, seed + static_cast<uint64_t>(window - 1),
                       tracer);
    CheckOpenLoop(load, inject, expected, report);
    lateness_p99 = Percentile(load.lateness_ms, 0.99);
    std::printf("open loop window %d: %lld requests over %.1f s (EVAL "
                "%.2f/s, PING %.2f/s offered), %zu EVAL and %zu PING "
                "replies, EVAL p50 %.3f ms, PING p95 %.3f ms, generator "
                "lateness p50 %.3f ms p99 %.3f ms\n",
                window, static_cast<long long>(load.sent), seconds,
                spec.eval_rate_hz, kPingRateHz, load.eval_ms.size(),
                load.ping_ms.size(), Median(load.eval_ms),
                Percentile(load.ping_ms, 0.95), Median(load.lateness_ms),
                lateness_p99);
    if (lateness_p99 <= max_lateness_ms) break;
    std::printf("open loop window %d not scored: generator fell behind "
                "(p99 send delay %.3f ms > %.1f ms)\n",
                window, lateness_p99, max_lateness_ms);
  }
  if (lateness_p99 > max_lateness_ms) {
    report->Flag(StrFormat("generator fell behind in all %d windows: p99 "
                           "send delay %.3f ms > %.1f ms",
                           kOpenLoopWindows, lateness_p99, max_lateness_ms));
  }

  auto stats = RoundTrip(*server, "STATS");
  report->Attempt();
  if (!stats.ok()) {
    report->Fail("STATS: " + stats.status().ToString());
    return;
  }
  std::map<std::string, std::string> fields =
      ParseKeyValues(stats.ValueOrDie());
  std::printf("server %s\n", stats.ValueOrDie().c_str());

  const int64_t n_eval = static_cast<int64_t>(load.eval_ms.size());
  const int64_t n_ping = static_cast<int64_t>(load.ping_ms.size());
  // Wire latencies under load pick up host scheduling noise: over ten runs
  // on a shared 4-vCPU VM the EVAL median spread up to 40% of its median
  // and the tails 30-56%, more than any end-to-end bound allows, so only
  // the traced run reports them.
  if (!traced) return;
  report->Metric("service.wire_eval_ms.p50", Median(load.eval_ms), "ms",
                 n_eval);
  report->Metric("service.wire_eval_ms.p95", Percentile(load.eval_ms, 0.95),
                 "ms", n_eval);
  report->Metric("net.ping_ms.p95", Percentile(load.ping_ms, 0.95), "ms",
                 n_ping);
  report->Metric("net.ping_ms.p99", Percentile(load.ping_ms, 0.99), "ms",
                 n_ping);
  const auto ms_median = [&](const char* span) {
    return Median(tracer->Durations(span)) * 1e3;
  };
  const auto count = [&](const char* span) {
    return static_cast<int64_t>(tracer->Durations(span).size());
  };
  report->Metric("models.checkpoint_load_ms",
                 ms_median("models.checkpoint_load"), "ms",
                 count("models.checkpoint_load"));
  report->Metric("core.framework.estimate_on_pools_ms",
                 ms_median("core.framework.estimate_on_pools"), "ms",
                 count("core.framework.estimate_on_pools"));
  const double execute_ms = ms_median("service.execute.eval");
  report->Metric("service.execute_ms.eval", execute_ms, "ms",
                 count("service.execute.eval"));
  report->Metric("service.transport_ms.eval",
                 Median(load.eval_ms) - execute_ms, "ms", n_eval);
  std::vector<double> idle_ms = tracer->Durations("net.ping_idle");
  for (double& v : idle_ms) v *= 1e3;
  report->Metric("net.ping_idle_ms.p99", Percentile(idle_ms, 0.99), "ms",
                 static_cast<int64_t>(idle_ms.size()));
  for (const auto& [metric, field] :
       std::vector<std::pair<std::string, std::string>>{
           {"service.stats.commands", "commands"},
           {"service.stats.errors", "errors"},
           {"service.stats.shed", "shed"},
           {"service.stats.deadlines_exceeded", "deadlines"}}) {
    const auto it = fields.find(field);
    report->Metric(metric,
                   it == fields.end() ? std::nan("")
                                      : std::strtod(it->second.c_str(),
                                                    nullptr),
                   "count", 1);
  }
}

}  // namespace perfbench
