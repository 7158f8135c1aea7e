#include "service/eval_server.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/net_util.h"
#include "service/command.h"
#include "util/cancel.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace kgeval {

/// The protocol version in the connect banner. Bump rules are in
/// docs/PROTOCOL.md ("Versioning").
static constexpr int kProtocolVersion = 2;

/// Per-connection server state. Owned by the loop thread; executor jobs
/// only touch the Connection (thread-safe) and post everything else home.
struct EvalServer::Client {
  struct Request {
    std::string line;
    bool overflow = false;
  };

  std::shared_ptr<Connection> conn;
  std::deque<Request> pending;
  bool busy = false;           // An executor job is running for this client.
  bool paused = false;         // Reads paused by queue-depth flow control.
  bool quitting = false;       // QUIT seen: drain replies, then close.
  /// Cancellation token of the in-flight blocking command, shared with the
  /// executor job (and the deadline timer, when armed). Reset by the
  /// completion post; Shutdown trips it to drain in-flight work bounded.
  std::shared_ptr<CancelToken> active;
  /// Pending RunAfter id of the in-flight command's deadline (0 = none).
  uint64_t deadline_timer = 0;
  /// Last traffic or command completion; drives the idle reaper.
  std::chrono::steady_clock::time_point last_activity;
};

/// The command executor pool: plain worker threads draining a FIFO of
/// command closures. Deliberately *not* the shared scoring pool — an
/// executor thread is a job thread that blocks (on streamed-reply
/// backpressure, on WATCH polls), and the scoring workers must never
/// block on a slow client. The evaluation inside a command fans out to
/// the shared pool through TaskGroups and helps drain its own chunks
/// while waiting, exactly like RunJobsConcurrently's job threads.
class EvalServer::Executor {
 public:
  // The executor pool is the service's documented job-thread layer
  // (blocking command threads, distinct from the scoring workers); these
  // threads are joined in Shutdown().
  explicit Executor(size_t threads) {
    for (size_t i = 0; i < threads; ++i) {
      threads_.emplace_back([this] { Loop(); });
    }
  }

  ~Executor() { Shutdown(); }

  void Submit(std::function<void()> fn) KGEVAL_EXCLUDES(mutex_) {
    {
      MutexLock lock(&mutex_);
      KGEVAL_CHECK(!stopping_) << "Submit after Executor::Shutdown";
      queue_.push(std::move(fn));
    }
    work_.NotifyOne();
  }

  /// Commands waiting for an executor thread (not the ones running). The
  /// load shedder's signal: a deep backlog means every executor is pinned
  /// and new work would only wait.
  size_t QueuedDepth() const KGEVAL_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return queue_.size();
  }

  /// Runs every queued job (they fail fast once connections are closed),
  /// then joins. Idempotent.
  void Shutdown() KGEVAL_EXCLUDES(mutex_) {
    {
      MutexLock lock(&mutex_);
      stopping_ = true;
    }
    work_.NotifyAll();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  void Loop() KGEVAL_EXCLUDES(mutex_) {
    while (true) {
      std::function<void()> fn;
      {
        MutexLock lock(&mutex_);
        while (!stopping_ && queue_.empty()) work_.Wait(lock);
        if (queue_.empty()) return;  // stopping_ and drained.
        fn = std::move(queue_.front());
        queue_.pop();
      }
      fn();
    }
  }

  // kgeval-lint: allow(thread-containment): see the constructor note.
  std::vector<std::thread> threads_;
  mutable Mutex mutex_;
  CondVar work_;
  std::queue<std::function<void()>> queue_ KGEVAL_GUARDED_BY(mutex_);
  bool stopping_ KGEVAL_GUARDED_BY(mutex_) = false;
};

EvalServer::EvalServer(Options options) : options_(std::move(options)) {}

EvalServer::~EvalServer() { Shutdown(); }

Result<std::unique_ptr<EvalServer>> EvalServer::Start(Options options) {
  std::unique_ptr<EvalServer> server(new EvalServer(std::move(options)));
  Status status = server->Init();
  if (!status.ok()) return status;
  return server;
}

Status EvalServer::Init() {
  // The loop thread does not exist yet, so this thread may claim the
  // loop-thread capability for the pre-Run registrations below.
  loop_.AssertOnLoopThread();
  service_ = std::make_unique<EvalService>(options_.service);
  auto listener = CreateTcpListener(options_.host, options_.port);
  if (!listener.ok()) return listener.status();
  listen_fd_ = listener.ValueOrDie().fd;
  port_ = listener.ValueOrDie().port;
  if (!options_.preload_dataset.empty()) {
    // The loop thread does not exist yet, so the port is bound but nothing
    // accepts: the preload genuinely precedes all traffic (clients gate on
    // the LISTENING line, printed after Start() returns).
    ParsedCommand cmd;
    cmd.spec = FindCommand("LOAD");
    cmd.args = {options_.preload_dataset};
    std::string reply;
    service_->Execute(cmd, [&reply](const std::string& line) {
      reply = line;
      return true;
    });
    if (reply.rfind("OK", 0) != 0) {
      return Status::FailedPrecondition(
          StrFormat("preload LOAD %s: %s", options_.preload_dataset.c_str(),
                    reply.c_str()));
    }
    KGEVAL_LOG(Info) << "preload " << reply;
  }
  // Registered before the loop thread exists, so no concurrent map access.
  loop_.Add(listen_fd_, kEventRead, [this](uint32_t) {
    loop_.AssertOnLoopThread();
    HandleAccept();
  });
  size_t executors = options_.executor_threads;
  if (executors == 0) {
    executors = std::max<size_t>(2, GlobalThreadPool()->num_threads());
  }
  executor_ = std::make_unique<Executor>(executors);
  // kgeval-lint: allow(thread-containment): owned here, joined by Shutdown().
  loop_thread_ = std::thread([this] { loop_.Run(); });
  if (options_.idle_timeout_s > 0) {
    // Timers are loop-thread state; arm the first sweep from the loop.
    loop_.Post([this] {
      loop_.AssertOnLoopThread();
      ScheduleIdleSweep();
    });
  }
  KGEVAL_LOG(Info) << "kgeval-server listening on " << options_.host << ":"
                   << port_ << " (" << executors << " executors)";
  return Status::OK();
}

void EvalServer::HandleAccept() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      KGEVAL_LOG(Warning) << "accept: " << ::strerror(errno);
      return;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    (void)SetTcpNoDelay(fd);
    auto& counters = service_->counters();
    counters.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    counters.connections_open.fetch_add(1, std::memory_order_relaxed);
    auto client = std::make_shared<Client>();
    client->conn =
        std::make_shared<Connection>(&loop_, fd, options_.connection);
    client->last_activity = std::chrono::steady_clock::now();
    clients_.insert(client);
    // Both callbacks capture the Client weakly: Client::conn owns the
    // Connection, and the Connection stores these callbacks for its whole
    // life, so a shared capture here would be a shared_ptr cycle that
    // leaks the pair (and its buffers) on every disconnect. clients_
    // keeps the Client alive while the connection is open.
    std::weak_ptr<Client> weak = client;
    client->conn->Start(
        [this, weak](std::string_view line, bool overflow) {
          loop_.AssertOnLoopThread();
          if (auto c = weak.lock()) OnLine(c, line, overflow);
        },
        [this, weak] {
          loop_.AssertOnLoopThread();
          if (auto c = weak.lock()) OnClose(c);
        });
    client->conn->Send(StrFormat("KGEVAL %d\n", kProtocolVersion));
  }
}

void EvalServer::OnClose(const std::shared_ptr<Client>& client) {
  service_->counters().connections_open.fetch_sub(1,
                                                  std::memory_order_relaxed);
  client->pending.clear();
  clients_.erase(client);
}

void EvalServer::UpdateClientFlowControl(
    const std::shared_ptr<Client>& client) {
  if (client->conn->closed()) return;
  if (!client->paused &&
      client->pending.size() >= options_.max_pending_per_connection) {
    client->paused = true;
    client->conn->PauseReads();
  } else if (client->paused &&
             client->pending.size() <=
                 options_.max_pending_per_connection / 2) {
    client->paused = false;
    client->conn->ResumeReads();
  }
}

void EvalServer::OnLine(const std::shared_ptr<Client>& client,
                        std::string_view line, bool overflow) {
  if (client->quitting || client->conn->closed()) return;
  client->last_activity = std::chrono::steady_clock::now();
  client->pending.push_back(Client::Request{std::string(line), overflow});
  UpdateClientFlowControl(client);
  PumpClient(client);
}

void EvalServer::PumpClient(const std::shared_ptr<Client>& client) {
  auto& counters = service_->counters();
  while (!client->busy && !client->pending.empty() &&
         !client->conn->closed()) {
    Client::Request request = std::move(client->pending.front());
    client->pending.pop_front();
    UpdateClientFlowControl(client);

    if (request.overflow) {
      counters.errors.fetch_add(1, std::memory_order_relaxed);
      client->conn->Send("ERR line-too-long request line exceeds limit\n");
      continue;
    }
    auto parsed = ParseCommandLine(request.line);
    if (!parsed.ok()) {
      counters.commands.fetch_add(1, std::memory_order_relaxed);
      counters.errors.fetch_add(1, std::memory_order_relaxed);
      client->conn->Send(
          StrFormat("ERR %s\n", parsed.status().message().c_str()));
      continue;
    }
    ParsedCommand cmd = std::move(parsed).ValueOrDie();
    if (cmd.spec == nullptr) continue;  // Blank line.

    if (cmd.spec->verb == Verb::kQuit) {
      counters.commands.fetch_add(1, std::memory_order_relaxed);
      client->quitting = true;
      client->conn->Send("OK bye\n");
      client->conn->CloseWhenDrained();
      return;
    }
    if (cmd.spec->verb == Verb::kPing || cmd.spec->verb == Verb::kStats) {
      // Non-blocking verbs answer from the loop thread itself: they stay
      // fast while every executor is deep in a sweep, which is exactly
      // when an operator wants STATS to answer.
      auto conn = client->conn;
      service_->Execute(cmd, [&conn](const std::string& reply) {
        conn->Send(reply + "\n");
        return !conn->closed();
      });
      continue;
    }

    // Load shedding happens here, at dispatch — when the request reaches
    // the head of its connection's queue — never at enqueue: an enqueue-
    // time ERR busy would jump ahead of the replies to requests queued
    // before it and break the per-connection reply-order guarantee. A shed
    // is an in-order terminal reply like any other.
    if (options_.max_queued_commands > 0 &&
        executor_->QueuedDepth() >= options_.max_queued_commands) {
      counters.commands.fetch_add(1, std::memory_order_relaxed);
      counters.shed.fetch_add(1, std::memory_order_relaxed);
      client->conn->Send(
          "ERR busy server overloaded, retry later\n");
      continue;
    }

    // Blocking verb: at most one in flight per connection, so pipelined
    // replies keep request order; the next request starts from the
    // completion post.
    client->busy = true;
    client->active = std::make_shared<CancelToken>();
    // LOAD is deadline-exempt: dataset builds are not cancellation-
    // threaded, so a timer could only fire spuriously after the fact.
    if (options_.service.default_deadline_s > 0 &&
        cmd.spec->verb != Verb::kLoad) {
      auto token = client->active;
      client->deadline_timer =
          loop_.RunAfter(options_.service.default_deadline_s, [token] {
            token->Cancel(CancelToken::Reason::kDeadline);
          });
    }
    auto conn = client->conn;
    auto token = client->active;
    executor_->Submit([this, client, conn, token, cmd = std::move(cmd)] {
      service_->Execute(
          cmd,
          [&conn](const std::string& reply) {
            return conn->BlockingSend(reply + "\n");
          },
          token.get());
      loop_.Post([this, client] {
        loop_.AssertOnLoopThread();
        if (client->deadline_timer != 0) {
          loop_.CancelTimer(client->deadline_timer);
          client->deadline_timer = 0;
        }
        client->active.reset();
        client->busy = false;
        client->last_activity = std::chrono::steady_clock::now();
        if (!client->conn->closed()) PumpClient(client);
      });
    });
    return;
  }
}

void EvalServer::ScheduleIdleSweep() {
  loop_.RunAfter(std::max(0.01, options_.idle_timeout_s / 2), [this] {
    loop_.AssertOnLoopThread();
    ReapIdleClients();
    ScheduleIdleSweep();
  });
}

void EvalServer::ReapIdleClients() {
  const auto now = std::chrono::steady_clock::now();
  // Close() mutates clients_ through OnClose; iterate a copy.
  const std::vector<std::shared_ptr<Client>> open(clients_.begin(),
                                                  clients_.end());
  for (const auto& client : open) {
    // Only truly quiescent connections are reaped: nothing in flight,
    // nothing queued, not already draining a QUIT.
    if (client->busy || client->quitting || !client->pending.empty()) {
      continue;
    }
    if (client->conn->closed()) continue;
    const double idle_s =
        std::chrono::duration<double>(now - client->last_activity).count();
    if (idle_s < options_.idle_timeout_s) continue;
    service_->counters().idle_closed.fetch_add(1, std::memory_order_relaxed);
    client->conn->Close();
  }
}

void EvalServer::Shutdown() {
  if (shut_down_.exchange(true)) return;
  if (service_) service_->RequestShutdown();
  if (!loop_thread_.joinable()) {
    // Init failed before the loop thread started (e.g. the bind): no
    // thread will ever service a Post, so waiting on one would deadlock
    // the error return. Nothing runs concurrently — clean up inline (the
    // capability is claimable because no loop ever ran).
    loop_.AssertOnLoopThread();
    if (listen_fd_ >= 0) {
      loop_.Remove(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (executor_) executor_->Shutdown();
    return;
  }
  // Close the listener and every connection from the loop thread, which
  // owns them; closing wakes any executor blocked in BlockingSend.
  std::promise<void> closed;
  loop_.Post([this, &closed] {
    loop_.AssertOnLoopThread();
    loop_.Remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
    // Close() mutates clients_ through OnClose; iterate a copy.
    const std::vector<std::shared_ptr<Client>> open(clients_.begin(),
                                                    clients_.end());
    // Trip every in-flight command's token first: executors wind down at
    // their next block boundary instead of finishing hours of sweep into
    // sockets about to vanish — that is what bounds the drain below.
    for (const auto& client : open) {
      if (client->active != nullptr) {
        client->active->Cancel(CancelToken::Reason::kCancelled);
      }
    }
    for (const auto& client : open) client->conn->Close();
    closed.set_value();
  });
  closed.get_future().wait();
  // Executors drain (their emits fail fast now), then stop posting.
  executor_->Shutdown();
  loop_.Stop();
  loop_thread_.join();
}

}  // namespace kgeval
