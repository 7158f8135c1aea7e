// kgeval-server: the evaluation service daemon. Binds the port, prints
// "LISTENING <port>" (scripts parse this — with --port=0 it is the only
// way to learn the bound port), then serves until SIGINT/SIGTERM.
//
// The wire protocol is documented in docs/PROTOCOL.md; the architecture in
// docs/ARCHITECTURE.md. Smallest useful session:
//
//   $ kgeval-server --port=7471 --preload=codex-s &
//   $ printf 'EVAL /tmp/ckpt/epoch_00003.ckpt\nQUIT\n' | nc 127.0.0.1 7471

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "la/kernels/kernels.h"
#include "service/eval_server.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace {

using namespace kgeval;

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host=ADDR] [--port=N] [--threads=N] "
               "[--executors=N] [--preload=DATASET] [--deadline=S]\n"
               "       [--idle-timeout=S] [--max-queued=N] "
               "[--kernels=NAME]\n"
               "  --host=ADDR       bind address (default 127.0.0.1)\n"
               "  --port=N          TCP port; 0 picks an ephemeral one "
               "(default 7471)\n"
               "  --threads=N       worker-pool width (default: "
               "KGEVAL_THREADS, then hardware)\n"
               "  --executors=N     concurrent command cap (default: "
               "max(2, threads))\n"
               "  --preload=NAME    run LOAD <NAME> before accepting "
               "traffic\n"
               "  --deadline=S      per-command deadline for EVAL/SWEEP/"
               "WATCH, seconds (default 0 = none)\n"
               "  --idle-timeout=S  close connections idle this long "
               "(default 0 = never)\n"
               "  --max-queued=N    executor backlog before ERR busy "
               "(default 256, 0 = unlimited)\n"
               "  --kernels=NAME    force a score-kernel implementation "
               "(scalar|avx2|avx512|neon|auto;\n"
               "                    default: auto-probe, or "
               "KGEVAL_KERNELS)\n"
               "\n"
               "KGEVAL_FAULTS=<spec> arms fault-injection points at "
               "startup (testing only; see docs/ARCHITECTURE.md).\n",
               argv0);
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  EvalServer::Options options;
  options.port = 7471;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "--host", &value)) {
      options.host = value;
    } else if (ParseFlag(argv[i], "--port", &value)) {
      options.port = static_cast<uint16_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--threads", &value)) {
      SetGlobalThreadPoolThreads(
          static_cast<size_t>(std::atoll(value.c_str())));
    } else if (ParseFlag(argv[i], "--executors", &value)) {
      options.executor_threads =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(argv[i], "--preload", &value)) {
      options.preload_dataset = value;
    } else if (ParseFlag(argv[i], "--deadline", &value)) {
      options.service.default_deadline_s = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--idle-timeout", &value)) {
      options.idle_timeout_s = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--max-queued", &value)) {
      options.max_queued_commands =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(argv[i], "--kernels", &value)) {
      Status selected = SelectScoreKernels(value);
      if (!selected.ok()) {
        std::fprintf(stderr, "kgeval-server: --kernels: %s\n",
                     selected.ToString().c_str());
        return 2;
      }
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  // Chaos harnesses arm fault points through the environment; a typo in
  // the spec must fail loudly at startup, not silently inject nothing.
  {
    Status faults = ArmFaultsFromEnv();
    if (!faults.ok()) {
      std::fprintf(stderr, "kgeval-server: KGEVAL_FAULTS: %s\n",
                   faults.ToString().c_str());
      return 2;
    }
  }

  // Block the termination signals before any thread exists, so every
  // thread inherits the mask and sigwait below is the one consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
  signal(SIGPIPE, SIG_IGN);  // Broken clients must not kill the server.

  // --preload runs inside Start(), before the accept loop exists, so a
  // client connecting after LISTENING can never see a no-dataset window.
  auto server = EvalServer::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "kgeval-server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  EvalServer& s = *server.ValueOrDie();

  // The selected dispatch path, logged once at startup: benchmark logs and
  // bug reports need to say which ISA actually scored.
  KGEVAL_LOG(Info) << "score kernels: " << ActiveScoreKernelName();
  std::printf("LISTENING %u\n", s.port());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  KGEVAL_LOG(Info) << "signal " << sig << ": shutting down";
  s.Shutdown();
  return 0;
}
