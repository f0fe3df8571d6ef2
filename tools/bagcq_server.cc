// bagcq_server — the sharded serving front over either of two backends.
//
// Fork mode (--workers N, the default) runs a WorkerPool: N worker
// processes (one bagcq::Engine each, with decision memoization on), each
// re-forked with a fresh Engine when its link reports it dead. Thread mode
// (--engine-threads N; the flag's presence picks the mode, and N must be at
// least 1) runs a ThreadedEnginePool: one process with N engine-owning
// worker threads sharing the read-only elemental constraint skeletons and
// one proof-store handle; requests have fingerprint AFFINITY to a worker's
// queue but an idle worker steals from the deepest queue, and a full queue
// fails soft with kUnavailable. Both are a service::Backend behind the same
// Server front, speak the same wire surface and produce byte-identical
// replies (docs/serving.md has the tradeoffs).
//
// The front is a poll-based event loop: many connections are served
// concurrently, each pipelining requests with per-connection reply
// ordering. Single decisions route to the worker owning the pair's
// canonical hash (keeping that worker's memo and warm-start slots hot),
// batches shard across all workers and come back in input order, Stats
// aggregates every worker's counters plus the backend's and the front's
// serving counters (respawns, steals, queue high-water, connections,
// in-flight, bytes in/out).
//
// With --store PATH every worker shares one persistent proof-store log
// (store/proof_store.h): decisions persisted by any previous run — or any
// previous worker incarnation — are served warm across restarts, verified
// on load.
//
// Signals: SIGTERM drains gracefully in both modes (stop accepting, finish
// every accepted request, flush every reply, exit 0) — the rolling-restart
// contract. Anything harsher loses only unpersisted cache state.
//
//   bagcq_server (--socket PATH | --listen HOST:PORT)...
//                [--workers N | --engine-threads N]
//                [--no-memoize] [--cold] [--store PATH]
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "service/engine_pool.h"
#include "service/server.h"
#include "service/transport.h"

using namespace bagcq;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--socket PATH | --listen HOST:PORT)...\n"
      "          [--workers N | --engine-threads N]\n"
      "          [--no-memoize] [--cold] [--store PATH]\n"
      "  --socket PATH      serve a Unix domain socket at PATH\n"
      "  --listen H:P       serve TCP at host:port (port 0 picks a free\n"
      "                     port, printed on startup); repeatable, combines\n"
      "                     with --socket\n"
      "  --workers N        fork mode: N worker processes, one Engine each\n"
      "                     (default 2; crash isolation, respawn on death)\n"
      "  --engine-threads N thread mode: one process, N engine threads\n"
      "                     sharing constraint skeletons, with per-worker\n"
      "                     queues and work stealing (mutually exclusive\n"
      "                     with --workers)\n"
      "  --no-memoize       disable the per-worker decision memo\n"
      "  --cold             disable LP warm starts (deterministic pivots)\n"
      "  --store PATH       persistent proof-store log shared by all\n"
      "                     workers (created if absent; survives restarts)\n"
      "SIGTERM drains gracefully in either mode.\n",
      argv0);
  return 2;
}

// SIGTERM → graceful drain. Drain() is async-signal-safe (an atomic store
// plus one pipe write), so the handler may call it directly.
service::Server* g_server = nullptr;

void OnSigterm(int) {
  if (g_server != nullptr) g_server->Drain();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> socket_paths;
  std::vector<std::string> tcp_addresses;
  service::ServerOptions options;
  // The flag's presence selects thread mode; its value is validated by
  // ThreadedEnginePool::Start like --workers is by WorkerPool::Start.
  bool thread_mode = false;
  int engine_threads = 0;
  bool explicit_workers = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_paths.push_back(argv[++i]);
    } else if (arg == "--listen" && i + 1 < argc) {
      tcp_addresses.push_back(argv[++i]);
    } else if (arg == "--workers" && i + 1 < argc) {
      options.num_workers = std::atoi(argv[++i]);
      explicit_workers = true;
    } else if (arg == "--engine-threads" && i + 1 < argc) {
      thread_mode = true;
      engine_threads = std::atoi(argv[++i]);
    } else if (arg == "--no-memoize") {
      options.engine.set_memoize_decisions(false);
    } else if (arg == "--cold") {
      options.engine.set_warm_starts(false);
    } else if (arg == "--store" && i + 1 < argc) {
      options.store_path = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (socket_paths.empty() && tcp_addresses.empty()) return Usage(argv[0]);
  if (thread_mode && explicit_workers) {
    std::fprintf(stderr,
                 "bagcq_server: --workers and --engine-threads pick "
                 "conflicting modes; use one\n");
    return Usage(argv[0]);
  }

  // Start whichever backend the mode calls for; the Server front is the
  // same.
  service::WorkerPool fork_pool;
  service::ThreadedEnginePool thread_pool;
  service::Backend* backend = &fork_pool;
  util::Status status;
  if (thread_mode) {
    service::ThreadedPoolOptions thread_options;
    thread_options.num_threads = engine_threads;
    thread_options.engine = options.engine;
    thread_options.store_path = options.store_path;
    status = thread_pool.Start(thread_options);
    backend = &thread_pool;
  } else {
    status = fork_pool.Start(options);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "bagcq_server: %s\n", status.ToString().c_str());
    return 1;
  }
  const int workers = backend->num_workers();

  auto server = std::make_unique<service::Server>(backend);
  // Armed before the first listening line: a client may SIGTERM as soon as
  // it reads one, and a drain requested before Serve() starts still exits 0.
  // After the pool starts, so fork-mode workers keep the default action.
  g_server = server.get();
  std::signal(SIGTERM, OnSigterm);
  auto add_listener = [&](util::Result<int> listener,
                          const char* kind) -> bool {
    if (listener.ok()) {
      auto address = service::ListenerAddress(*listener);
      std::printf("bagcq_server: %d %s listening on %s %s\n", workers,
                  thread_mode ? "engine threads" : "workers", kind,
                  address.ok() ? address->c_str() : "?");
      return server->AddListener(*listener).ok();
    }
    std::fprintf(stderr, "bagcq_server: %s\n",
                 listener.status().ToString().c_str());
    return false;
  };
  bool listening = true;
  for (const std::string& path : socket_paths) {
    listening = listening && add_listener(service::ListenUnix(path), "unix");
  }
  for (const std::string& address : tcp_addresses) {
    listening = listening && add_listener(service::ListenTcp(address), "tcp");
  }
  std::fflush(stdout);

  if (listening) status = server->Serve();
  // Disarmed on every path before `server` is destroyed.
  std::signal(SIGTERM, SIG_DFL);
  g_server = nullptr;
  if (thread_mode) thread_pool.Stop();  // joins drained workers
  if (!listening) return 1;
  std::fprintf(stderr, "bagcq_server: %s\n", status.ToString().c_str());
  return status.ok() ? 0 : 1;
}
