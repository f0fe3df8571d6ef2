// The serving front and the fork backend.
//
// Server is a poll-based event loop that serves many concurrent client
// connections — Unix-socket and TCP listeners behind the same framing — over
// any service::Backend (service/backend.h): this file's WorkerPool (fork
// mode, one process per Engine) or ThreadedEnginePool (thread mode,
// service/engine_pool.h). The loop polls the listeners, the connections and
// the backend's one completion fd; a CallTable turns each request frame into
// exchanges and each finished call into a reply.
//
// Routing keeps per-worker session state hot: single decisions go to the
// worker picked by hashing the *canonical structural key* of the query pair
// (wire::CanonicalPairKey), so resubmissions of one pair — including
// whitespace/renaming variants — always land on the worker whose decision
// memo and warm-start slots already know it. Batches are sharded by the
// same hash and reassembled in input order, so the sharded answer is
// positionally identical to the in-process one. Stats fans out to every
// worker and folds the per-worker EngineStats into one aggregate; ClearCache
// broadcasts.
//
// Crash resilience (fork mode): a worker that dies (crash, OOM-kill,
// kill -9) is noticed by EOF on its link and re-forked with a fresh Engine.
// Requests that were in flight on the dead link fail soft with
// StatusCode::kUnavailable — the connection stays up and a retry lands on
// the respawned worker. The respawn count is surfaced through
// StatsResponse::respawns.
//
// Tests drive a pool's synchronous Backend::Dispatch directly (the
// cross-process conformance suite); the bagcq_server tool wraps it in a
// Server. Exactly one front drives a pool at a time, and the fronts may
// alternate: exchanges a stopped Serve left in flight complete into the
// backend and the next front drops them by id.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <sys/types.h>
#include <vector>

#include "api/options.h"
#include "service/backend.h"
#include "service/message.h"
#include "service/transport.h"
#include "util/status.h"

namespace bagcq::service {

struct ServerOptions {
  /// Worker processes (one Engine each). Must be >= 1.
  int num_workers = 2;
  /// Per-worker Engine configuration. Decision memoization defaults on for
  /// a serving tier — sticky routing is what makes the memo pay.
  api::EngineOptions engine = api::EngineOptions().set_memoize_decisions(true);
  /// Path of a persistent proof-store log (store/proof_store.h) shared by
  /// every worker, or empty for no persistence. Start() repairs the log
  /// once (truncating any torn tail) before forking; each worker then opens
  /// its own non-repairing handle and appends whole records through
  /// O_APPEND, so the processes never cut the file out from under each
  /// other. Respawned workers re-open the log and warm up from everything
  /// persisted so far — including records their predecessor appended.
  std::string store_path;
};

/// The fork backend: N worker processes and the framed socketpair links to
/// them. Link frames carry an 8-byte little-endian correlation id before
/// the message envelope, so any number of exchanges can be in flight per
/// worker. The links are non-blocking and owned here; completion_fd is an
/// epoll instance over all of them, and TakeCompletions flushes pending
/// request bytes, reads and parses replies, and respawns lost workers.
///
/// A worker is lost when its link reads EOF, fails a send, or breaks
/// framing — a killed child's fds close when it exits, so the EOF always
/// arrives. Its in-flight exchanges complete with kUnavailable and it is
/// re-forked with a fresh Engine; respawns() counts those re-forks.
///
/// Not thread-safe: one front (one thread) drives a pool.
class WorkerPool : public Backend {
 public:
  WorkerPool() = default;
  ~WorkerPool() override;

  /// Forks the workers. Each child runs a Service loop on its socketpair end
  /// and _exits when the parent closes the link. Fails with InvalidArgument
  /// on num_workers < 1 or a pool that is already started, Internal on
  /// fork/socketpair/epoll failure.
  util::Status Start(const ServerOptions& options = {});
  /// Closes every link and reaps the children; a worker with exchanges
  /// still in flight is SIGKILLed rather than left to compute them.
  /// Idempotent; the destructor calls it.
  void Stop();

  int num_workers() const override {
    return static_cast<int>(workers_.size());
  }
  /// Queues one id-tagged frame on the worker's link and sends what the
  /// socket accepts now. A worker whose respawn failed earlier is re-forked
  /// first; if that fails again the submit fails with kUnavailable.
  /// `pinned` changes nothing here: a process has no queue to steal from.
  util::Status Submit(size_t worker, uint64_t id, std::string payload,
                      bool pinned = false) override;
  int completion_fd() const override { return epoll_fd_; }
  std::vector<Completion> TakeCompletions() override;
  /// Overlays respawns and each worker's in-flight high water over the
  /// pool's life.
  void AddBackendCounters(StatsResponse* stats) const override;

  /// The worker's process id (tests kill -9 it to exercise respawn).
  pid_t worker_pid(size_t w) const { return workers_[w].pid; }
  /// Workers re-forked after a crash since Start (monotone; what Stats
  /// reports as StatsResponse::respawns).
  int64_t respawns() const { return respawns_; }

 private:
  struct WorkerLink {
    int fd = -1;
    pid_t pid = -1;
    OutBuf out;                      // framed requests the socket has not taken
    std::string in;                  // reply bytes not yet parsed into frames
    std::deque<uint64_t> in_flight;  // ids sent and not yet answered
    bool watch_out = false;          // EPOLLOUT is registered
  };

  /// Forks worker `w` on a fresh socketpair and registers the link. The
  /// child closes every inherited fd except its link end.
  util::Status SpawnWorker(size_t w);
  /// Deregisters and closes the link, then reaps the child (SIGKILLed
  /// first when `sigkill`).
  void CloseLink(size_t w, bool sigkill);
  util::Status Respawn(size_t w);
  /// Sends pending request bytes; false when the peer is gone.
  bool Flush(size_t w);
  /// Reads and parses every available reply frame; false when the link hit
  /// EOF, a read error, or broken framing.
  bool ReadReplies(size_t w, std::vector<Completion>* done);
  /// Fails every exchange in flight on `w` with kUnavailable and respawns.
  void LoseWorker(size_t w, std::vector<Completion>* done);

  std::vector<WorkerLink> workers_;
  std::vector<int64_t> in_flight_hwm_;
  ServerOptions options_;
  int epoll_fd_ = -1;
  int64_t respawns_ = 0;
};

/// The multi-connection serving front: a poll() event loop over any number
/// of listeners (Unix and TCP behind identical framing), any number of
/// client connections, and one backend completion fd — all non-blocking
/// with per-fd read/write buffering, so one slow or half-open client never
/// stalls the rest.
///
/// Concurrency model: every complete client frame becomes an in-flight
/// call immediately (decoded, sharded, and submitted to its worker(s) by
/// correlation id through a CallTable); replies are delivered *per
/// connection in request order*, so a client that pipelines N requests
/// reads N replies in the order it sent them, while requests from different
/// connections interleave freely across the workers. A lost fork worker
/// completes its in-flight exchanges with StatusCode::kUnavailable inside
/// the backend, so the front never hangs on it.
///
/// Protocol violations (a frame header beyond kMaxFrameBytes, bytes that
/// are not a frame) close the offending connection; undecodable-but-framed
/// payloads get an encoded ErrorResponse like any other reply.
///
/// Clients cannot tell the backends apart: identical framing, identical
/// reply bytes.
///
/// Single-threaded: construct, add listeners, then Serve() on one thread;
/// Shutdown() and Drain() may be called from any thread or from a signal
/// handler (both are async-signal-safe) to make Serve return.
///
/// Fork-safety caveat for embedders: a fork backend respawns by fork()ing
/// from the Serve thread and the child immediately allocates (glibc's
/// atexit-fork handlers make malloc usable in the child of a multithreaded
/// parent, which the tests and benches rely on; a non-glibc libc without
/// that guarantee would need workers pre-forked before threads start).
class Server {
 public:
  /// The backend must be started and must outlive the Server. Do not call
  /// backend->Dispatch while Serve runs: one front at a time.
  explicit Server(Backend* backend);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Adds a listening socket (from ListenUnix/ListenTcp; ownership taken —
  /// the Server closes it). Call before Serve; multiple listeners serve
  /// concurrently (the usual pair: one Unix, one TCP).
  util::Status AddListener(int listener_fd);

  /// Runs the event loop until Shutdown() or a finished Drain(). Returns OK
  /// on a requested exit, Internal only on unrecoverable loop failure (poll
  /// itself failing) — individual connection and worker failures never end
  /// the loop.
  util::Status Serve();

  /// Makes Serve() return after the current poll round. Thread-safe and
  /// idempotent; safe to call before Serve (it will return immediately).
  /// Replies still owed are abandoned: their exchanges complete into the
  /// backend, where the next front drops them — the fast path for tests
  /// and embedders that own their own lifecycle.
  void Shutdown();

  /// Graceful drain, the SIGTERM path in both modes: Serve stops accepting
  /// connections, accepts the requests already in each socket with one last
  /// read and then stops reading, finishes every accepted request, flushes
  /// every reply, then returns OK.
  /// Async-signal-safe (an atomic store plus one self-pipe write),
  /// thread-safe, idempotent. Zero accepted requests are dropped — the ops
  /// contract a rolling restart relies on (docs/serving.md, "Draining and
  /// rolling restarts").
  void Drain();

 private:
  Backend* backend_;
  std::vector<int> listeners_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> draining_{false};
  int wake_fds_[2] = {-1, -1};  // self-pipe: Shutdown/Drain wakeups
};

}  // namespace bagcq::service
