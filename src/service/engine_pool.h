// ThreadedEnginePool: the thread backend of the serving seam
// (service/backend.h), the one-process sibling of the fork backend
// WorkerPool. N worker threads each own a Service (hence an Engine, with
// its own prover cache), all sharing exactly two thread-safe things:
//
//   * one store::ProofStore handle (thread-safe by contract), repaired once
//     at Start before any worker serves;
//   * the queue fabric below.
//
// Submit(worker, id, bytes) pushes onto the worker's queue; workers post
// each reply to one completion list and wake the front through a self-pipe,
// which is the pool's completion fd. Routing, sharding and merging live in
// the front's CallTable, so this file holds only the queues.
//
// Routing is affinity + work stealing, not pinning: the CallTable picks the
// queue a request is SUBMITTED to by its fingerprint shard (the same
// wire::CanonicalPairKey hash fork mode uses), which keeps that worker's
// decision memo and warm-start slots hot under mixed traffic — but an idle
// worker steals the oldest stealable item from the deepest queue once it
// passes steal_threshold, so skewed traffic (every request hashing to one
// shard) still uses the whole pool. A full queue fails the submit soft
// with StatusCode::kUnavailable instead of blocking the front.
//
// Fork vs thread tradeoff (docs/serving.md has the operator's version):
// fork mode buys crash isolation (a worker segfault costs one respawn);
// thread mode buys one shared proof-store index, shared page cache, no
// fork latency, and work stealing — but a crash takes the process. Both
// speak the same wire surface and produce byte-identical replies.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/options.h"
#include "service/backend.h"
#include "service/message.h"
#include "service/service.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace bagcq::store {
class ProofStore;  // store/proof_store.h — opened once, shared by all engines
}

namespace bagcq::service {

struct ThreadedPoolOptions {
  /// Worker threads (one Engine each). Must be >= 1.
  int num_threads = 4;
  /// Per-worker Engine configuration. Decision memoization defaults on for
  /// a serving tier; Start() overlays the proof store (when store_path is
  /// set) on top of whatever is passed here.
  api::EngineOptions engine = api::EngineOptions().set_memoize_decisions(true);
  /// Path of a persistent proof-store log shared by every worker thread, or
  /// empty for no persistence. Unlike fork mode's one-handle-per-process,
  /// Start() opens the log exactly once (repairing a torn tail) and hands
  /// the same thread-safe handle to every engine.
  std::string store_path;
  /// Queued-but-not-started requests a worker's queue holds before Submit
  /// fails soft with kUnavailable (pinned submits are exempt — control
  /// traffic must not be sheddable).
  size_t queue_capacity = 256;
  /// Queue depth at which an idle worker starts stealing from it. 1 would
  /// defeat affinity (everything migrates); large values strand work behind
  /// a slow shard. Drain (Stop) always steals at threshold 1.
  size_t steal_threshold = 2;
};

/// Owns N engine-owning worker threads and their work queues.
///
/// Thread-safety: Submit/TakeCompletions/queue_stats are safe from one
/// front thread concurrently with the workers (that is their job).
/// Start/Stop/Dispatch/DispatchBytes must come from a single front thread,
/// and exactly one front may drive a pool at a time.
class ThreadedEnginePool : public Backend {
 public:
  /// Pool-level counters for StatsResponse (engine counters travel inside
  /// each worker's EngineStats as usual).
  struct QueueStats {
    int64_t steals = 0;    // requests executed off their affinity worker
    int64_t rejected = 0;  // submits failed soft on a full queue
    std::vector<int64_t> depth_hwm;  // per-worker queue-depth high water
  };

  ThreadedEnginePool();  // out of line: store::ProofStore is incomplete here
  ~ThreadedEnginePool() override;

  /// Builds the N services (constructing engines eagerly, sharing at most
  /// one proof-store handle) and starts the worker
  /// threads. InvalidArgument on bad options (fewer than one thread) or a
  /// started pool; Internal on pipe failure. An unopenable store fails soft
  /// to storeless serving, mirroring fork mode.
  util::Status Start(const ThreadedPoolOptions& options = {})
      BAGCQ_EXCLUDES(mutex_);
  /// Drains every queue (stealing at threshold 1), joins the workers, and
  /// releases the engines. Queued work still completes; Submit during or
  /// after Stop fails with kUnavailable. Idempotent; the destructor calls
  /// it.
  void Stop() BAGCQ_EXCLUDES(mutex_, completion_mutex_);

  /// Valid between Start and Stop (the vector is immutable while serving).
  int num_workers() const override {
    return static_cast<int>(workers_.size());
  }

  /// Enqueues one encoded request on `worker`'s queue. kUnavailable when
  /// the queue is at capacity (unless pinned) or the pool is stopping.
  /// Pinned items are exempt from the capacity cap AND are never stolen.
  util::Status Submit(size_t worker, uint64_t id, std::string payload,
                      bool pinned = false) override BAGCQ_EXCLUDES(mutex_);

  /// Self-pipe read end: one byte per empty→nonempty transition of the
  /// completion list.
  int completion_fd() const override { return completion_fds_[0]; }

  /// Drains the self-pipe and removes every completion posted so far.
  std::vector<Completion> TakeCompletions() override
      BAGCQ_EXCLUDES(completion_mutex_);

  /// Overlays steals and the per-worker queue-depth high water.
  void AddBackendCounters(StatsResponse* stats) const override
      BAGCQ_EXCLUDES(mutex_);

  QueueStats queue_stats() const BAGCQ_EXCLUDES(mutex_);

 private:
  struct Item {
    uint64_t id = 0;
    std::string payload;
    bool pinned = false;
  };
  /// One worker's unshared half: the Service (its own Engine) and the
  /// thread running WorkerLoop. The worker's QUEUE deliberately lives in
  /// queues_, not here — it is shared mutable state (stealing reads every
  /// queue) and keeping it in a separate vector is what lets the guarding
  /// mutex be stated statically (BAGCQ_GUARDED_BY cannot tie a struct
  /// member to a mutex of the enclosing class).
  struct WorkerState {
    std::unique_ptr<Service> service;
    std::thread thread;
  };

  void WorkerLoop(size_t self) BAGCQ_EXCLUDES(mutex_, completion_mutex_);
  /// The queue index this worker should steal from, or -1.
  int PickVictim(size_t self) const BAGCQ_REQUIRES(mutex_);
  void PostCompletion(uint64_t id, std::string payload)
      BAGCQ_EXCLUDES(completion_mutex_);

  ThreadedPoolOptions options_;
  std::unique_ptr<store::ProofStore> store_;
  /// Structure (size, service pointers, threads) is immutable between
  /// Start and Stop, which only the single front thread calls — workers
  /// index it lock-free by design.
  std::vector<WorkerState> workers_;

  mutable util::Mutex mutex_;  // queues, counters, stopping flag
  util::CondVar work_cv_;
  /// Per-worker pending items, index-parallel to workers_. Affinity
  /// submits push to queues_[shard]; thieves splice from any of them.
  std::vector<std::deque<Item>> queues_ BAGCQ_GUARDED_BY(mutex_);
  bool stopping_ BAGCQ_GUARDED_BY(mutex_) = false;
  int64_t steals_ BAGCQ_GUARDED_BY(mutex_) = 0;
  int64_t rejected_ BAGCQ_GUARDED_BY(mutex_) = 0;
  std::vector<int64_t> depth_hwm_ BAGCQ_GUARDED_BY(mutex_);

  util::Mutex completion_mutex_;
  std::vector<Completion> completions_ BAGCQ_GUARDED_BY(completion_mutex_);
  int completion_fds_[2] = {-1, -1};
};

}  // namespace bagcq::service
