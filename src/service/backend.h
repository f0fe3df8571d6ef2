// The serving seam. A Backend is N engine workers behind one asynchronous
// interface: Submit(worker, id, bytes) hands one encoded request to one
// worker, and every accepted id comes back exactly once through
// TakeCompletions, announced by one pollable completion fd. Two backends
// implement it: WorkerPool (service/server.h, forked processes on
// socketpair links) and ThreadedEnginePool (service/engine_pool.h, worker
// threads on shared queues).
//
// CallTable is the one copy of what a front does with a Request: route a
// decision to its pair's shard, split a batch (or stream chunk) into one
// sub-batch per shard and merge the replies back in input order, fan
// Stats/ClearCache out to every worker and fold the answers. The Server
// event loop drives a CallTable asynchronously across many connections;
// Backend::Dispatch drives one for a single call and waits by polling
// completion_fd. Both fronts therefore produce the same bytes on either
// backend.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "api/engine.h"
#include "service/message.h"
#include "util/status.h"

namespace bagcq::service {

class Backend {
 public:
  /// One finished exchange: the id Submit carried and the worker's encoded
  /// Response. A non-OK status (kUnavailable: a fork worker was lost with
  /// the exchange in flight) means there is no payload.
  struct Completion {
    uint64_t id = 0;
    std::string payload;
    util::Status status;
  };

  Backend() = default;
  virtual ~Backend() = default;
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// Workers serving; 0 before Start and after Stop.
  virtual int num_workers() const = 0;

  /// Hands one encoded request to `worker` under correlation id `id` (take
  /// it from NextId). OK means accepted: the id will complete exactly once.
  /// An error means it never will, so the caller fails that exchange
  /// itself. Pinned requests are control fan-out (Stats, ClearCache) that
  /// must run on exactly this worker and must not be shed.
  virtual util::Status Submit(size_t worker, uint64_t id, std::string payload,
                              bool pinned = false) = 0;

  /// Readable (for poll) whenever TakeCompletions has work to do. A
  /// spurious wake yields an empty take, never a hang.
  virtual int completion_fd() const = 0;

  /// Does the backend's pending I/O and returns every completion it
  /// produced, in any order. Call after completion_fd polls readable.
  virtual std::vector<Completion> TakeCompletions() = 0;

  /// Overlays the backend's own Stats fields: respawns, steals, and the
  /// per-worker queue_depth_hwm.
  virtual void AddBackendCounters(StatsResponse* stats) const = 0;

  /// Correlation ids, unique across the backend's whole life: an exchange
  /// left in flight by one front can never match a later front's id.
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// The worker a decision for this pair routes to: the fingerprint of its
  /// canonical structural key, so renamed variants share a worker.
  size_t ShardFor(const api::QueryPair& pair, bool bag_bag) const;

  /// Routes one request through a CallTable and blocks until its reply is
  /// complete. Lost exchanges and rejected submits come back as
  /// kUnavailable in the affected slots, never as a hang. Exactly one
  /// front may drive a backend at a time.
  Response Dispatch(const Request& request);
  /// The raw-bytes surface of Dispatch: undecodable input becomes an
  /// encoded ErrorResponse.
  std::string DispatchBytes(std::string_view request_bytes);

 private:
  std::atomic<uint64_t> next_id_{1};
};

/// The in-flight calls of one front. A call is one client request; it fans
/// out into one exchange per involved worker and finishes when the last of
/// them completes (or fails). Single-threaded: the front that owns the
/// table calls Start and Complete.
class CallTable {
 public:
  /// Receives each finished call's encoded reply, addressed by the
  /// (conn, seq) pair its Start carried.
  using DeliverFn =
      std::function<void(uint64_t conn, uint64_t seq, std::string reply)>;
  /// Fills the Stats fields only the front can see (connections, bytes).
  using FrontStatsFn = std::function<void(StatsResponse* stats)>;

  CallTable(Backend* backend, DeliverFn deliver,
            FrontStatsFn front_stats = nullptr);

  /// Decodes one request payload and submits its exchanges. Undecodable
  /// payloads, empty batches and calls whose every submit was rejected are
  /// delivered before Start returns.
  void Start(uint64_t conn, uint64_t seq, std::string_view payload);
  /// Folds one backend completion into its call. Ids this table never
  /// issued (left in flight by an earlier front) are dropped.
  void Complete(Backend::Completion done);
  /// Calls started but not yet delivered.
  size_t in_flight() const { return calls_.size(); }

 private:
  enum class CallKind { kSingle, kBatch, kFanout, kStreamChunk };
  struct Call {
    uint64_t conn = 0;
    uint64_t seq = 0;
    CallKind kind = CallKind::kSingle;
    int outstanding = 0;
    std::string direct;        // kSingle: the worker's reply bytes, verbatim
    BatchResponse merged;      // kBatch/kStreamChunk: slots filled per shard
    StatsResponse folded;      // kFanout: Stats aggregation
    bool is_stats = false;     // kFanout: Stats vs ClearCache
    util::Status error;        // kFanout: first worker failure
    uint64_t chunk_first = 0;  // kStreamChunk: echoed stream position
    bool chunk_final = false;  // kStreamChunk: echoed final marker
  };
  struct Exchange {
    uint64_t call_id = 0;
    std::vector<size_t> positions;  // kBatch/kStreamChunk: this shard's slots
  };

  uint64_t NewCall(Call call);
  void Submit(uint64_t call_id, size_t worker, std::vector<size_t> positions,
              std::string payload, bool pinned = false);
  void Finish(uint64_t call_id);

  Backend* backend_;
  DeliverFn deliver_;
  FrontStatsFn front_stats_;
  std::map<uint64_t, Call> calls_;
  std::map<uint64_t, Exchange> exchanges_;
  uint64_t next_call_id_ = 1;
};

}  // namespace bagcq::service
