// ProverCache: per-n memoization of ShannonProver instances.
//
// The elemental system of Γn has n + C(n,2)·2^(n-2) inequalities, kept as
// the inequalities themselves (to name certificate terms) and as sparse
// int8 LP columns (ShannonProver::columns, at most four ±1 entries each);
// it is by far the most expensive prover state to build and depends only
// on n. A
// cache shared across decisions (the Engine session, the batch API) builds
// each elemental system exactly once and reuses it for every subsequent
// decision at the same variable count.
//
// Two sharing layers exist:
//
//   * ProverCache — NOT thread-safe: one cache per Engine, one Engine per
//     thread. May be backed read-only by another ProverCache (SetFallback,
//     used by parallel-batch workers) or by a SharedProverPool (SetShared,
//     used by the threaded serving tier).
//   * SharedProverPool — thread-safe construct-once-per-n pool. A
//     ShannonProver is immutable after construction and Prove() is const
//     (the mutable simplex workspace is passed in by the caller), so one
//     constructed prover is safely read concurrently by any number of
//     engines; only construction needs the pool's mutex.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "entropy/shannon.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace bagcq::entropy {

/// Thread-safe per-n prover pool for engines that share one address space
/// (the server's --engine-threads mode): the elemental system and its
/// sparse LP columns are built exactly once per variable count for the
/// whole process, under
/// the pool's mutex, and every engine reads the same const instance.
///
/// Thread-safety contract: Get() may be called concurrently from any
/// number of threads. Returned references stay valid until Clear();
/// Clear() must not run concurrently with any Get() or with any use of a
/// previously returned prover (it is a quiescent-point operation — the
/// threaded pool never calls it while workers serve).
class SharedProverPool {
 public:
  struct GetResult {
    const ShannonProver* prover;
    bool constructed;  // true iff this call built the elemental system
  };

  /// The prover for n variables, constructing under the mutex on first use.
  /// Construction blocks other Get() calls (acceptable: it happens once per
  /// n per process lifetime and the alternative is N copies of ~n·2ⁿ
  /// constraints).
  GetResult Get(int n) BAGCQ_EXCLUDES(mutex_);

  /// Distinct variable counts built so far.
  int64_t constructions() const BAGCQ_EXCLUDES(mutex_);
  size_t size() const BAGCQ_EXCLUDES(mutex_);

  /// Drops every prover. See the class contract: callers must guarantee no
  /// concurrent Get() and no live references.
  void Clear() BAGCQ_EXCLUDES(mutex_);

 private:
  mutable util::Mutex mutex_;
  /// Owned provers, immutable once constructed; the map (not the pointees —
  /// a returned ShannonProver is read lock-free by design) is what the
  /// mutex guards.
  std::map<int, std::unique_ptr<ShannonProver>> provers_
      BAGCQ_GUARDED_BY(mutex_);
  int64_t constructions_ BAGCQ_GUARDED_BY(mutex_) = 0;
};

class ProverCache {
 public:
  /// The prover for n variables, constructing (and counting a miss) on first
  /// use. The reference stays valid until Clear() — entries are never
  /// evicted.
  const ShannonProver& Get(int n);

  /// Number of ShannonProver constructions (= distinct n seen since the last
  /// Clear()).
  int64_t constructions() const { return constructions_; }
  /// Number of Get() calls served from the cache.
  int64_t hits() const { return hits_; }
  size_t size() const { return provers_.size(); }

  /// Read-only warm start: Get() consults `fallback` (without copying — the
  /// elemental systems are large) before constructing. Used to back
  /// per-worker caches with the session cache during a parallel batch; the
  /// fallback must outlive this cache's last Get() and must not be mutated
  /// concurrently. Serving from the fallback counts as a hit here.
  void SetFallback(const ProverCache* fallback) { fallback_ = fallback; }

  /// Process-wide sharing: Get() resolves misses through `shared` (which is
  /// thread-safe) instead of building locally, so every cache pointed at one
  /// pool reads one copy of each elemental system. A Get() the pool already
  /// held counts as a hit here; one that made the pool construct counts as a
  /// construction here (the counters still sum correctly across engines).
  /// The pool is not owned and must outlive this cache's last Get().
  void SetShared(SharedProverPool* shared) { shared_ = shared; }
  SharedProverPool* shared() const { return shared_; }

  /// Moves every prover `other` holds that this cache lacks into this cache
  /// (after a parallel batch, worker-built systems join the session so the
  /// next batch starts warm). Counters untouched.
  void AbsorbFrom(ProverCache&& other);

  /// Drops the local entries and counters. A shared pool (SetShared) is
  /// deliberately left intact: its provers are pure functions of n and
  /// other engines may be reading them.
  void Clear();

 private:
  std::map<int, std::unique_ptr<ShannonProver>> provers_;
  const ProverCache* fallback_ = nullptr;
  SharedProverPool* shared_ = nullptr;
  int64_t constructions_ = 0;
  int64_t hits_ = 0;
};

}  // namespace bagcq::entropy
