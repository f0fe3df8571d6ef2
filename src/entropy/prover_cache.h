// ProverCache: per-n memoization of ShannonProver instances.
//
// The elemental system of Γn has n + C(n,2)·2^(n-2) inequalities, kept as
// the inequalities themselves (to name certificate terms) and as sparse
// int8 LP columns (ShannonProver::columns, at most four ±1 entries each).
// It depends only on n, so a cache held across an Engine session's
// decisions, proofs and batches builds each elemental system once and
// reuses it for every later call at the same variable count. Building one
// is mask arithmetic (ElementalColumns) and takes microseconds.
//
// NOT thread-safe: one cache per Engine, one Engine per thread.
#pragma once

#include <cstdint>
#include <map>

#include "entropy/shannon.h"

namespace bagcq::entropy {

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

  /// Drops every entry and resets the counters.
  void Clear();

 private:
  /// Map nodes never move, so a returned reference stays valid.
  std::map<int, ShannonProver> provers_;
  int64_t constructions_ = 0;
  int64_t hits_ = 0;
};

}  // namespace bagcq::entropy
