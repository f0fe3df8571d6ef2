// The Engine's persistent-store hook: an abstract lookup/append surface the
// Engine consults between its in-memory decision memo and a cold solve
// (EngineOptions::set_decision_store). The concrete implementation — the
// append-only content-addressed certificate log — lives in
// store/proof_store.h; the api layer sees only this interface, because the
// wire encoding the store persists already depends on api (the dependency
// points store → wire → api, never back).
//
// Keys are the canonical structural pair key (wire::CanonicalPairKey) — the
// same bytes that key the in-memory memo and the server's shard routing, so
// one containment question has one identity across all three tiers.
#pragma once

#include <string>

#include "api/result.h"

namespace bagcq::api {

/// Outcome of DecisionStore::Put, so callers can count admissions without
/// the store and the Engine double-booking the same event.
enum class StorePutOutcome {
  kAppended,   // durably appended (counted as a store_append)
  kRejected,   // refused by admission policy (counted as a store_reject)
  kDuplicate,  // the key is already stored; nothing written, nothing counted
};

/// Implementations must be safe for concurrent calls: the engines of a
/// service::ThreadedEnginePool share one store, one engine per thread.
class DecisionStore {
 public:
  virtual ~DecisionStore() = default;

  /// Fills *out and returns true when `key` is present AND the stored record
  /// passes the implementation's load policy (for the proof store:
  /// verify-on-load for certificate-carrying results, trust-but-checksum for
  /// verdict-only ones). A record that fails the policy reads as a miss —
  /// the caller falls through to a cold solve, never to a wrong answer.
  [[nodiscard]] virtual bool Lookup(const std::string& key,
                                    DecisionResult* out) = 0;

  /// Offers a freshly computed result for persistence. Implementations
  /// apply their admission policy (e.g. an oversized-payload bound) and
  /// report what happened.
  [[nodiscard]] virtual StorePutOutcome Put(const std::string& key,
                                            const DecisionResult& result) = 0;
};

}  // namespace bagcq::api
