// EngineOptions: every knob of an Engine session in one builder, replacing
// the core::DeciderOptions + core::WitnessOptions pair at the public
// boundary. Defaults match the paper's reference configuration: exact
// arithmetic and Shannon certificates on Contained verdicts. Witnesses are
// always verified by exact homomorphism counting; no knob turns that off.
//
// No knob sizes a thread pool: an Engine starts no threads and decides a
// batch one pair after another. Parallel decisions are one Engine per
// thread, as service::ThreadedEnginePool runs them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/decider.h"

namespace bagcq::api {

class DecisionStore;  // api/decision_store.h — the persistent-store hook

class EngineOptions {
 public:
  /// Also run the Γn LP on Contained verdicts to extract a Shannon
  /// certificate (the Nn LP alone decides but certifies differently).
  EngineOptions& set_want_shannon_certificate(bool v) {
    want_shannon_certificate_ = v;
    return *this;
  }
  bool want_shannon_certificate() const { return want_shannon_certificate_; }

  /// Refuse to materialize witness relations/databases beyond this many
  /// tuples (the symbolic certificate is still produced).
  EngineOptions& set_witness_max_tuples(int64_t v) {
    witness_max_tuples_ = v;
    return *this;
  }
  int64_t witness_max_tuples() const { return witness_max_tuples_; }

  /// Warm starts across the session's LPs (on by default): each LP shape
  /// keeps its last terminal basis on the solver, and the next same-shaped
  /// program resumes from it instead of re-running phase I — repeated
  /// proofs, the branch LPs of a decision, and same-shaped batch traffic
  /// all benefit. Certificates stay exactly verified either way; turn off
  /// only to measure (stats().lp_warm_accepts shows the hit rate).
  EngineOptions& set_warm_starts(bool v) {
    warm_starts_ = v;
    return *this;
  }
  bool warm_starts() const { return warm_starts_; }

  /// Memoize whole decisions (query-pair → DecisionResult) across the
  /// session, for repeated traffic. Off by default: memoized replies recount
  /// no LP work, which changes the meaning of the per-call stats.
  EngineOptions& set_memoize_decisions(bool v) {
    memoize_decisions_ = v;
    return *this;
  }
  bool memoize_decisions() const { return memoize_decisions_; }

  /// Cap on the decision memo (entries). At the cap the oldest entry is
  /// evicted first-in-first-out — results can carry witness databases, so
  /// the memo must stay bounded but repeated hot traffic should stay warm.
  /// 0 disables the memo outright even with memoize_decisions on.
  EngineOptions& set_memo_max_entries(size_t v) {
    memo_max_entries_ = v;
    return *this;
  }
  size_t memo_max_entries() const { return memo_max_entries_; }

  /// Persistent decision store (api/decision_store.h), consulted between
  /// the in-memory memo and a cold solve and offered every freshly solved
  /// result. Not owned; must outlive the Engine, and be safe for concurrent
  /// calls when engines on several threads share it (store::ProofStore
  /// qualifies). Null (the default) means no persistence.
  EngineOptions& set_decision_store(DecisionStore* store) {
    decision_store_ = store;
    return *this;
  }
  DecisionStore* decision_store() const { return decision_store_; }

  /// The legacy options pair consumed by the core decider, with witness
  /// count verification always on.
  core::DeciderOptions ToDeciderOptions() const {
    core::DeciderOptions options;
    options.want_shannon_certificate = want_shannon_certificate_;
    options.witness.max_tuples = witness_max_tuples_;
    options.witness.verify_counts = true;
    return options;
  }

 private:
  bool want_shannon_certificate_ = true;
  int64_t witness_max_tuples_ = 100'000;
  bool warm_starts_ = true;
  bool memoize_decisions_ = false;
  size_t memo_max_entries_ = 65'536;
  DecisionStore* decision_store_ = nullptr;
};

}  // namespace bagcq::api
