// bagcq::api::Engine — the library's front door.
//
// One Engine is one decision session: it owns parsing, reduction, structural
// analysis, and the exact-LP decision procedure behind three calls —
//
//   Decide(q1, q2)            one containment decision
//   DecideBatch(pairs)        many decisions, amortizing session state
//   ProveInequality(expr)     the ITIP-style Shannon prover
//
// — all returning unified result objects (api/result.h) built on
// util::Status: malformed input comes back as InvalidArgument/ParseError,
// never as a CHECK abort.
//
// What the session caches (the reason the Engine exists):
//   * a per-n ShannonProver pool — the elemental system of Γn (which grows
//     as ~n·2ⁿ constraints, stored as sparse int8 LP columns) is
//     constructed once per variable count and shared by every subsequent
//     decision, proof, and batch element. With
//     EngineOptions::set_shared_prover_pool the pool is process-wide
//     instead of per-session: N engines in one process (the threaded
//     serving tier) build each elemental system exactly once and read the
//     same const instance — safe because a constructed ShannonProver is
//     immutable and Prove() is const (the mutable simplex workspace is
//     always the caller's);
//   * one exact lp::Solver whose tableau arena persists across calls, so
//     repeated decisions stop reallocating it;
//   * optionally, a query-pair → DecisionResult memo for repeated traffic
//     (EngineOptions::set_memoize_decisions), keyed by the canonical wire
//     encoding of the pair (wire::CanonicalPairKey) — whitespace- and
//     variable-renaming variants of one question share one entry; bounded
//     (EngineOptions::set_memo_max_entries) with FIFO eviction;
//   * optionally, a persistent decision store hook
//     (EngineOptions::set_decision_store, api/decision_store.h), consulted
//     between the memo and a cold solve and offered every fresh result —
//     the cross-restart tier behind store/proof_store.h, keyed by the same
//     canonical pair key as the memo.
//
// An Engine starts no threads: DecideBatch decides its pairs one after
// another against the session's one solver and prover cache.
//
// Engines are not thread-safe; use one Engine per thread (as
// service::ThreadedEnginePool does, which is where in-process parallel
// batches live). By default they share nothing; with a shared prover pool
// they share exactly the read-only elemental systems and nothing else —
// solver workspaces, warm-start slots, the decision memo, and every counter
// stay private to the engine.
#pragma once

#include <deque>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/options.h"
#include "api/result.h"
#include "cq/parser.h"
#include "cq/query.h"
#include "entropy/expr_parser.h"
#include "entropy/max_ii.h"
#include "entropy/prover_cache.h"
#include "lp/solver.h"
#include "util/status.h"

namespace bagcq::api {

/// One containment question, for the batch API.
struct QueryPair {
  cq::ConjunctiveQuery q1;
  cq::ConjunctiveQuery q2;
};

/// Session-level counters (monotone since construction / ClearCache).
struct EngineStats {
  int64_t decisions = 0;        // Decide/DecideBagBag/DecideBatch elements
  int64_t proofs = 0;           // ProveInequality / CheckMaxInequality calls
  int64_t errors = 0;           // calls that returned a non-OK status
  int64_t prover_constructions = 0;  // elemental systems built
  int64_t prover_cache_hits = 0;     // decisions served from the pool
  int64_t lp_solves = 0;        // LPs run by the session's solver
  int64_t lp_pivots = 0;        // pivots across those LPs
  int64_t lp_screen_accepts = 0;   // always 0: wire slot of a removed backend
  int64_t lp_exact_fallbacks = 0;  // always 0: wire slot of a removed backend
  int64_t lp_warm_accepts = 0;     // LPs resumed from a warm-start basis
  int64_t lp_warm_pivots_saved = 0;  // pivots saved vs cold baselines
  // Ladder pivots done in the int64 / 128-bit tier. Unlike lp_pivots they
  // include phase-I artificial pivot-outs (see CallStats).
  int64_t lp_word_pivots = 0;
  int64_t lp_wide_pivots = 0;
  int64_t lp_bigint_promotions = 0;  // exact solves escalated to BigInt
  int64_t decision_memo_hits = 0;  // decisions served from the memo cache
  int64_t store_hits = 0;      // decisions served from the persistent store
  int64_t store_misses = 0;    // store consulted, key absent (or unverifiable)
  int64_t store_appends = 0;   // fresh results persisted to the store
  int64_t store_rejects = 0;   // fresh results the store's admission refused
  double total_ms = 0.0;        // wall-clock across all calls

  /// Field-wise sum — the one place aggregation lives, so a future counter
  /// cannot be folded in one consumer and forgotten in another (the server's
  /// Stats request sums per-worker-process stats through this).
  EngineStats& operator+=(const EngineStats& other) {
    decisions += other.decisions;
    proofs += other.proofs;
    errors += other.errors;
    prover_constructions += other.prover_constructions;
    prover_cache_hits += other.prover_cache_hits;
    lp_solves += other.lp_solves;
    lp_pivots += other.lp_pivots;
    lp_screen_accepts += other.lp_screen_accepts;
    lp_exact_fallbacks += other.lp_exact_fallbacks;
    lp_warm_accepts += other.lp_warm_accepts;
    lp_warm_pivots_saved += other.lp_warm_pivots_saved;
    lp_word_pivots += other.lp_word_pivots;
    lp_wide_pivots += other.lp_wide_pivots;
    lp_bigint_promotions += other.lp_bigint_promotions;
    decision_memo_hits += other.decision_memo_hits;
    store_hits += other.store_hits;
    store_misses += other.store_misses;
    store_appends += other.store_appends;
    store_rejects += other.store_rejects;
    total_ms += other.total_ms;
    return *this;
  }
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  // ----------------------------------------------------------- containment
  /// Decides Q1 ⪯ Q2 under bag-set semantics. Queries must share a
  /// vocabulary and head arity (else InvalidArgument). Non-Boolean inputs
  /// are reduced via Lemma A.1 automatically. Never aborts: every failure
  /// is a Status (InvalidArgument for incompatible inputs, Internal for a
  /// pipeline invariant failure); an undecidable instance is not an error —
  /// it returns OK with Verdict::kUnknown.
  util::Result<DecisionResult> Decide(const cq::ConjunctiveQuery& q1,
                                      const cq::ConjunctiveQuery& q2);
  /// Parses both queries (Q2 against Q1's vocabulary) and decides. Adds
  /// ParseError to the failure modes above.
  util::Result<DecisionResult> Decide(std::string_view q1_text,
                                      std::string_view q2_text);

  /// Bag-bag semantics (input database is a bag), via the [JKV06] tuple-id
  /// transform.
  util::Result<DecisionResult> DecideBagBag(const cq::ConjunctiveQuery& q1,
                                            const cq::ConjunctiveQuery& q2);
  util::Result<DecisionResult> DecideBagBag(std::string_view q1_text,
                                            std::string_view q2_text);

  /// Decides every pair in input order, reusing the session's prover pool
  /// and LP workspace — at a fixed variable count the elemental system is
  /// constructed once for the whole batch. Per-pair failures come back as
  /// per-pair error results; the batch never aborts early.
  std::vector<util::Result<DecisionResult>> DecideBatch(
      std::span<const QueryPair> pairs);

  // ---------------------------------------------------------------- prover
  /// Is 0 ≤ e(h) for every polymatroid h ∈ Γn (a Shannon inequality)?
  /// Valid → elemental-combination proof; invalid → counterexample
  /// polymatroid. Exact either way. InvalidArgument on a variable count
  /// outside the entropy-space bound.
  util::Result<ProofResult> ProveInequality(const entropy::LinearExpr& e);
  /// ITIP-style text entry point: "I(A;B|C) + H(A) >= H(B)". Adds
  /// ParseError for malformed inequality text.
  util::Result<ProofResult> ProveInequality(std::string_view itip_text);

  /// Validity of 0 ≤ max_ℓ branches[ℓ](h) over a cone (Theorem 3.6 / 6.1
  /// machinery). All branches must agree on the variable count and the
  /// list must be nonempty (else InvalidArgument).
  util::Result<ProofResult> CheckMaxInequality(
      const std::vector<entropy::LinearExpr>& branches,
      entropy::ConeKind cone = entropy::ConeKind::kPolymatroid);

  // ------------------------------------------------- pipeline passthroughs
  /// Structural analysis of a containing query (acyclic / chordal / simple
  /// junction tree — the decidability frontier). Total: every well-formed
  /// query analyzes.
  core::Q2Analysis Analyze(const cq::ConjunctiveQuery& q2) const;
  /// Chandra–Merlin set-semantics containment (the classical baseline).
  /// Exponential-time homomorphism search; no session state touched.
  bool SetContained(const cq::ConjunctiveQuery& q1,
                    const cq::ConjunctiveQuery& q2) const;

  /// Parses a query (vocabulary inferred). ParseError on malformed text.
  util::Result<cq::ConjunctiveQuery> ParseQuery(std::string_view text) const;
  /// Parses Q1, then Q2 against Q1's vocabulary — the usual way to build a
  /// comparable pair (or a batch) from text. ParseError on either side.
  util::Result<QueryPair> ParsePair(std::string_view q1_text,
                                    std::string_view q2_text) const;

  // --------------------------------------------------------------- session
  const EngineOptions& options() const { return options_; }
  /// Counters below are cumulative across the session.
  EngineStats stats() const;
  /// The session's cached prover for n variables (constructing on first
  /// use) — for callers that want the elemental system itself.
  const entropy::ShannonProver& prover(int n) { return provers_.Get(n); }
  /// Drops every cached prover, the LP workspace, and the decision memo;
  /// counters reset. A process-wide shared prover pool is deliberately NOT
  /// cleared — its provers are pure functions of n and other engines may
  /// be reading them concurrently.
  void ClearCache();

 private:
  /// One decision against the session: memo lookup → persistent-store
  /// lookup → cold decide → memo insert + store append, counting each step
  /// in stats_.
  util::Result<DecisionResult> DecideImpl(const cq::ConjunctiveQuery& q1,
                                          const cq::ConjunctiveQuery& q2,
                                          bool bag_bag);
  /// Memo lookup/insert, called only with memoize_decisions on. Past
  /// EngineOptions::memo_max_entries() the oldest entry is evicted FIFO
  /// (results can carry witness databases — the memo must stay bounded).
  bool MemoLookup(const std::string& key, DecisionResult* out) const;
  void MemoInsert(const std::string& key, const DecisionResult& result);

  EngineOptions options_;
  entropy::ProverCache provers_;
  lp::Solver solver_;
  EngineStats stats_;
  std::map<std::string, DecisionResult> memo_;
  /// Insertion order of memo_ keys, for FIFO eviction at the cap.
  std::deque<std::string> memo_order_;
};

}  // namespace bagcq::api

namespace bagcq {
/// The facade is the library's public name: bagcq::Engine.
using api::Engine;
using api::EngineOptions;
using api::EngineStats;
using api::QueryPair;
}  // namespace bagcq
