// The Engine's unified result types. One DecisionResult carries everything a
// caller can ask about a containment decision — verdict, the Eq. (8)
// instance, the λ/Shannon certificate, the counterexample polymatroid, the
// witness database, and timing/pivot/cache statistics — so tools stop
// re-wiring module internals to assemble their output.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/decider.h"
#include "entropy/shannon.h"

namespace bagcq::api {

/// Re-exported: kContained / kNotContained / kUnknown, with the same
/// decidability-frontier semantics as the core decider.
using Verdict = core::Verdict;

/// Per-call measurements.
struct CallStats {
  /// Wall-clock time of the whole call.
  double elapsed_ms = 0.0;
  /// Total simplex pivots across every LP the call ran.
  int64_t lp_pivots = 0;
  /// LPs in this call that resumed from a warm-start basis (a keyed slot on
  /// the session solver).
  int64_t lp_warm_accepts = 0;
  /// Pivots those warm starts saved vs the recorded cold baseline of the
  /// same LP shape.
  int64_t lp_warm_pivots_saved = 0;
  /// No elemental system was (re)built for this call — the per-n prover came
  /// from the session cache (or the call never needed one).
  bool prover_cache_hit = false;
  /// The whole decision came from the session's query-pair memo cache
  /// (EngineOptions::set_memoize_decisions); elapsed_ms/lp_pivots are those
  /// of the originally computed decision.
  bool memo_hit = false;
  /// The decision was served from the persistent proof store
  /// (EngineOptions::set_decision_store) — loaded, checksum-verified, and
  /// (for certificate-carrying results) re-verified, with no LP run. As
  /// with memo_hit, elapsed_ms/lp_pivots are those of the original solve.
  bool store_hit = false;
  /// Escalation-ladder tallies: pivots of the solves that ran in the int64
  /// tier from start to finish, and how many solves overflowed it and ran
  /// again in BigInt. lp_word_pivots also counts the pivots that move basic
  /// artificials out of the basis after phase I, which lp_pivots (like the
  /// reference simplex) does not count, so it can exceed lp_pivots.
  int64_t lp_word_pivots = 0;
  int64_t lp_wide_pivots = 0;  // always 0: wire slot of a removed tier
  int64_t lp_bigint_promotions = 0;
};

/// Outcome of Engine::Decide / DecideBatch.
struct DecisionResult {
  Verdict verdict = Verdict::kUnknown;
  /// Which theorem decided, in prose (e.g. "Theorem 3.1: valid over Nn = …").
  std::string method;
  /// Structural facts about Q2 (acyclic / chordal / simple junction tree).
  core::Q2Analysis analysis;
  /// The Eq. (8) instance (absent when hom(Q2,Q1) = ∅).
  std::optional<core::ContainmentInequality> inequality;
  /// Contained: λ weights + Shannon certificate (when requested).
  std::optional<entropy::MaxIIResult> validity;
  /// NotContained / Unknown: the violating cone member.
  std::optional<entropy::SetFunction> counterexample;
  /// NotContained: the verified witness database.
  std::optional<core::Witness> witness;
  CallStats stats;

  bool contained() const { return verdict == Verdict::kContained; }
  std::string ToString() const;
};

/// Outcome of Engine::ProveInequality / CheckMaxInequality.
struct ProofResult {
  /// The inequality holds over the checked cone.
  bool valid = false;
  /// Valid single inequality (or λ-combination): the Shannon proof.
  std::optional<entropy::ShannonCertificate> certificate;
  /// Valid max-inequality: convex weights of Theorem 6.1 (one per branch).
  std::vector<util::Rational> lambda;
  /// Invalid: a cone member violating the inequality (every branch).
  std::optional<entropy::SetFunction> counterexample;
  /// Invalid: the (maximal) branch value at the counterexample, negative.
  util::Rational violation;
  /// Variable names in index order (populated on the ITIP-text entry point).
  std::vector<std::string> var_names;
  CallStats stats;

  std::string ToString() const;
};

}  // namespace bagcq::api
