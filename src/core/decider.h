// The decision procedure for conjunctive-query containment under bag-set
// semantics (Theorem 3.1), three-valued and honest about the paper's
// decidability frontier:
//
//   Contained     — Eq. (8) is valid over Γn (Theorem 4.2; sound for every
//                   Q2). Certificate: λ-weights + Shannon proof.
//   NotContained  — a *normal* entropic counterexample to Eq. (8) exists and
//                   Q2 is acyclic or chordal-with-simple-junction-tree
//                   (Theorem 4.4 / Lemma E.1); a verified witness database
//                   is produced. Also triggered directly when
//                   hom(Q2,Q1) = ∅ or a brute-force counterexample is known.
//   Unknown       — the inequality fails over the polymatroid cone but Q2 is
//                   outside the decidable classes, so the failure proves
//                   nothing (Eq. (8) is only sufficient there).
//
// Decision logic per cone (Theorem 3.6): when the junction tree is simple,
// validity over Nn ⇔ validity over Γn ⇔ validity over Γ*n, so the (small)
// Nn LP decides; its counterexamples are already normal. For acyclic Q2 an
// Nn-failure is also conclusive (Nn ⊆ Γ*n + Theorem 4.4) even when the
// junction tree is not simple; an Nn-success then falls back to the Γn LP
// for soundness.
#pragma once

#include <optional>
#include <string>

#include "core/containment_inequality.h"
#include "core/witness.h"
#include "entropy/max_ii.h"
#include "entropy/prover_cache.h"
#include "util/status.h"

namespace bagcq::core {

enum class Verdict { kContained, kNotContained, kUnknown };

const char* VerdictToString(Verdict v);

struct DeciderOptions {
  /// Also run the Γn LP on Contained verdicts to extract a Shannon
  /// certificate (the Nn LP alone decides but certifies differently).
  bool want_shannon_certificate = true;
  WitnessOptions witness;
};

/// Borrowed session state threaded through a decision (the bagcq::Engine
/// path). `provers` supplies per-n elemental systems — including the dense
/// constraint skeleton shared by every Γn LP — built once and reused;
/// `solver` supplies the exact LP solver (lp/solver.h) with a
/// persistent workspace and per-shape warm-start basis slots, so the branch
/// LPs of one decision (Nn → Γn) and of every following same-shaped decision
/// resume from the previous terminal basis instead of re-running phase I.
/// Either member may be null.
struct DeciderContext {
  entropy::ProverCache* provers = nullptr;
  lp::Solver* solver = nullptr;
};

struct Decision {
  Verdict verdict = Verdict::kUnknown;
  /// Structural facts about Q2 and which theorem applied.
  Q2Analysis analysis;
  std::string method;
  /// The Eq. (8) inequality (absent when hom(Q2,Q1) = ∅).
  std::optional<ContainmentInequality> inequality;
  /// Contained: oracle result with λ weights (and certificate if requested).
  std::optional<entropy::MaxIIResult> validity;
  /// NotContained / Unknown: the violating cone member.
  std::optional<entropy::SetFunction> counterexample;
  /// NotContained: the verified witness database.
  std::optional<Witness> witness;
  /// Total simplex pivots across every LP run for this decision.
  int64_t lp_pivots = 0;

  std::string ToString() const;
};

/// Decides Q1 ⪯ Q2 for Boolean queries over a common vocabulary, reusing the
/// caller's session state (prover cache + LP workspace) when provided.
/// Non-Boolean inputs are reduced via Lemma A.1 automatically. This is the
/// implementation entry point behind bagcq::Engine — prefer the Engine for
/// anything beyond a one-off decision.
util::Result<Decision> DecideBagContainmentWithContext(
    const cq::ConjunctiveQuery& q1, const cq::ConjunctiveQuery& q2,
    const DeciderOptions& options, const DeciderContext& context);

/// Containment under *bag-bag* semantics (the input database is a bag too):
/// reduced to the bag-set problem by the tuple-id transform of [JKV06]
/// (Section 2.2), then decided as above. Note that repeated atoms are
/// meaningful under bag-bag semantics, so no duplicate removal happens
/// before the transform.
util::Result<Decision> DecideBagBagContainmentWithContext(
    const cq::ConjunctiveQuery& q1, const cq::ConjunctiveQuery& q2,
    const DeciderOptions& options, const DeciderContext& context);

}  // namespace bagcq::core
