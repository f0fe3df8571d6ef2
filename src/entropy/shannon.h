// ShannonProver: decide whether a linear information inequality 0 ≤ E(h)
// holds for every polymatroid h ∈ Γn — i.e. whether it is a *Shannon*
// inequality — and produce a machine-checked artifact either way:
//
//   valid   → an exact nonnegative combination of elemental inequalities
//             summing to E (a proof object, verified by re-expansion);
//   invalid → a polymatroid h ∈ Γn with E(h) < 0 (a counterexample object,
//             verified by predicate).
//
// Since Γ*n ⊆ Γn, "valid over Γn" implies the inequality is a valid
// information inequality; the converse can fail (Zhang–Yeung), which is the
// non-Shannon phenomenon the paper's Section 3.2 recounts.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "entropy/elemental.h"
#include "entropy/linear_expr.h"
#include "entropy/set_function.h"

namespace bagcq::lp {
class Solver;
}  // namespace bagcq::lp

namespace bagcq::entropy {

/// An exact proof: E = Σ weight_t · elemental_t with all weights ≥ 0.
struct ShannonCertificate {
  std::vector<std::pair<ElementalInequality, Rational>> combination;

  /// Re-expands the combination and compares with `target` exactly.
  bool Verify(const LinearExpr& target) const;
  std::string ToString(int n, const std::vector<std::string>& names) const;
};

struct IIResult {
  bool valid = false;
  /// Present iff valid.
  std::optional<ShannonCertificate> certificate;
  /// Present iff invalid: polymatroid (h(V)=1 normalized) with E(h) < 0.
  std::optional<SetFunction> counterexample;
  /// E(counterexample), a negative rational (iff invalid).
  Rational violation;
  int64_t lp_pivots = 0;
};

/// Prover for a fixed variable count n. Construction precomputes the
/// elemental system and its dense constraint skeleton; Prove() runs one
/// exact LP per call.
class ShannonProver {
 public:
  explicit ShannonProver(int n);

  int num_vars() const { return n_; }
  const std::vector<ElementalInequality>& elementals() const {
    return elementals_;
  }

  /// Dense elemental-constraint skeleton, shared by every LP over Γn:
  /// constraint_skeleton()[s-1][t] is the coefficient of elemental t on the
  /// subset row with mask s (1 ≤ s ≤ 2ⁿ−1). Built once at construction; the
  /// per-call LPs (Prove here, the Γn route of MaxIIOracle) only copy rows
  /// out of it instead of re-expanding every elemental.
  const std::vector<std::vector<Rational>>& constraint_skeleton() const {
    return skeleton_;
  }

  /// Is 0 ≤ E(h) for all h ∈ Γn? Certificates and counterexamples are
  /// CHECK-verified before being returned. With a non-null `solver`, the LP
  /// runs on that solver with its persistent workspace and a per-n warm
  /// keyed basis (the Engine batch path — repeated proofs at one n resume
  /// from the previous terminal basis); otherwise a throwaway exact solver
  /// is used.
  IIResult Prove(const LinearExpr& e, lp::Solver* solver = nullptr) const;

 private:
  int n_;
  std::vector<ElementalInequality> elementals_;
  std::vector<std::vector<Rational>> skeleton_;
};

}  // namespace bagcq::entropy
