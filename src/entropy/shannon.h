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
#include <span>
#include <string>
#include <vector>

#include "entropy/elemental.h"
#include "entropy/linear_expr.h"
#include "entropy/set_function.h"

namespace bagcq::lp {
class Solver;
}  // namespace bagcq::lp

namespace bagcq::entropy {

/// An exact proof: E = Σ weight_t · elemental_t with all weights > 0.
struct ShannonCertificate {
  std::vector<std::pair<ElementalInequality, Rational>> combination;

  /// Whether the combination proves E = Σ_ℓ lambda[ℓ]·branches[ℓ] ≥ 0 over
  /// Γn: every weight is positive and the combination equals E exactly.
  /// One dense integer pass (dense_check.h) reads the branches and each
  /// elemental's (i, j, K); a single inequality E is one branch with
  /// weight 1. False when the branches are empty, differ in variable count,
  /// or are not as many as the weights.
  bool Verify(std::span<const LinearExpr> branches,
              std::span<const Rational> lambda) const;
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
/// elemental system and its sparse columns; Prove() runs one exact LP per
/// call.
class ShannonProver {
 public:
  explicit ShannonProver(int n);

  int num_vars() const { return n_; }
  const std::vector<ElementalInequality>& elementals() const {
    return elementals_;
  }

  /// The elementals as sparse ±1 columns over the 2ⁿ−1 subset rows
  /// (ElementalColumns), shared by every LP over Γn: Prove here and the Γn
  /// route of MaxIIOracle build their programs straight from it.
  const std::vector<ElementalColumn>& columns() const { return columns_; }

  /// Is 0 ≤ E(h) for all h ∈ Γn? Certificates and counterexamples are
  /// CHECK-verified before being returned. With a non-null `solver` (an
  /// Engine's session solver), the LP runs on that solver with its
  /// persistent arena and a per-n warm keyed basis, so repeated proofs at
  /// one n resume from the previous terminal basis; otherwise a throwaway
  /// exact solver is used.
  IIResult Prove(const LinearExpr& e, lp::Solver* solver = nullptr) const;

 private:
  int n_;
  std::vector<ElementalInequality> elementals_;
  std::vector<ElementalColumn> columns_;
};

}  // namespace bagcq::entropy
