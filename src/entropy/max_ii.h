// MaxIIOracle: decide validity of a max-information inequality
//
//     0 ≤ max_{ℓ∈[k]} E_ℓ(h)      for all h in a polyhedral cone
//
// over one of the paper's three polyhedral cones (Section 3.2):
//   Γn (polymatroids, constraint-generated by the elemental inequalities),
//   Nn (normal functions, generated by the step functions h_W),
//   Mn (modular functions, generated by the co-singleton step functions).
//
// The method is the LP-duality argument of Theorem F.1 (Appendix F): the
// max-inequality is valid on cone K iff there are convex weights λ with
// Σ_ℓ λ_ℓ E_ℓ in the dual cone K*. Feasibility of that condition is one LP;
// its Farkas certificate, when infeasible, *is* a member h ∈ K with
// max_ℓ E_ℓ(h) < 0 — returned as a verified counterexample.
//
// Relevance to the paper's main results: by Theorem 3.6, for branches that
// are simple conditional expressions minus q·h(V), validity over Nn, Γn and
// the entropic cone Γ*n all coincide — which is why this oracle decides the
// containment problem of Theorem 3.1.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "entropy/linear_expr.h"
#include "entropy/set_function.h"
#include "entropy/shannon.h"
#include "lp/solver.h"

namespace bagcq::entropy {

enum class ConeKind { kPolymatroid, kNormal, kModular };

const char* ConeKindToString(ConeKind kind);

/// Generators of the cone: all step functions h_W (W ⊊ V) for Nn, the n
/// co-singleton step functions for Mn. CHECK-fails for Γn (constraint-form).
std::vector<SetFunction> ConeGenerators(int n, ConeKind kind);

struct MaxIIResult {
  bool valid = false;
  /// Valid: convex weights, Σ λ = 1, with Σ_ℓ λ_ℓ E_ℓ valid on the cone
  /// (Theorem 6.1 / F.1).
  std::vector<Rational> lambda;
  /// Valid over Γn: the Shannon proof of Σ_ℓ λ_ℓ E_ℓ ≥ 0.
  std::optional<ShannonCertificate> certificate;
  /// Invalid: a member of the cone with max_ℓ E_ℓ(h) < 0.
  std::optional<SetFunction> counterexample;
  /// Invalid over Nn or Mn: the LP's nonzero weights c_W > 0, with
  /// counterexample = Σ_W c_W·h_W, keyed by generators of the cone (W ⊊ V
  /// for Nn, co-singletons V − {i} for Mn). Witnesses are built from it.
  /// Empty over Γn and when valid.
  std::map<VarSet, Rational> decomposition;
  /// Invalid: max_ℓ E_ℓ(counterexample), a negative rational.
  Rational max_at_counterexample;
  int64_t lp_pivots = 0;
};

class MaxIIOracle {
 public:
  MaxIIOracle(int n, ConeKind kind);

  /// Session state (the Engine path): a cached ShannonProver whose
  /// elementals and sparse elemental columns replace the per-call
  /// ShannonProver(n) build on the Γn route, and a long-lived
  /// lp::Solver whose workspace — and per-shape warm-start
  /// basis, keyed by (form, cone, n, branch count) — is reused across calls:
  /// the branch LPs of one decision, and of every following decision at the
  /// same shape, resume from the previous terminal basis. Either may be
  /// null; `prover` must match n.
  MaxIIOracle(int n, ConeKind kind, const ShannonProver* prover,
              lp::Solver* solver);

  int num_vars() const { return n_; }
  ConeKind cone() const { return kind_; }

  /// Validity of 0 ≤ max_ℓ branches[ℓ](h) over the cone. `branches` must be
  /// nonempty; all artifacts are CHECK-verified before return.
  MaxIIResult Check(const std::vector<LinearExpr>& branches) const;

 private:
  MaxIIResult CheckConstraintForm(const std::vector<LinearExpr>& branches) const;
  MaxIIResult CheckGeneratorForm(const std::vector<LinearExpr>& branches) const;
  template <typename Program>
  lp::Solution RunSimplex(const Program& program,
                          const std::string& warm_key) const;

  int n_;
  ConeKind kind_;
  /// Borrowed session state; both may be null (standalone use).
  const ShannonProver* prover_ = nullptr;
  lp::Solver* solver_ = nullptr;
};

/// The LPs MaxIIOracle::Check solves, each in both input forms, row for row
/// and column for column the same program. The integer form exists when
/// every coefficient is an integer that fits lp::IntegerProgram (Eq. (8)
/// branches always are); Check falls back to the LpProblem form otherwise.
///
/// The Γn LP over the elemental `columns` of n variables: one equality row
/// per nonempty subset plus the convexity row Σ λ = 1, then λ_ℓ columns
/// (branch ℓ's coefficients) and y_t columns (−elemental_t).
std::optional<lp::IntegerProgram> GammaIntegerProgram(
    int n, const std::vector<ElementalColumn>& columns,
    const std::vector<LinearExpr>& branches);
lp::LpProblem GammaLpProblem(int n,
                             const std::vector<ElementalColumn>& columns,
                             const std::vector<LinearExpr>& branches);
/// The Nn/Mn violation LP: one row Σ_W c_W E_ℓ(h_W) ≤ −1 per branch, one
/// column per generator h_W, minimizing Σ_W c_W.
std::optional<lp::IntegerProgram> GeneratorIntegerProgram(
    int n, ConeKind kind, const std::vector<LinearExpr>& branches);
lp::LpProblem GeneratorLpProblem(int n, ConeKind kind,
                                 const std::vector<LinearExpr>& branches);

/// Builds the branches of "q·h(V) ≤ max_ℓ exprs[ℓ](h)" (Theorem 3.6 form):
/// branch ℓ is exprs[ℓ] - q·h(V).
std::vector<LinearExpr> BranchesForBoundedForm(
    int n, const Rational& q, const std::vector<LinearExpr>& exprs);

}  // namespace bagcq::entropy
