// Elemental Shannon inequalities (Yeung): the minimal generating set of the
// polymatroid cone Γn,
//
//   monotonicity   h(X_i | X_{V−i}) ≥ 0                      (n of them)
//   submodularity  I(X_i ; X_j | X_K) ≥ 0  for i<j, K ⊆ V−{i,j}
//                                                  (C(n,2)·2^{n−2} of them)
//
// Every Shannon inequality — every linear inequality valid on Γn — is a
// nonnegative combination of these; that combination is exactly what the
// prover's LP dual produces as a certificate.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "entropy/linear_expr.h"

namespace bagcq::entropy {

/// One elemental inequality, "expr ≥ 0".
struct ElementalInequality {
  enum class Kind { kMonotonicity, kSubmodularity };

  Kind kind;
  int i = -1;     // both kinds
  int j = -1;     // submodularity only
  VarSet k;       // submodularity only: the conditioning set

  LinearExpr ToExpr(int n) const;
  /// "h(X2|X0,X1) >= 0" or "I(X0;X1|X2) >= 0".
  std::string ToString(int n, const std::vector<std::string>& names) const;
};

/// All elemental inequalities over n variables, in a deterministic order.
std::vector<ElementalInequality> ElementalInequalities(int n);

/// One elemental inequality as a sparse LP column: its nonzero coefficients
/// on the subset rows, where row s − 1 holds h(X) for the subset X of mask
/// s. Monotonicity has one or two terms and submodularity three or four,
/// each ±1, in ascending row order.
struct ElementalColumn {
  std::array<uint32_t, 4> row{};
  std::array<int8_t, 4> coeff{};
  int size = 0;
};

/// One elemental's column over n variables, computed from its (i, j, K)
/// masks. For indices in 0..n−1 and K inside them its terms sum to
/// ToExpr(n); for a well-formed elemental (i < j, both outside K) they are
/// ToExpr's terms, in ascending row order.
ElementalColumn ElementalColumnOf(int n, const ElementalInequality& e);

/// `elementals` (over n variables) as columns, in the same order: the
/// constraint matrix every LP over Γn shares.
std::vector<ElementalColumn> ElementalColumns(
    int n, const std::vector<ElementalInequality>& elementals);

/// An exact decomposition  h(V) = Σ_t weight_t · elemental_t  (all weights 1),
/// via the entropy chain rule. Used to fold the residual μ·h(V) of a prover
/// run into a purely-elemental certificate.
std::vector<std::pair<ElementalInequality, Rational>> DecomposeFullEntropy(
    int n);

}  // namespace bagcq::entropy
