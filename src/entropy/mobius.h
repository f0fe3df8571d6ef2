// Möbius inversion over the superset order (Eq. (33) of the paper):
//
//   h(X) = Σ_{Y ⊇ X} g(Y)        g(X) = Σ_{Y ⊇ X} (-1)^{|Y−X|} h(Y)
//
// and Yeung's I-measure (Appendix B): the unique signed measure μ on the
// atoms of the field generated by the variable "events", with
// μ(atom with negative-variable set W) = -g(W). A grounded function is
// *normal* (a nonnegative combination of step functions, Section 3.2)
// exactly when its I-measure is nonnegative, i.e. g(X) ≤ 0 for all X ≠ V
// (Fact B.7).
//
// Nothing on the served decide path calls these: Nn/Mn counterexamples
// arrive decomposed (`MaxIIResult::decomposition`).
#pragma once

#include <map>
#include <optional>

#include "entropy/set_function.h"

namespace bagcq::entropy {

/// g from h: g(X) = Σ_{Y ⊇ X} (-1)^{|Y-X|} h(Y).
SetFunction MobiusInverse(const SetFunction& h);

/// h from g: h(X) = Σ_{Y ⊇ X} g(Y).
SetFunction MobiusForward(const SetFunction& g);

/// Yeung's I-measure of h: value of the atom whose set of *negatively*
/// occurring variables is W (for every proper subset W ⊊ V); equals -g(W).
/// The atom with W = V (all variables negative) lies outside Ω and carries
/// no mass.
std::map<VarSet, Rational> IMeasure(const SetFunction& h);

/// True iff h is a nonnegative linear combination of step functions
/// (membership in Nn): h(∅) = 0 and g(X) ≤ 0 for every X ≠ V.
bool IsNormal(const SetFunction& h);

/// The witnessing coefficients c_W ≥ 0 with h = Σ_{W ⊊ V} c_W · h_W, or
/// nullopt if h is not normal. Only nonzero coefficients are returned.
std::optional<std::map<VarSet, Rational>> NormalDecomposition(
    const SetFunction& h);

}  // namespace bagcq::entropy
