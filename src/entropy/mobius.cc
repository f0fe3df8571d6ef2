#include "entropy/mobius.h"

namespace bagcq::entropy {

namespace {

// Superset zeta transform: out(X) = Σ_{Y ⊇ X} in(Y), computed in place per
// dimension in O(n 2^n).
SetFunction SupersetZeta(const SetFunction& in) {
  int n = in.num_vars();
  SetFunction out = in;
  for (int i = 0; i < n; ++i) {
    uint32_t bit = 1u << i;
    for (uint32_t s = (1u << n); s-- > 0;) {
      if ((s & bit) == 0) {
        out[VarSet(s)] += out[VarSet(s | bit)];
      }
    }
  }
  return out;
}

// Superset Möbius transform (inverse of SupersetZeta).
SetFunction SupersetMobius(const SetFunction& in) {
  int n = in.num_vars();
  SetFunction out = in;
  for (int i = 0; i < n; ++i) {
    uint32_t bit = 1u << i;
    for (uint32_t s = (1u << n); s-- > 0;) {
      if ((s & bit) == 0) {
        out[VarSet(s)] -= out[VarSet(s | bit)];
      }
    }
  }
  return out;
}

}  // namespace

SetFunction MobiusInverse(const SetFunction& h) { return SupersetMobius(h); }

SetFunction MobiusForward(const SetFunction& g) { return SupersetZeta(g); }

std::map<VarSet, Rational> IMeasure(const SetFunction& h) {
  SetFunction g = MobiusInverse(h);
  std::map<VarSet, Rational> mu;
  VarSet full = h.universe();
  ForEachSubset(full, [&](VarSet w) {
    if (w == full) return;  // atom outside Ω
    mu[w] = -g[w];
  });
  return mu;
}

bool IsNormal(const SetFunction& h) {
  return NormalDecomposition(h).has_value();
}

std::optional<std::map<VarSet, Rational>> NormalDecomposition(
    const SetFunction& h) {
  // For grounded h, Möbius inversion gives h = Σ_{W ⊊ V} −g(W)·h_W exactly,
  // so h is normal iff every −g(W) is nonnegative (Fact B.7).
  if (!h.IsGrounded()) return std::nullopt;
  SetFunction g = MobiusInverse(h);
  std::map<VarSet, Rational> coeffs;
  for (uint32_t w = 0; w + 1 < (1u << h.num_vars()); ++w) {
    if (g[VarSet(w)].sign() > 0) return std::nullopt;
    if (!g[VarSet(w)].is_zero()) coeffs[VarSet(w)] = -g[VarSet(w)];
  }
  return coeffs;
}

}  // namespace bagcq::entropy
