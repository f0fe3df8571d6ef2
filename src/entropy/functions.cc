#include "entropy/functions.h"

#include <utility>

#include "util/bigint.h"
#include "util/check.h"

namespace bagcq::entropy {

using util::BigInt;

SetFunction StepFunction(int n, VarSet w) {
  return NormalFunction(n, {{w, Rational(1)}});
}

SetFunction ModularFunction(const std::vector<Rational>& weights) {
  int n = static_cast<int>(weights.size());
  SetFunction h(n);
  for (uint32_t s = 1; s < (1u << n); ++s) {
    Rational sum;
    for (int i = 0; i < n; ++i) {
      if ((s >> i) & 1u) sum += weights[i];
    }
    h[VarSet(s)] = sum;
  }
  return h;
}

SetFunction NormalFunction(int n, const std::map<VarSet, Rational>& coeffs) {
  const VarSet full = VarSet::Full(n);
  // c·h_W adds c at every X ⊄ W. Over the common denominator L of the c_W,
  // h(X) = (Σ_{W : X ⊄ W} L·c_W) / L: one integer sum per set, and one
  // Rational per distinct sum.
  BigInt den(1);
  for (const auto& [w, c] : coeffs) {
    BAGCQ_CHECK(c.sign() >= 0) << "normal coefficients must be nonnegative";
    BAGCQ_CHECK(w.IsSubsetOf(full) && w != full)
        << "step function requires W to be a proper subset of V";
    if (!c.is_zero()) den = BigInt::Lcm(den, c.den());
  }
  std::vector<std::pair<VarSet, BigInt>> steps;
  for (const auto& [w, c] : coeffs) {
    if (!c.is_zero()) steps.emplace_back(w, c.num() * (den / c.den()));
  }
  SetFunction h(n);
  if (steps.empty()) return h;
  std::map<BigInt, Rational> value_of_sum;
  for (uint32_t s = 1; s < (1u << n); ++s) {
    BigInt sum;
    for (const auto& [w, numer] : steps) {
      if (!VarSet(s).IsSubsetOf(w)) sum += numer;
    }
    auto it = value_of_sum.find(sum);
    if (it == value_of_sum.end()) {
      it = value_of_sum.emplace(sum, Rational(sum, den)).first;
    }
    h[VarSet(s)] = it->second;
  }
  return h;
}

SetFunction ParityFunction() {
  return GF2RankFunction({0b01, 0b10, 0b11});
}

SetFunction GF2RankFunction(const std::vector<uint64_t>& columns) {
  int n = static_cast<int>(columns.size());
  SetFunction h(n);
  for (uint32_t s = 1; s < (1u << n); ++s) {
    // GF(2) rank via an echelon basis indexed by leading-bit position.
    uint64_t basis[64] = {};
    int rank = 0;
    for (int i = 0; i < n; ++i) {
      if (((s >> i) & 1u) == 0) continue;
      uint64_t v = columns[i];
      for (int bit = 63; bit >= 0 && v != 0; --bit) {
        if (((v >> bit) & 1u) == 0) continue;
        if (basis[bit] == 0) {
          basis[bit] = v;
          ++rank;
          v = 0;
        } else {
          v ^= basis[bit];
        }
      }
    }
    h[VarSet(s)] = Rational(rank);
  }
  return h;
}

}  // namespace bagcq::entropy
