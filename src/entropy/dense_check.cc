#include "entropy/dense_check.h"

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bigint.h"

namespace bagcq::entropy::dense {

using util::BigInt;
using util::Rational;

// Each operation returns false when the exact result does not fit.
struct Int128Ops {
  using T = __int128;
  static bool From(const BigInt& v, T* out) {
    if (!v.FitsInt128()) return false;
    *out = v.ToInt128();
    return true;
  }
  static bool Add(T a, T b, T* out) {
    return !__builtin_add_overflow(a, b, out);
  }
  static bool Sub(T a, T b, T* out) {
    return !__builtin_sub_overflow(a, b, out);
  }
  static bool Mul(T a, T b, T* out) {
    return !__builtin_mul_overflow(a, b, out);
  }
  // For a, b > 0.
  static T Gcd(T a, T b) {
    auto x = static_cast<unsigned __int128>(a);
    auto y = static_cast<unsigned __int128>(b);
    while (y != 0) {
      const unsigned __int128 rest = x % y;
      x = y;
      y = rest;
    }
    return static_cast<T>(x);
  }
};

struct BigOps {
  using T = BigInt;
  static bool From(const BigInt& v, T* out) {
    *out = v;
    return true;
  }
  static bool Add(const T& a, const T& b, T* out) {
    *out = a + b;
    return true;
  }
  static bool Sub(const T& a, const T& b, T* out) {
    *out = a - b;
    return true;
  }
  static bool Mul(const T& a, const T& b, T* out) {
    *out = a * b;
    return true;
  }
  static T Gcd(const T& a, const T& b) { return BigInt::Gcd(a, b); }
};

namespace {

// Σ_ℓ (D·λ_ℓ)·(B·E_ℓ), term by term: D is the common denominator of every
// weight added, B that of the branch coefficients.
template <typename Ops>
class ScaledSum {
 public:
  using T = typename Ops::T;

  // D = lcm(D, den(weight)). Every weight is added before any is scaled.
  bool AddWeight(const Rational& weight) { return LcmInto(weight.den(), &d_); }

  // D·weight, an integer.
  bool Scale(const Rational& weight, T* out) const {
    T num, den;
    return Ops::From(weight.num(), &num) && Ops::From(weight.den(), &den) &&
           Ops::Mul(num, d_ / den, out);
  }

  // Sets B, then calls emit(X, (D·λ_ℓ)·(B·c)) for each term c·h(X) of each
  // branch ℓ with λ_ℓ ≠ 0. emit returns false when a sum overflowed.
  template <typename Emit>
  bool ForEachTerm(std::span<const LinearExpr> branches,
                   std::span<const Rational> lambda, Emit&& emit) {
    for (size_t l = 0; l < branches.size(); ++l) {
      if (lambda[l].is_zero()) continue;
      for (const auto& [x, c] : branches[l].terms()) {
        if (!LcmInto(c.den(), &b_)) return false;
      }
    }
    for (size_t l = 0; l < branches.size(); ++l) {
      if (lambda[l].is_zero()) continue;
      T weight;
      if (!Scale(lambda[l], &weight)) return false;
      for (const auto& [x, c] : branches[l].terms()) {
        T num, den, coeff, value;
        if (!Ops::From(c.num(), &num) || !Ops::From(c.den(), &den) ||
            !Ops::Mul(num, b_ / den, &coeff) ||
            !Ops::Mul(weight, coeff, &value) || !emit(x, value)) {
          return false;
        }
      }
    }
    return true;
  }

  const T& branch_scale() const { return b_; }

 private:
  // *scale = lcm(*scale, den), for den > 0.
  static bool LcmInto(const BigInt& den, T* scale) {
    T d;
    if (!Ops::From(den, &d)) return false;
    if (d == T{1}) return true;
    return Ops::Mul(*scale / Ops::Gcd(*scale, d), d, scale);
  }

  T d_{1};
  T b_{1};
};

// The variable count the branches share, or −1 when there is none to check
// against: no branches, not one weight per branch, branches over different
// variable counts, or a term outside them.
int CommonVars(std::span<const LinearExpr> branches,
               std::span<const Rational> lambda) {
  if (branches.empty() || branches.size() != lambda.size()) return -1;
  const int n = branches[0].num_vars();
  const VarSet full = VarSet::Full(n);
  for (const LinearExpr& e : branches) {
    if (e.num_vars() != n) return -1;
    for (const auto& [x, c] : e.terms()) {
      if (!x.IsSubsetOf(full)) return -1;
    }
  }
  return n;
}

// Whether e's indices lie among n variables. (The wire decoder checks an
// elemental's shape, not its range.)
bool WithinVars(const ElementalInequality& e, int n) {
  if (e.i < 0 || e.i >= n) return false;
  if (e.kind == ElementalInequality::Kind::kMonotonicity) return true;
  return e.j >= 0 && e.j < n && e.k.IsSubsetOf(VarSet::Full(n));
}

}  // namespace

template <typename Ops>
std::optional<bool> NonnegativeOnStepsIn(std::span<const LinearExpr> branches,
                                         std::span<const Rational> lambda,
                                         bool co_singletons) {
  using T = typename Ops::T;
  const int n = CommonVars(branches, lambda);
  if (n < 0) return false;
  ScaledSum<Ops> sum;
  for (const Rational& weight : lambda) {
    if (!sum.AddWeight(weight)) return std::nullopt;
  }
  if (co_singletons) {
    // E(h_{V−i}) = Σ_{X ∋ i} c[X], one entry per variable.
    std::vector<T> value(n);
    const bool fits =
        sum.ForEachTerm(branches, lambda, [&value](VarSet x, const T& c) {
          for (uint64_t m = x.mask(); m != 0; m &= m - 1) {
            T& slot = value[__builtin_ctzll(m)];
            if (!Ops::Add(slot, c, &slot)) return false;
          }
          return true;
        });
    if (!fits) return std::nullopt;
    for (const T& v : value) {
      if (v < T{}) return false;
    }
    return true;
  }
  std::vector<T> z(size_t{1} << n);
  const bool fits =
      sum.ForEachTerm(branches, lambda, [&z](VarSet x, const T& c) {
        T& slot = z[x.mask()];
        return Ops::Add(slot, c, &slot);
      });
  if (!fits) return std::nullopt;
  // Zeta transform: z[W] becomes Σ_{X ⊆ W} c[X]. The inner loop visits
  // every W holding `bit`, in ascending order.
  for (size_t bit = 1; bit < z.size(); bit <<= 1) {
    for (size_t w = bit; w < z.size(); w = (w + 1) | bit) {
      if (!Ops::Add(z[w], z[w ^ bit], &z[w])) return std::nullopt;
    }
  }
  // E(h_W) = z[V] − z[W] ≥ 0, compared without a subtraction.
  const T& total = z.back();
  for (size_t w = 0; w + 1 < z.size(); ++w) {
    if (total < z[w]) return false;
  }
  return true;
}

template <typename Ops>
std::optional<bool> EqualsElementalSumIn(
    std::span<const LinearExpr> branches, std::span<const Rational> lambda,
    std::span<const std::pair<ElementalInequality, Rational>> combination) {
  using T = typename Ops::T;
  const int n = CommonVars(branches, lambda);
  if (n < 0 || n > kMaxCertificateVars) return false;
  ScaledSum<Ops> sum;
  for (const Rational& weight : lambda) {
    if (!sum.AddWeight(weight)) return std::nullopt;
  }
  for (const auto& [elemental, weight] : combination) {
    if (weight.sign() <= 0 || !WithinVars(elemental, n)) return false;
    if (!sum.AddWeight(weight)) return std::nullopt;
  }
  // v[X] = D·B·(Σ_ℓ λ_ℓ·(E_ℓ)_X − Σ_t y_t·elemental_t[X]) must vanish.
  std::vector<T> v(size_t{1} << n);
  const bool fits =
      sum.ForEachTerm(branches, lambda, [&v](VarSet x, const T& c) {
        T& slot = v[x.mask()];
        return Ops::Add(slot, c, &slot);
      });
  if (!fits) return std::nullopt;
  for (const auto& [elemental, weight] : combination) {
    T scaled;
    if (!sum.Scale(weight, &scaled) ||
        !Ops::Mul(scaled, sum.branch_scale(), &scaled)) {
      return std::nullopt;
    }
    const ElementalColumn column = ElementalColumnOf(n, elemental);
    for (int q = 0; q < column.size; ++q) {
      T& slot = v[column.row[q] + 1];
      if (!(column.coeff[q] > 0 ? Ops::Sub(slot, scaled, &slot)
                                : Ops::Add(slot, scaled, &slot))) {
        return std::nullopt;
      }
    }
  }
  for (const T& value : v) {
    if (!(value == T{})) return false;
  }
  return true;
}

template std::optional<bool> NonnegativeOnStepsIn<Int128Ops>(
    std::span<const LinearExpr>, std::span<const Rational>, bool);
template std::optional<bool> NonnegativeOnStepsIn<BigOps>(
    std::span<const LinearExpr>, std::span<const Rational>, bool);
template std::optional<bool> EqualsElementalSumIn<Int128Ops>(
    std::span<const LinearExpr>, std::span<const Rational>,
    std::span<const std::pair<ElementalInequality, Rational>>);
template std::optional<bool> EqualsElementalSumIn<BigOps>(
    std::span<const LinearExpr>, std::span<const Rational>,
    std::span<const std::pair<ElementalInequality, Rational>>);

bool NonnegativeOnSteps(std::span<const LinearExpr> branches,
                        std::span<const Rational> lambda, bool co_singletons) {
  if (const std::optional<bool> verdict =
          NonnegativeOnStepsIn<Int128Ops>(branches, lambda, co_singletons)) {
    return *verdict;
  }
  return *NonnegativeOnStepsIn<BigOps>(branches, lambda, co_singletons);
}

bool EqualsElementalSum(
    std::span<const LinearExpr> branches, std::span<const Rational> lambda,
    std::span<const std::pair<ElementalInequality, Rational>> combination) {
  if (const std::optional<bool> verdict =
          EqualsElementalSumIn<Int128Ops>(branches, lambda, combination)) {
    return *verdict;
  }
  return *EqualsElementalSumIn<BigOps>(branches, lambda, combination);
}

}  // namespace bagcq::entropy::dense
