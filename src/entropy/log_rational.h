// Exact arithmetic over numbers of the form Σ_i q_i · log2(m_i) with
// rational q_i and positive integer bases m_i.
//
// Entropies of uniform distributions live in this ring: for P with N tuples,
// H(X) = log2(N) - (1/N) Σ_v c_v log2(c_v). Deciding the sign of a linear
// combination of such entropies is exactly the power-product comparison in
// the proof of Lemma B.9 ("Max-IIP is co-r.e."):
//
//     Σ q_i log2(m_i) ≥ 0   ⟺   Π m_i^{q_i·D} ≥ 1   (D = common denominator)
//
// evaluated with big integers, so the counterexample searcher gives exact
// verdicts with no floating point anywhere.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "entropy/linear_expr.h"
#include "entropy/relation.h"
#include "util/rational.h"

namespace bagcq::entropy {

using util::Rational;

/// Exact Σ q_i log2(m_i); value semantics.
class LogRational {
 public:
  /// Zero.
  LogRational() = default;
  /// q · log2(m); CHECK-fails for m < 1.
  static LogRational Log2(int64_t m, const Rational& q = Rational(1));

  bool is_zero_expression() const { return terms_.empty(); }
  const std::map<int64_t, Rational>& terms() const { return terms_; }

  LogRational operator+(const LogRational& other) const;
  LogRational operator-(const LogRational& other) const;
  LogRational operator*(const Rational& scale) const;
  LogRational operator-() const { return *this * Rational(-1); }

  /// Exact sign via big-integer power products: -1, 0, or +1.
  int Sign() const;
  std::strong_ordering operator<=>(const LogRational& other) const {
    int s = (*this - other).Sign();
    if (s < 0) return std::strong_ordering::less;
    if (s > 0) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }
  bool operator==(const LogRational& other) const {
    return (*this <=> other) == std::strong_ordering::equal;
  }

  double ToDouble() const;
  /// E.g. "log2(6) - 1/2*log2(3)".
  std::string ToString() const;

 private:
  // base -> coefficient; bases ≥ 2 only (log2(1) = 0), zero coeffs pruned.
  std::map<int64_t, Rational> terms_;
};

/// Exact entropy vector of the uniform distribution on a relation:
/// one LogRational per subset of variables.
class LogSetFunction {
 public:
  explicit LogSetFunction(const Relation& p);

  int num_vars() const { return n_; }
  const LogRational& operator[](util::VarSet s) const {
    return values_[s.mask()];
  }

  /// Exact evaluation of a linear entropy expression.
  LogRational Evaluate(const LinearExpr& e) const;

 private:
  int n_;
  std::vector<LogRational> values_;
};

}  // namespace bagcq::entropy
