#include "entropy/log_rational.h"

#include <cmath>
#include <sstream>

#include "util/bigint.h"
#include "util/check.h"

namespace bagcq::entropy {

using util::BigInt;

LogRational LogRational::Log2(int64_t m, const Rational& q) {
  BAGCQ_CHECK_GE(m, 1) << "log2 of nonpositive integer";
  LogRational out;
  if (m > 1 && !q.is_zero()) out.terms_[m] = q;
  return out;
}

LogRational LogRational::operator+(const LogRational& other) const {
  LogRational out = *this;
  for (const auto& [base, coeff] : other.terms_) {
    Rational& slot = out.terms_[base];
    slot += coeff;
    if (slot.is_zero()) out.terms_.erase(base);
  }
  return out;
}

LogRational LogRational::operator-(const LogRational& other) const {
  return *this + (other * Rational(-1));
}

LogRational LogRational::operator*(const Rational& scale) const {
  LogRational out;
  if (scale.is_zero()) return out;
  for (const auto& [base, coeff] : terms_) out.terms_[base] = coeff * scale;
  return out;
}

int LogRational::Sign() const {
  if (terms_.empty()) return 0;
  // Common denominator D, then compare Π base^{num·D/den} against 1:
  // positive-exponent product vs negative-exponent product.
  BigInt d(1);
  for (const auto& [base, coeff] : terms_) {
    d = BigInt::Lcm(d, coeff.den());
  }
  BigInt positive(1), negative(1);
  for (const auto& [base, coeff] : terms_) {
    BigInt exponent = coeff.num() * (d / coeff.den());
    if (exponent.is_zero()) continue;
    uint64_t e = static_cast<uint64_t>(exponent.abs().ToInt64());
    BigInt power = BigInt::Pow(BigInt(base), e);
    if (exponent.is_negative()) {
      negative *= power;
    } else {
      positive *= power;
    }
  }
  auto cmp = positive <=> negative;
  if (cmp == std::strong_ordering::less) return -1;
  if (cmp == std::strong_ordering::greater) return 1;
  return 0;
}

double LogRational::ToDouble() const {
  double out = 0.0;
  for (const auto& [base, coeff] : terms_) {
    out += coeff.ToDouble() * std::log2(static_cast<double>(base));
  }
  return out;
}

std::string LogRational::ToString() const {
  if (terms_.empty()) return "0";
  std::ostringstream os;
  bool first = true;
  for (const auto& [base, coeff] : terms_) {
    if (coeff.sign() > 0) {
      if (!first) os << " + ";
    } else {
      os << (first ? "-" : " - ");
    }
    Rational a = coeff.abs();
    if (a != Rational(1)) os << a << "*";
    os << "log2(" << base << ")";
    first = false;
  }
  return os.str();
}

LogSetFunction::LogSetFunction(const Relation& p) : n_(p.num_vars()) {
  values_.resize(size_t{1} << n_);
  const int64_t total = p.size();
  BAGCQ_CHECK_GT(total, 0) << "entropy of an empty relation";
  const Rational inv_n(1, total);
  for (uint32_t s = 1; s < (1u << n_); ++s) {
    // H(X) = log2(N) - (1/N) Σ_v c_v log2(c_v).
    LogRational h = LogRational::Log2(total);
    for (const auto& [proj, count] : p.ProjectionCounts(util::VarSet(s))) {
      h = h - LogRational::Log2(count, Rational(count) * inv_n);
    }
    values_[s] = h;
  }
}

LogRational LogSetFunction::Evaluate(const LinearExpr& e) const {
  BAGCQ_CHECK_EQ(e.num_vars(), n_);
  LogRational out;
  for (const auto& [x, c] : e.terms()) {
    out = out + values_[x.mask()] * c;
  }
  return out;
}

}  // namespace bagcq::entropy
