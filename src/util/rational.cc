#include "util/rational.h"

#include <algorithm>
#include <ostream>

#include "util/check.h"
#include "util/string_util.h"

namespace bagcq::util {

Rational::Rational(BigInt num, BigInt den)
    : num_(std::move(num)), den_(std::move(den)) {
  BAGCQ_CHECK(!den_.is_zero()) << "rational with zero denominator";
  Reduce();
}

void Rational::Reduce() {
  if (den_.is_negative()) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_.is_zero()) {
    den_ = BigInt(1);
    return;
  }
  BigInt g = BigInt::Gcd(num_, den_);
  if (g != BigInt(1)) {
    num_ /= g;
    den_ /= g;
  }
}

Rational Rational::FromString(std::string_view text) {
  Rational out;
  BAGCQ_CHECK(TryParse(text, &out)) << "malformed rational: " << std::string(text);
  return out;
}

bool Rational::TryParse(std::string_view text, Rational* out) {
  text = Trim(text);
  size_t slash = text.find('/');
  BigInt num, den(1);
  if (slash == std::string_view::npos) {
    if (!BigInt::TryParse(text, &num)) return false;
  } else {
    if (!BigInt::TryParse(Trim(text.substr(0, slash)), &num)) return false;
    if (!BigInt::TryParse(Trim(text.substr(slash + 1)), &den)) return false;
    if (den.is_zero()) return false;
  }
  *out = Rational(std::move(num), std::move(den));
  return true;
}

Rational Rational::operator-() const {
  Rational out = *this;
  out.num_ = -out.num_;
  return out;
}

Rational Rational::abs() const {
  Rational out = *this;
  out.num_ = out.num_.abs();
  return out;
}

Rational Rational::Inverse() const {
  BAGCQ_CHECK(!is_zero()) << "inverse of zero";
  return Rational(den_, num_);
}

Rational Rational::operator+(const Rational& other) const {
  return Rational(num_ * other.den_ + other.num_ * den_, den_ * other.den_);
}

Rational Rational::operator-(const Rational& other) const {
  return Rational(num_ * other.den_ - other.num_ * den_, den_ * other.den_);
}

Rational Rational::operator*(const Rational& other) const {
  return Rational(num_ * other.num_, den_ * other.den_);
}

Rational Rational::operator/(const Rational& other) const {
  BAGCQ_CHECK(!other.is_zero()) << "division by zero";
  return Rational(num_ * other.den_, den_ * other.num_);
}

std::strong_ordering Rational::operator<=>(const Rational& other) const {
  // Cross-multiply; denominators are positive so the comparison is preserved.
  return (num_ * other.den_) <=> (other.num_ * den_);
}

BigInt Rational::Floor() const {
  BigInt q, r;
  BigInt::DivMod(num_, den_, &q, &r);
  if (!r.is_zero() && num_.is_negative()) q -= BigInt(1);
  return q;
}

BigInt Rational::Ceil() const {
  BigInt q, r;
  BigInt::DivMod(num_, den_, &q, &r);
  if (!r.is_zero() && !num_.is_negative()) q += BigInt(1);
  return q;
}

std::string Rational::ToString() const {
  if (is_integer()) return num_.ToString();
  return num_.ToString() + "/" + den_.ToString();
}

double Rational::ToDouble() const {
  // Scale so both parts fit a double comfortably when possible.
  if (num_.FitsInt64() && den_.FitsInt64()) {
    return static_cast<double>(num_.ToInt64()) /
           static_cast<double>(den_.ToInt64());
  }
  // Past ~1024 bits a side converts to inf, and inf/inf is NaN: divide both
  // by the power of two that brings the longer one to 1000 bits.
  const size_t bits = std::max(num_.BitLength(), den_.BitLength());
  if (bits > 1000) {
    const BigInt scale = BigInt::TwoToThe(bits - 1000);
    return (num_ / scale).ToDouble() / (den_ / scale).ToDouble();
  }
  return num_.ToDouble() / den_.ToDouble();
}

std::ostream& operator<<(std::ostream& os, const Rational& value) {
  return os << value.ToString();
}

}  // namespace bagcq::util
