#include "util/bigint.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <numeric>
#include <ostream>

#include "util/check.h"

namespace bagcq::util {

using U128 = unsigned __int128;

static_assert(sizeof(BigInt) == 32, "the heap pointer shares the inline limbs");

void BigInt::Limbs::Grow(size_t capacity) {
  BAGCQ_CHECK(capacity < (size_t{1} << 31)) << "BigInt of " << capacity
                                            << " limbs";
  const auto grown = static_cast<uint32_t>(
      std::max(capacity, 2 * static_cast<size_t>(capacity_)));
  Limb* block = new Limb[grown];
  std::copy_n(data(), size_, block);
  if (on_heap()) delete[] heap_;
  heap_ = block;
  capacity_ = grown;
}

BigInt::BigInt(int64_t value)
    // Negate in unsigned space so INT64_MIN does not overflow.
    : BigInt(FromMagnitude(value < 0, value < 0
                                          ? 0 - static_cast<uint64_t>(value)
                                          : static_cast<uint64_t>(value))) {}

BigInt BigInt::FromMagnitude(bool negative, U128 magnitude) {
  BigInt out;
  out.limbs_.resize(4);
  for (int i = 0; i < 4; ++i) {
    out.limbs_[i] = static_cast<Limb>(magnitude >> (kLimbBits * i));
  }
  const auto high = static_cast<uint64_t>(magnitude >> 64);
  const int bits = high != 0 ? 64 + std::bit_width(high)
                             : std::bit_width(static_cast<uint64_t>(magnitude));
  out.limbs_.resize((bits + kLimbBits - 1) / kLimbBits);
  out.negative_ = negative && bits != 0;
  return out;
}

bool BigInt::FitsInt128() const {
  if (limbs_.size() > 4) return false;
  if (limbs_.size() < 4) return true;
  U128 magnitude = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    magnitude = (magnitude << 32) | limbs_[i];
  }
  const U128 half = static_cast<U128>(1) << 127;
  return negative_ ? magnitude <= half : magnitude < half;
}

__int128 BigInt::ToInt128() const {
  BAGCQ_CHECK(FitsInt128()) << "BigInt does not fit int128: " << ToString();
  U128 magnitude = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    magnitude = (magnitude << 32) | limbs_[i];
  }
  return negative_ ? static_cast<__int128>(~magnitude + 1)
                   : static_cast<__int128>(magnitude);
}

void BigInt::Normalize() {
  limbs_.Trim();
  if (limbs_.empty()) negative_ = false;
}

int BigInt::CompareMagnitude(const Limbs& a, const Limbs& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

BigInt::Limbs BigInt::AddMagnitude(const Limbs& a, const Limbs& b) {
  Limbs out(std::max(a.size(), b.size()));
  Wide carry = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    Wide sum = carry;
    if (i < a.size()) sum += a[i];
    if (i < b.size()) sum += b[i];
    out[i] = static_cast<Limb>(sum & 0xffffffffu);
    carry = sum >> 32;
  }
  if (carry != 0) out.push_back(static_cast<Limb>(carry));
  return out;
}

BigInt::Limbs BigInt::SubMagnitude(const Limbs& a, const Limbs& b) {
  BAGCQ_DCHECK(CompareMagnitude(a, b) >= 0);
  Limbs out(a.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += (int64_t{1} << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out[i] = static_cast<Limb>(diff);
  }
  out.Trim();
  return out;
}

BigInt::Limbs BigInt::MulMagnitude(const Limbs& a, const Limbs& b) {
  if (a.empty() || b.empty()) return {};
  Limbs out(a.size() + b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    Wide carry = 0;
    for (size_t j = 0; j < b.size(); ++j) {
      Wide cur = static_cast<Wide>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<Limb>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    size_t k = i + b.size();
    while (carry != 0) {
      Wide cur = static_cast<Wide>(out[k]) + carry;
      out[k] = static_cast<Limb>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  out.Trim();
  return out;
}

// Knuth TAOCP vol. 2, Algorithm 4.3.1 D, base 2^32.
void BigInt::DivModMagnitude(const Limbs& a, const Limbs& b,
                             Limbs* quotient, Limbs* remainder) {
  BAGCQ_CHECK(!b.empty()) << "division by zero";
  if (CompareMagnitude(a, b) < 0) {
    *quotient = Limbs();
    *remainder = a;
    return;
  }
  if (b.size() == 1) {
    // Short division.
    Limbs q(a.size());
    Wide rem = 0;
    for (size_t i = a.size(); i-- > 0;) {
      Wide cur = (rem << 32) | a[i];
      q[i] = static_cast<Limb>(cur / b[0]);
      rem = cur % b[0];
    }
    q.Trim();
    *quotient = std::move(q);
    *remainder = Limbs();
    if (rem != 0) remainder->push_back(static_cast<Limb>(rem));
    return;
  }

  // D1: normalize so the divisor's top limb has its high bit set.
  int shift = 0;
  for (Limb top = b.back(); (top & 0x80000000u) == 0; top <<= 1) ++shift;
  auto shl = [shift](const Limbs& v) {
    if (shift == 0) return v;
    Limbs out(v.size() + 1);
    for (size_t i = 0; i < v.size(); ++i) {
      out[i] |= v[i] << shift;
      out[i + 1] = static_cast<Limb>(static_cast<Wide>(v[i]) >> (32 - shift));
    }
    out.Trim();
    return out;
  };
  Limbs u = shl(a);
  Limbs v = shl(b);
  const size_t n = v.size();
  const size_t m = u.size() - n;
  u.resize(u.size() + 1);  // u has m+n+1 limbs

  Limbs q(m + 1);
  const Wide v_top = v[n - 1];
  const Wide v_second = v[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    // D3: estimate q_hat.
    Wide numerator = (static_cast<Wide>(u[j + n]) << 32) | u[j + n - 1];
    Wide q_hat = numerator / v_top;
    Wide r_hat = numerator % v_top;
    while (q_hat > 0xffffffffu ||
           q_hat * v_second > ((r_hat << 32) | u[j + n - 2])) {
      --q_hat;
      r_hat += v_top;
      if (r_hat > 0xffffffffu) break;
    }
    // D4: multiply-and-subtract u[j..j+n] -= q_hat * v.
    int64_t borrow = 0;
    Wide carry = 0;
    for (size_t i = 0; i < n; ++i) {
      Wide product = q_hat * v[i] + carry;
      carry = product >> 32;
      int64_t diff = static_cast<int64_t>(u[i + j]) -
                     static_cast<int64_t>(product & 0xffffffffu) - borrow;
      if (diff < 0) {
        diff += (int64_t{1} << 32);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<Limb>(diff);
    }
    int64_t top_diff = static_cast<int64_t>(u[j + n]) -
                       static_cast<int64_t>(carry) - borrow;
    if (top_diff < 0) {
      // D6: estimate was one too large; add back.
      top_diff += (int64_t{1} << 32);
      --q_hat;
      Wide add_carry = 0;
      for (size_t i = 0; i < n; ++i) {
        Wide sum = static_cast<Wide>(u[i + j]) + v[i] + add_carry;
        u[i + j] = static_cast<Limb>(sum & 0xffffffffu);
        add_carry = sum >> 32;
      }
      top_diff += static_cast<int64_t>(add_carry);
      top_diff &= 0xffffffff;
    }
    u[j + n] = static_cast<Limb>(top_diff);
    q[j] = static_cast<Limb>(q_hat);
  }

  q.Trim();
  *quotient = std::move(q);

  // D8: denormalize the remainder.
  u.resize(n);
  if (shift != 0) {
    for (size_t i = 0; i < n; ++i) {
      u[i] >>= shift;
      if (i + 1 < n) {
        u[i] |= static_cast<Limb>(static_cast<Wide>(u[i + 1])
                                  << (32 - shift));
      }
    }
  }
  u.Trim();
  *remainder = std::move(u);
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.is_zero()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::abs() const {
  BigInt out = *this;
  out.negative_ = false;
  return out;
}

BigInt BigInt::Add(const BigInt& a, const BigInt& b, bool b_negative) {
  if (a.limbs_.size() <= 2 && b.limbs_.size() <= 2) {
    const uint64_t x = a.Low64();
    const uint64_t y = b.Low64();
    if (a.negative_ == b_negative) return FromMagnitude(b_negative, U128{x} + y);
    return x >= y ? FromMagnitude(a.negative_, x - y)
                  : FromMagnitude(b_negative, y - x);
  }
  BigInt out;
  if (a.negative_ == b_negative) {
    out.limbs_ = AddMagnitude(a.limbs_, b.limbs_);
    out.negative_ = b_negative;
  } else if (CompareMagnitude(a.limbs_, b.limbs_) >= 0) {
    out.limbs_ = SubMagnitude(a.limbs_, b.limbs_);
    out.negative_ = a.negative_;
  } else {
    out.limbs_ = SubMagnitude(b.limbs_, a.limbs_);
    out.negative_ = b_negative;
  }
  out.Normalize();
  return out;
}

BigInt BigInt::operator+(const BigInt& other) const {
  return Add(*this, other, other.negative_);
}

BigInt BigInt::operator-(const BigInt& other) const {
  return Add(*this, other, !other.negative_);
}

BigInt BigInt::operator*(const BigInt& other) const {
  if (limbs_.size() <= 2 && other.limbs_.size() <= 2) {
    return FromMagnitude(negative_ != other.negative_,
                         U128{Low64()} * other.Low64());
  }
  BigInt out;
  out.limbs_ = MulMagnitude(limbs_, other.limbs_);
  out.negative_ = negative_ != other.negative_;
  out.Normalize();
  return out;
}

void BigInt::DivMod(const BigInt& dividend, const BigInt& divisor,
                    BigInt* quotient, BigInt* remainder) {
  const bool quotient_negative = dividend.negative_ != divisor.negative_;
  const bool remainder_negative = dividend.negative_;
  if (dividend.limbs_.size() <= 2 && divisor.limbs_.size() <= 2) {
    const uint64_t a = dividend.Low64();
    const uint64_t b = divisor.Low64();
    BAGCQ_CHECK(b != 0) << "division by zero";
    *quotient = FromMagnitude(quotient_negative, a / b);
    *remainder = FromMagnitude(remainder_negative, a % b);
    return;
  }
  BigInt q, r;
  DivModMagnitude(dividend.limbs_, divisor.limbs_, &q.limbs_, &r.limbs_);
  q.negative_ = quotient_negative;
  r.negative_ = remainder_negative;
  q.Normalize();
  r.Normalize();
  *quotient = std::move(q);
  *remainder = std::move(r);
}

BigInt BigInt::operator/(const BigInt& other) const {
  BigInt q, r;
  DivMod(*this, other, &q, &r);
  return q;
}

BigInt BigInt::operator%(const BigInt& other) const {
  BigInt q, r;
  DivMod(*this, other, &q, &r);
  return r;
}

std::strong_ordering BigInt::operator<=>(const BigInt& other) const {
  if (negative_ != other.negative_) {
    return negative_ ? std::strong_ordering::less : std::strong_ordering::greater;
  }
  int cmp = CompareMagnitude(limbs_, other.limbs_);
  if (negative_) cmp = -cmp;
  if (cmp < 0) return std::strong_ordering::less;
  if (cmp > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

BigInt BigInt::FromString(std::string_view text) {
  BigInt out;
  BAGCQ_CHECK(TryParse(text, &out)) << "malformed integer: " << std::string(text);
  return out;
}

bool BigInt::TryParse(std::string_view text, BigInt* out) {
  bool negative = false;
  if (!text.empty() && (text[0] == '-' || text[0] == '+')) {
    negative = text[0] == '-';
    text.remove_prefix(1);
  }
  if (text.empty()) return false;
  BigInt value;
  // Nine digits per pass: value = value * 10^k + chunk, in place.
  for (size_t pos = 0; pos < text.size();) {
    Wide scale = 1;
    Wide carry = 0;
    for (const size_t end = std::min(pos + 9, text.size()); pos < end; ++pos) {
      const char c = text[pos];
      if (c < '0' || c > '9') return false;
      scale *= 10;
      carry = carry * 10 + static_cast<Wide>(c - '0');
    }
    Limb* limbs = value.limbs_.data();
    for (size_t i = 0; i < value.limbs_.size(); ++i) {
      const Wide cur = limbs[i] * scale + carry;
      limbs[i] = static_cast<Limb>(cur);
      carry = cur >> kLimbBits;
    }
    if (carry != 0) value.limbs_.push_back(static_cast<Limb>(carry));
  }
  value.negative_ = negative && !value.is_zero();
  *out = std::move(value);
  return true;
}

BigInt BigInt::TwoToThe(uint64_t exponent) {
  BigInt out;
  out.limbs_.resize(exponent / 32 + 1);
  out.limbs_[exponent / 32] = Limb{1} << (exponent % 32);
  return out;
}

BigInt BigInt::Pow(const BigInt& base, uint64_t exponent) {
  BigInt result(1);
  BigInt acc = base;
  while (exponent != 0) {
    if (exponent & 1) result *= acc;
    exponent >>= 1;
    if (exponent != 0) acc *= acc;
  }
  return result;
}

BigInt BigInt::Gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  while (!b.is_zero()) {
    if (a.limbs_.size() <= 2 && b.limbs_.size() <= 2) {
      return FromMagnitude(false, std::gcd(a.Low64(), b.Low64()));
    }
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::Lcm(const BigInt& a, const BigInt& b) {
  if (a.is_zero() || b.is_zero()) return BigInt(0);
  return (a.abs() / Gcd(a, b)) * b.abs();
}

std::string BigInt::ToString() const {
  if (limbs_.size() <= 2) {
    char buffer[21];  // a sign and the 20 digits of 2^64 - 1
    char* end = buffer;
    if (negative_) *end++ = '-';
    end = std::to_chars(end, buffer + sizeof(buffer), Low64()).ptr;
    return std::string(buffer, end);
  }
  // Repeated division by 10^9 (fits a limb), least significant digits first.
  std::string out;
  Limbs current = limbs_;
  const Limb kChunk = 1000000000u;
  while (!current.empty()) {
    Wide rem = 0;
    for (size_t i = current.size(); i-- > 0;) {
      Wide cur = (rem << 32) | current[i];
      current[i] = static_cast<Limb>(cur / kChunk);
      rem = cur % kChunk;
    }
    current.Trim();
    for (int digit = 0; digit < 9; ++digit, rem /= 10) {
      out.push_back(static_cast<char>('0' + rem % 10));
    }
  }
  while (out.back() == '0') out.pop_back();
  if (negative_) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

double BigInt::ToDouble() const {
  double out = 0.0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    out = out * 4294967296.0 + static_cast<double>(limbs_[i]);
  }
  return negative_ ? -out : out;
}

double BigInt::Log2Abs() const {
  BAGCQ_CHECK(!is_zero()) << "log2(0)";
  // Use the top 64 bits for the mantissa, the rest contributes exponent.
  size_t bits = BitLength();
  if (bits <= 63) return std::log2(std::abs(ToDouble()));
  // value = top_part * 2^(bits-64) approximately.
  double top = 0.0;
  size_t top_limb = limbs_.size() - 1;
  for (size_t i = 0; i < 3 && i <= top_limb; ++i) {
    top = top * 4294967296.0 + static_cast<double>(limbs_[top_limb - i]);
  }
  size_t consumed = std::min<size_t>(3, limbs_.size()) * 32;
  return std::log2(top) + static_cast<double>((limbs_.size() * 32) - consumed);
}

bool BigInt::FitsInt64() const {
  if (limbs_.size() > 2) return false;
  const uint64_t half = uint64_t{1} << 63;
  return negative_ ? Low64() <= half : Low64() < half;
}

int64_t BigInt::ToInt64() const {
  BAGCQ_CHECK(FitsInt64()) << "BigInt does not fit int64: " << ToString();
  // Negate in unsigned space so INT64_MIN round-trips without UB.
  return negative_ ? static_cast<int64_t>(0 - Low64())
                   : static_cast<int64_t>(Low64());
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  size_t bits = (limbs_.size() - 1) * 32;
  Limb top = limbs_.back();
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::IsPowerOfTwo() const {
  if (is_zero()) return false;
  for (size_t i = 0; i + 1 < limbs_.size(); ++i) {
    if (limbs_[i] != 0) return false;
  }
  Limb top = limbs_.back();
  return (top & (top - 1)) == 0;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.ToString();
}

}  // namespace bagcq::util
