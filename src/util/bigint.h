// Arbitrary-precision signed integers.
//
// The exact simplex solver and the entropy machinery need integers far beyond
// 64 bits (tableau entries blow up multiplicatively; witness certificates
// compare numbers like 2^(k·h(V))). Representation: sign + little-endian
// base-2^32 magnitude, with no high zero limb, no limbs for zero and no
// negative zero. Up to four limbs are stored inline, so every magnitude below
// 2^128 lives in the object itself and only longer ones allocate. When both
// magnitudes fit 64 bits, + - * run natively through unsigned __int128,
// DivMod / % through uint64_t, Gcd through std::gcd and ToString through
// std::to_chars. Longer division is Knuth's Algorithm D.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>

namespace bagcq::util {

/// Arbitrary-precision signed integer with value semantics.
class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  /// From a machine integer.
  BigInt(int64_t value);  // NOLINT: implicit by design, mirrors int semantics

  /// Parse a decimal string with optional leading '-'. CHECK-fails on
  /// malformed input; use TryParse for untrusted text.
  static BigInt FromString(std::string_view text);
  /// Parse; returns false (leaving *out untouched) on malformed input.
  static bool TryParse(std::string_view text, BigInt* out);

  /// 2^exponent.
  static BigInt TwoToThe(uint64_t exponent);
  /// base^exponent (exponent >= 0).
  static BigInt Pow(const BigInt& base, uint64_t exponent);
  /// Greatest common divisor (always >= 0).
  static BigInt Gcd(BigInt a, BigInt b);
  /// Least common multiple (always >= 0); Lcm(0, x) == 0.
  static BigInt Lcm(const BigInt& a, const BigInt& b);

  bool is_zero() const { return limbs_.empty(); }
  bool is_negative() const { return negative_; }
  /// -1, 0, or +1.
  int sign() const { return is_zero() ? 0 : (negative_ ? -1 : 1); }

  BigInt operator-() const;
  BigInt abs() const;

  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  /// Truncated division (C semantics: quotient rounds toward zero).
  /// CHECK-fails on division by zero.
  BigInt operator/(const BigInt& other) const;
  /// Remainder matching operator/ (same sign as dividend).
  BigInt operator%(const BigInt& other) const;

  BigInt& operator+=(const BigInt& other) { return *this = *this + other; }
  BigInt& operator-=(const BigInt& other) { return *this = *this - other; }
  BigInt& operator*=(const BigInt& other) { return *this = *this * other; }
  BigInt& operator/=(const BigInt& other) { return *this = *this / other; }

  /// Quotient and remainder in one pass.
  static void DivMod(const BigInt& dividend, const BigInt& divisor,
                     BigInt* quotient, BigInt* remainder);

  std::strong_ordering operator<=>(const BigInt& other) const;
  bool operator==(const BigInt& other) const = default;

  /// Decimal rendering.
  std::string ToString() const;
  /// Nearest double (may overflow to +/-inf).
  double ToDouble() const;
  /// log2 of |value| as a double; CHECK-fails on zero.
  double Log2Abs() const;
  /// True if the value fits in int64_t.
  bool FitsInt64() const;
  /// Value as int64_t; CHECK-fails if it does not fit.
  int64_t ToInt64() const;
  /// Number of bits in the magnitude (0 for zero).
  size_t BitLength() const;
  /// True if |value| is a power of two (1, 2, 4, ...).
  bool IsPowerOfTwo() const;

  /// True if the value fits in __int128.
  bool FitsInt128() const;
  /// Value as __int128; CHECK-fails if it does not fit.
  __int128 ToInt128() const;

 private:
  using Limb = uint32_t;
  using Wide = uint64_t;
  static constexpr int kLimbBits = 32;

  // A limb vector that keeps up to four limbs inline and moves to one heap
  // block beyond that (the llvm::SmallVector idiom). The heap pointer shares
  // the inline limbs' bytes, so a BigInt stays 32 bytes.
  class Limbs {
   public:
    Limbs() = default;
    explicit Limbs(size_t size) { resize(size); }
    Limbs(const Limbs& other) { *this = other; }
    Limbs(Limbs&& other) noexcept { *this = std::move(other); }
    ~Limbs() {
      if (on_heap()) delete[] heap_;
    }
    Limbs& operator=(const Limbs& other) {
      if (this == &other) return *this;
      if (!on_heap() && !other.on_heap()) {
        inline_ = other.inline_;
      } else {
        if (other.size_ > capacity_) Grow(other.size_);
        std::copy_n(other.data(), other.size_, data());
      }
      size_ = other.size_;
      return *this;
    }
    Limbs& operator=(Limbs&& other) noexcept {
      if (this == &other) return *this;
      if (on_heap()) delete[] heap_;
      if (other.on_heap()) {
        heap_ = other.heap_;
        other.inline_ = {};
      } else {
        inline_ = other.inline_;
      }
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.size_ = 0;
      other.capacity_ = kInline;
      return *this;
    }
    bool operator==(const Limbs& other) const {
      return std::equal(data(), data() + size_, other.data(),
                        other.data() + other.size_);
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Limb* data() { return on_heap() ? heap_ : inline_.data(); }
    const Limb* data() const { return on_heap() ? heap_ : inline_.data(); }
    Limb& operator[](size_t i) { return data()[i]; }
    Limb operator[](size_t i) const { return data()[i]; }
    Limb back() const { return data()[size_ - 1]; }
    void push_back(Limb limb) {
      if (size_ == capacity_) Grow(size_ + 1);
      data()[size_++] = limb;
    }
    // New limbs are zero.
    void resize(size_t size) {
      if (size > capacity_) Grow(size);
      if (size > size_) std::fill(data() + size_, data() + size, Limb{0});
      size_ = static_cast<uint32_t>(size);
    }
    // Drops high zero limbs.
    void Trim() {
      while (size_ != 0 && data()[size_ - 1] == 0) --size_;
    }

   private:
    static constexpr uint32_t kInline = 4;
    bool on_heap() const { return capacity_ > kInline; }
    void Grow(size_t capacity);

    // capacity_ == kInline means inline_ is the active member, else heap_.
    union {
      std::array<Limb, kInline> inline_ = {};
      Limb* heap_;
    };
    uint32_t size_ = 0;
    uint32_t capacity_ = kInline;
  };

  // sign * magnitude, for a magnitude below 2^128.
  static BigInt FromMagnitude(bool negative, unsigned __int128 magnitude);
  // a + b with b's sign taken as b_negative (so a - b flips it).
  static BigInt Add(const BigInt& a, const BigInt& b, bool b_negative);
  // |value|; requires at most two limbs.
  uint64_t Low64() const {
    const size_t n = limbs_.size();
    return n == 0 ? 0 : n == 1 ? limbs_[0] : limbs_[0] | Wide{limbs_[1]} << 32;
  }

  static int CompareMagnitude(const Limbs& a, const Limbs& b);
  static Limbs AddMagnitude(const Limbs& a, const Limbs& b);
  // Requires |a| >= |b|.
  static Limbs SubMagnitude(const Limbs& a, const Limbs& b);
  static Limbs MulMagnitude(const Limbs& a, const Limbs& b);
  static void DivModMagnitude(const Limbs& a, const Limbs& b,
                              Limbs* quotient, Limbs* remainder);
  void Normalize();

  bool negative_ = false;
  Limbs limbs_;  // little-endian; empty means zero
};

std::ostream& operator<<(std::ostream& os, const BigInt& value);

}  // namespace bagcq::util
