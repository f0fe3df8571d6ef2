#include "util/bigint.h"

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace bagcq::util {
namespace {

TEST(BigIntTest, DefaultIsZero) {
  BigInt zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.sign(), 0);
  EXPECT_EQ(zero.ToString(), "0");
  EXPECT_EQ(zero, BigInt(0));
}

TEST(BigIntTest, FromInt64RoundTrips) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{42},
                    int64_t{-12345678901234}, INT64_MAX, INT64_MIN}) {
    BigInt b(v);
    ASSERT_TRUE(b.FitsInt64()) << v;
    EXPECT_EQ(b.ToInt64(), v);
    EXPECT_EQ(b.ToString(), std::to_string(v));
  }
}

TEST(BigIntTest, ParseAndPrint) {
  EXPECT_EQ(BigInt::FromString("0").ToString(), "0");
  EXPECT_EQ(BigInt::FromString("-0").ToString(), "0");
  EXPECT_EQ(BigInt::FromString("+17").ToString(), "17");
  EXPECT_EQ(BigInt::FromString("123456789012345678901234567890").ToString(),
            "123456789012345678901234567890");
  EXPECT_EQ(BigInt::FromString("-999999999999999999999").ToString(),
            "-999999999999999999999");
}

TEST(BigIntTest, TryParseRejectsGarbage) {
  BigInt out;
  EXPECT_FALSE(BigInt::TryParse("", &out));
  EXPECT_FALSE(BigInt::TryParse("-", &out));
  EXPECT_FALSE(BigInt::TryParse("12a3", &out));
  EXPECT_FALSE(BigInt::TryParse("1.5", &out));
  EXPECT_FALSE(BigInt::TryParse(" 12", &out));
  EXPECT_TRUE(BigInt::TryParse("12", &out));
  EXPECT_EQ(out, BigInt(12));
}

TEST(BigIntTest, AdditionCarriesAcrossLimbs) {
  BigInt a = BigInt::FromString("4294967295");  // 2^32 - 1
  EXPECT_EQ((a + BigInt(1)).ToString(), "4294967296");
  BigInt b = BigInt::FromString("18446744073709551615");  // 2^64 - 1
  EXPECT_EQ((b + BigInt(1)).ToString(), "18446744073709551616");
}

TEST(BigIntTest, SubtractionBorrowsAndFlipsSign) {
  EXPECT_EQ((BigInt(5) - BigInt(7)).ToString(), "-2");
  EXPECT_EQ((BigInt(-5) - BigInt(-7)).ToString(), "2");
  BigInt big = BigInt::FromString("10000000000000000000000000");
  EXPECT_EQ((big - big).ToString(), "0");
  EXPECT_EQ((big - BigInt(1)).ToString(), "9999999999999999999999999");
}

TEST(BigIntTest, MultiplicationLarge) {
  BigInt a = BigInt::FromString("123456789123456789");
  BigInt b = BigInt::FromString("987654321987654321");
  EXPECT_EQ((a * b).ToString(), "121932631356500531347203169112635269");
  EXPECT_EQ((a * BigInt(0)).ToString(), "0");
  EXPECT_EQ(((-a) * b).sign(), -1);
  EXPECT_EQ(((-a) * (-b)).sign(), 1);
}

TEST(BigIntTest, DivisionTruncatesTowardZero) {
  EXPECT_EQ((BigInt(7) / BigInt(2)).ToInt64(), 3);
  EXPECT_EQ((BigInt(-7) / BigInt(2)).ToInt64(), -3);
  EXPECT_EQ((BigInt(7) / BigInt(-2)).ToInt64(), -3);
  EXPECT_EQ((BigInt(-7) / BigInt(-2)).ToInt64(), 3);
  EXPECT_EQ((BigInt(7) % BigInt(2)).ToInt64(), 1);
  EXPECT_EQ((BigInt(-7) % BigInt(2)).ToInt64(), -1);
  EXPECT_EQ((BigInt(7) % BigInt(-2)).ToInt64(), 1);
}

TEST(BigIntTest, LongDivisionKnuthD) {
  BigInt a = BigInt::FromString("340282366920938463463374607431768211456");  // 2^128
  BigInt b = BigInt::FromString("18446744073709551616");                     // 2^64
  EXPECT_EQ((a / b).ToString(), "18446744073709551616");
  EXPECT_EQ((a % b).ToString(), "0");

  BigInt c = BigInt::FromString("123456789012345678901234567890123456789");
  BigInt d = BigInt::FromString("987654321098765432109");
  BigInt q = c / d;
  BigInt r = c % d;
  EXPECT_EQ(q * d + r, c);
  EXPECT_LT(r, d);
  EXPECT_GE(r, BigInt(0));
}

TEST(BigIntTest, DivisionAddBackCase) {
  // A case engineered to trigger Knuth's D6 add-back: divisor with high limb
  // 0x80000000 pattern and dividend just below a multiple.
  BigInt b = (BigInt::TwoToThe(64) + BigInt::TwoToThe(32)) - BigInt(1);
  BigInt a = BigInt::TwoToThe(96) - BigInt(1);
  BigInt q, r;
  BigInt::DivMod(a, b, &q, &r);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(r, b);
}

TEST(BigIntTest, RandomizedDivModInvariant) {
  std::mt19937_64 rng(20260610);
  for (int trial = 0; trial < 500; ++trial) {
    // Build random magnitudes of various widths.
    auto make = [&rng](int words) {
      BigInt out(0);
      for (int i = 0; i < words; ++i) {
        out = out * BigInt::TwoToThe(64) + BigInt(static_cast<int64_t>(rng() >> 1));
      }
      return out;
    };
    BigInt a = make(1 + trial % 5);
    BigInt b = make(1 + trial % 3);
    if (b.is_zero()) continue;
    if (trial % 2) a = -a;
    if (trial % 3 == 0) b = -b;
    BigInt q, r;
    BigInt::DivMod(a, b, &q, &r);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r.abs(), b.abs());
    // Remainder sign matches dividend (C semantics).
    if (!r.is_zero()) {
      EXPECT_EQ(r.sign(), a.sign());
    }
  }
}

TEST(BigIntTest, RandomizedArithmeticMatchesInt64) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int64_t> dist(-1'000'000'000, 1'000'000'000);
  for (int trial = 0; trial < 1000; ++trial) {
    int64_t x = dist(rng);
    int64_t y = dist(rng);
    EXPECT_EQ((BigInt(x) + BigInt(y)).ToInt64(), x + y);
    EXPECT_EQ((BigInt(x) - BigInt(y)).ToInt64(), x - y);
    EXPECT_EQ((BigInt(x) * BigInt(y)).ToInt64(), x * y);
    if (y != 0) {
      EXPECT_EQ((BigInt(x) / BigInt(y)).ToInt64(), x / y);
      EXPECT_EQ((BigInt(x) % BigInt(y)).ToInt64(), x % y);
    }
  }
}

TEST(BigIntTest, Comparisons) {
  EXPECT_LT(BigInt(-2), BigInt(1));
  EXPECT_LT(BigInt(-5), BigInt(-2));
  EXPECT_GT(BigInt::FromString("100000000000000000000"), BigInt(INT64_MAX));
  EXPECT_LT(BigInt::FromString("-100000000000000000000"), BigInt(INT64_MIN));
  EXPECT_EQ(BigInt(3), BigInt(3));
}

TEST(BigIntTest, TwoToThe) {
  EXPECT_EQ(BigInt::TwoToThe(0).ToInt64(), 1);
  EXPECT_EQ(BigInt::TwoToThe(10).ToInt64(), 1024);
  EXPECT_EQ(BigInt::TwoToThe(32).ToString(), "4294967296");
  EXPECT_EQ(BigInt::TwoToThe(100).ToString(), "1267650600228229401496703205376");
  EXPECT_TRUE(BigInt::TwoToThe(77).IsPowerOfTwo());
}

TEST(BigIntTest, Pow) {
  EXPECT_EQ(BigInt::Pow(BigInt(3), 0).ToInt64(), 1);
  EXPECT_EQ(BigInt::Pow(BigInt(3), 5).ToInt64(), 243);
  EXPECT_EQ(BigInt::Pow(BigInt(10), 30).ToString(),
            "1000000000000000000000000000000");
  EXPECT_EQ(BigInt::Pow(BigInt(-2), 3).ToInt64(), -8);
  EXPECT_EQ(BigInt::Pow(BigInt(-2), 4).ToInt64(), 16);
}

TEST(BigIntTest, GcdLcm) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)).ToInt64(), 6);
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(18)).ToInt64(), 6);
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToInt64(), 5);
  EXPECT_EQ(BigInt::Gcd(BigInt(7), BigInt(0)).ToInt64(), 7);
  EXPECT_EQ(BigInt::Lcm(BigInt(4), BigInt(6)).ToInt64(), 12);
  EXPECT_EQ(BigInt::Lcm(BigInt(0), BigInt(6)).ToInt64(), 0);
  BigInt big = BigInt::Pow(BigInt(2), 100);
  EXPECT_EQ(BigInt::Gcd(big, big * BigInt(3)), big);
}

TEST(BigIntTest, BitLength) {
  EXPECT_EQ(BigInt(0).BitLength(), 0u);
  EXPECT_EQ(BigInt(1).BitLength(), 1u);
  EXPECT_EQ(BigInt(255).BitLength(), 8u);
  EXPECT_EQ(BigInt(256).BitLength(), 9u);
  EXPECT_EQ(BigInt::TwoToThe(100).BitLength(), 101u);
}

TEST(BigIntTest, ToDoubleAndLog2) {
  EXPECT_DOUBLE_EQ(BigInt(1024).ToDouble(), 1024.0);
  EXPECT_DOUBLE_EQ(BigInt(-3).ToDouble(), -3.0);
  EXPECT_NEAR(BigInt::TwoToThe(100).Log2Abs(), 100.0, 1e-9);
  EXPECT_NEAR(BigInt(1000).Log2Abs(), std::log2(1000.0), 1e-9);
  EXPECT_NEAR(BigInt::Pow(BigInt(10), 50).Log2Abs(), 50 * std::log2(10.0), 1e-6);
}

TEST(BigIntTest, IsPowerOfTwo) {
  EXPECT_FALSE(BigInt(0).IsPowerOfTwo());
  EXPECT_TRUE(BigInt(1).IsPowerOfTwo());
  EXPECT_TRUE(BigInt(2).IsPowerOfTwo());
  EXPECT_FALSE(BigInt(3).IsPowerOfTwo());
  EXPECT_TRUE(BigInt::TwoToThe(200).IsPowerOfTwo());
  EXPECT_FALSE((BigInt::TwoToThe(200) + BigInt(1)).IsPowerOfTwo());
}

// The 64-bit paths of + - * DivMod Gcd ToString and TryParse must agree with
// the general limb loops on every sign/magnitude combination, including the
// one- and two-limb boundaries and values stored inline up to 2^128. Scaling
// both operands by 2^128 (or a decimal by 10^40) forces the general path.
TEST(BigIntTest, SmallValueFastPathsMatchLongForm) {
  const char* const texts[] = {
      "0", "1", "-1", "7", "-13", "4294967295", "-4294967295", "4294967296",
      "4294967301", "-4294967301", "9223372036854775807",
      "-9223372036854775807", "-9223372036854775808", "18446744073709551615",
      "18446744073709551616", "79228162514264337593543950336",
      "170141183460469231731687303715884105728",
      "340282366920938463463374607431768211456"};
  const BigInt scale = BigInt::TwoToThe(128);
  const BigInt ten40 = BigInt::Pow(BigInt(10), 40);
  std::vector<BigInt> samples;
  for (const char* text : texts) {
    BigInt value;
    ASSERT_TRUE(BigInt::TryParse(text, &value)) << text;
    EXPECT_EQ(value.ToString(), text);
    if (!value.is_zero()) {
      const std::string scaled_text = std::string(text) + std::string(40, '0');
      EXPECT_EQ((value * ten40).ToString(), scaled_text);
      BigInt scaled;
      ASSERT_TRUE(BigInt::TryParse(scaled_text, &scaled));
      EXPECT_EQ(scaled, value * ten40) << text;
    }
    samples.push_back(value);
  }
  EXPECT_EQ(samples[14], BigInt::TwoToThe(64));
  EXPECT_EQ(samples[15], BigInt::TwoToThe(96));
  EXPECT_EQ(samples[16], BigInt::TwoToThe(127));
  EXPECT_EQ(samples[17], BigInt::TwoToThe(128));
  for (const BigInt& a : samples) {
    for (const BigInt& b : samples) {
      const BigInt big_a = a * scale, big_b = b * scale;
      EXPECT_EQ(big_a + big_b, (a + b) * scale) << a << " + " << b;
      EXPECT_EQ(big_a - big_b, (a - b) * scale) << a << " - " << b;
      EXPECT_EQ(big_a * b, (a * b) * scale) << a << " * " << b;
      int64_t expected = 0;
      if (a.FitsInt64() && b.FitsInt64() &&
          !__builtin_add_overflow(a.ToInt64(), b.ToInt64(), &expected)) {
        EXPECT_EQ(a + b, BigInt(expected)) << a << " + " << b;
      }
      if (a.FitsInt64() && b.FitsInt64() &&
          !__builtin_sub_overflow(a.ToInt64(), b.ToInt64(), &expected)) {
        EXPECT_EQ(a - b, BigInt(expected)) << a << " - " << b;
      }
      EXPECT_EQ(BigInt::Gcd(big_a, big_b), BigInt::Gcd(a, b) * scale)
          << "gcd " << a << ", " << b;
      if (b.is_zero()) continue;
      EXPECT_EQ((a * b) / b, a) << a << " * " << b;
      EXPECT_EQ((a * b) % b, BigInt(0)) << a << " * " << b;
      BigInt q, r, big_q, big_r;
      BigInt::DivMod(a, b, &q, &r);
      BigInt::DivMod(big_a, big_b, &big_q, &big_r);
      EXPECT_EQ(big_q, q) << a << " / " << b;
      EXPECT_EQ(big_r, r * scale) << a << " % " << b;
      EXPECT_EQ(a / b, q) << a << " / " << b;
      EXPECT_EQ(a % b, r) << a << " % " << b;
    }
  }
  // Single-limb × single-limb products that overflow int64 but not uint64.
  const BigInt limb_max(4294967295LL);
  const BigInt limb_max_sq = BigInt::FromString("18446744065119617025");
  EXPECT_EQ(limb_max * limb_max, limb_max_sq);
  EXPECT_EQ(limb_max * -limb_max, -limb_max_sq);
  // Mixed sizes fall back to the general path and still agree.
  const BigInt wide = BigInt::TwoToThe(100);
  EXPECT_EQ(wide + BigInt(1) - BigInt(1), wide);
  EXPECT_EQ((wide * BigInt(3)) / BigInt(3), wide);
}

// Copies, moves and self-assignment across the four-limb inline boundary.
TEST(BigIntTest, InlineAndHeapStorageKeepValues) {
  // Squared past 2^128 onto the heap, then divided back inline.
  const BigInt inline_value = BigInt::TwoToThe(100) + BigInt(12345);
  BigInt x = inline_value;
  x *= inline_value;
  EXPECT_EQ(x.BitLength(), 201u);
  x /= inline_value;
  EXPECT_EQ(x, inline_value);

  // A heap value moved into an inline one and back.
  const BigInt heap_value = -BigInt::Pow(BigInt(10), 60);
  BigInt heap = heap_value;
  BigInt small(42);
  small = std::move(heap);
  EXPECT_EQ(small, heap_value);
  heap = std::move(small);
  EXPECT_EQ(heap, heap_value);
  small = BigInt(42);
  small = heap;  // copy onto inline storage
  EXPECT_EQ(small, heap_value);
  heap = BigInt(-7);  // a heap block takes an inline value
  EXPECT_EQ(heap, BigInt(-7));
  EXPECT_EQ(heap + heap_value, heap_value - BigInt(7));

  // Self-assignment through a reference keeps the value, inline or not.
  BigInt& alias = small;
  small = alias;
  EXPECT_EQ(small, heap_value);
  small = std::move(alias);
  EXPECT_EQ(small, heap_value);
  BigInt& inline_alias = heap;
  heap = inline_alias;
  EXPECT_EQ(heap, BigInt(-7));

  // Vector growth and erasure move values across both representations.
  auto expected = [](int i) {
    return i % 2 == 0 ? BigInt(-i) : BigInt::TwoToThe(8 * i) + BigInt(i);
  };
  std::vector<BigInt> values;
  for (int i = 0; i < 64; ++i) values.push_back(expected(i));
  values.erase(values.begin());
  for (int i = 1; i < 64; ++i) EXPECT_EQ(values[i - 1], expected(i)) << i;
  std::vector<BigInt> copies(values.rbegin(), values.rend());
  copies = values;  // copies heap values onto inline ones and back
  EXPECT_EQ(copies, values);
}

TEST(BigIntTest, Int128RoundTrip) {
  const BigInt max64(INT64_MAX);
  const BigInt two127 = BigInt::TwoToThe(127);
  const __int128 wide_max64 = INT64_MAX;
  // The extremes of the representable range.
  const __int128 max128 =
      ~(static_cast<__int128>(1) << 127);  // 2^127 - 1
  const __int128 min128 = static_cast<__int128>(1) << 127;  // -2^127
  const std::pair<BigInt, __int128> samples[] = {
      {BigInt(0), 0},
      {BigInt(1), 1},
      {BigInt(-1), -1},
      {max64, wide_max64},
      {BigInt(INT64_MIN), INT64_MIN},
      {max64 * max64, wide_max64 * INT64_MAX},
      {-(max64 * max64), -wide_max64 * INT64_MAX},
      {max64 * BigInt(4), wide_max64 * 4},
      {two127 - BigInt(1), max128},
      {-two127, min128},
  };
  for (const auto& [big, v] : samples) {
    ASSERT_TRUE(big.FitsInt128()) << big;
    EXPECT_TRUE(big.ToInt128() == v) << big;
  }
  // 2^127 itself does not fit (only -2^127 does).
  EXPECT_FALSE(two127.FitsInt128());
  EXPECT_FALSE(BigInt::TwoToThe(128).FitsInt128());
}

TEST(BigIntDeathTest, DivisionByZeroChecks) {
  EXPECT_DEATH(BigInt(1) / BigInt(0), "division by zero");
}

}  // namespace
}  // namespace bagcq::util
