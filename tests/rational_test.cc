#include "util/rational.h"

#include <random>

#include <gtest/gtest.h>

namespace bagcq::util {
namespace {

TEST(RationalTest, Canonicalization) {
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_EQ(Rational(-2, 4), Rational(1, -2));
  EXPECT_EQ(Rational(-2, -4), Rational(1, 2));
  EXPECT_EQ(Rational(0, 7), Rational(0));
  EXPECT_EQ(Rational(0, -7).den(), BigInt(1));
  EXPECT_FALSE(Rational(2, 4).den().is_negative());
}

TEST(RationalTest, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(2, 3) / Rational(4, 3), Rational(1, 2));
  EXPECT_EQ(-Rational(1, 2), Rational(-1, 2));
  EXPECT_EQ(Rational(-3, 7).abs(), Rational(3, 7));
  EXPECT_EQ(Rational(3, 7).Inverse(), Rational(7, 3));
}

TEST(RationalTest, CompoundAssignment) {
  Rational r(1, 2);
  r += Rational(1, 6);
  EXPECT_EQ(r, Rational(2, 3));
  r *= Rational(3);
  EXPECT_EQ(r, Rational(2));
  r -= Rational(1, 2);
  EXPECT_EQ(r, Rational(3, 2));
  r /= Rational(3);
  EXPECT_EQ(r, Rational(1, 2));
}

TEST(RationalTest, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_GT(Rational(7, 2), Rational(3));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_EQ(Rational(10, 5), Rational(2));
}

TEST(RationalTest, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).Floor(), BigInt(3));
  EXPECT_EQ(Rational(7, 2).Ceil(), BigInt(4));
  EXPECT_EQ(Rational(-7, 2).Floor(), BigInt(-4));
  EXPECT_EQ(Rational(-7, 2).Ceil(), BigInt(-3));
  EXPECT_EQ(Rational(6).Floor(), BigInt(6));
  EXPECT_EQ(Rational(6).Ceil(), BigInt(6));
  EXPECT_EQ(Rational(0).Floor(), BigInt(0));
}

TEST(RationalTest, ParseAndPrint) {
  EXPECT_EQ(Rational::FromString("3/4").ToString(), "3/4");
  EXPECT_EQ(Rational::FromString("-3/4").ToString(), "-3/4");
  EXPECT_EQ(Rational::FromString("3/-4").ToString(), "-3/4");
  EXPECT_EQ(Rational::FromString("6/4").ToString(), "3/2");
  EXPECT_EQ(Rational::FromString("5").ToString(), "5");
  EXPECT_EQ(Rational::FromString(" 1 / 2 "), Rational(1, 2));
  Rational out;
  EXPECT_FALSE(Rational::TryParse("1/0", &out));
  EXPECT_FALSE(Rational::TryParse("a/b", &out));
  EXPECT_FALSE(Rational::TryParse("", &out));
  EXPECT_FALSE(Rational::TryParse("1/2/3", &out));
}

TEST(RationalTest, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 2).ToDouble(), 0.5);
  EXPECT_DOUBLE_EQ(Rational(-3, 8).ToDouble(), -0.375);
  EXPECT_NEAR(Rational(1, 3).ToDouble(), 1.0 / 3.0, 1e-15);
  // Large values exceed int64 but still convert.
  Rational huge(BigInt::Pow(BigInt(10), 30), BigInt::Pow(BigInt(10), 28));
  EXPECT_NEAR(huge.ToDouble(), 100.0, 1e-9);
}

// Both parts past double range: each converts to inf on its own.
TEST(RationalTest, ToDoubleOfPartsBeyondDoubleRange) {
  const BigInt p = BigInt::TwoToThe(1100);
  EXPECT_NEAR(Rational(p + BigInt(1), p).ToDouble(), 1.0, 1e-12);
  EXPECT_NEAR(Rational(BigInt(3) * p, BigInt(2) * p + BigInt(1)).ToDouble(),
              1.5, 1e-12);
  EXPECT_NEAR(Rational(-(BigInt(3) * p), BigInt(2) * p + BigInt(1)).ToDouble(),
              -1.5, 1e-12);
  EXPECT_NEAR(Rational(p, BigInt::TwoToThe(1095) + BigInt(1)).ToDouble(), 32.0,
              1e-9);
}

TEST(RationalTest, RandomizedFieldAxioms) {
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<int64_t> dist(-50, 50);
  auto random_rational = [&]() {
    int64_t den = 0;
    while (den == 0) den = dist(rng);
    return Rational(dist(rng), den);
  };
  for (int trial = 0; trial < 300; ++trial) {
    Rational a = random_rational();
    Rational b = random_rational();
    Rational c = random_rational();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, Rational(0));
    if (!b.is_zero()) {
      EXPECT_EQ((a / b) * b, a);
    }
  }
}

TEST(RationalDeathTest, ZeroDenominatorChecks) {
  EXPECT_DEATH(Rational(1, 0), "zero denominator");
  EXPECT_DEATH(Rational(1, 2) / Rational(0), "division by zero");
  EXPECT_DEATH(Rational(0).Inverse(), "inverse of zero");
}

}  // namespace
}  // namespace bagcq::util
