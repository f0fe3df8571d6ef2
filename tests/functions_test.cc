#include "entropy/functions.h"

#include <map>
#include <random>

#include <gtest/gtest.h>

namespace bagcq::entropy {
namespace {

using util::Rational;
using util::VarSet;

TEST(FunctionsTest, StepFunctionValues) {
  SetFunction h = StepFunction(3, VarSet::Of({0, 1}));
  EXPECT_EQ(h[VarSet()], Rational(0));
  EXPECT_EQ(h[VarSet::Of({0})], Rational(0));
  EXPECT_EQ(h[VarSet::Of({0, 1})], Rational(0));
  EXPECT_EQ(h[VarSet::Of({2})], Rational(1));
  EXPECT_EQ(h[VarSet::Of({0, 2})], Rational(1));
  EXPECT_EQ(h[VarSet::Full(3)], Rational(1));
  EXPECT_TRUE(h.IsPolymatroid());
}

TEST(FunctionsTest, StepAtEmptySetIsIndicatorOfNonempty) {
  SetFunction h = StepFunction(2, VarSet());
  EXPECT_EQ(h[VarSet()], Rational(0));
  EXPECT_EQ(h[VarSet::Of({0})], Rational(1));
  EXPECT_EQ(h[VarSet::Of({1})], Rational(1));
  EXPECT_EQ(h[VarSet::Full(2)], Rational(1));
}

TEST(FunctionsDeathTest, StepFunctionRejectsFullSet) {
  EXPECT_DEATH(StepFunction(2, VarSet::Full(2)), "proper subset");
}

TEST(FunctionsTest, NormalFunctionSumsSteps) {
  SetFunction h = NormalFunction(
      2, {{VarSet(), Rational(1)}, {VarSet::Of({0}), Rational(2)}});
  // h = h_∅ + 2·h_{{0}}: at {0}: 1 + 0; at {1}: 1 + 2; at {0,1}: 1 + 2.
  EXPECT_EQ(h[VarSet::Of({0})], Rational(1));
  EXPECT_EQ(h[VarSet::Of({1})], Rational(3));
  EXPECT_EQ(h[VarSet::Full(2)], Rational(3));

  // Against the explicit Σ c_W·h_W on seeded random coefficient maps: the
  // empty map (the zero function), maps over all proper subsets, and maps
  // over the co-singletons only (the generators of Mn).
  std::mt19937_64 rng(2026);
  for (int n = 1; n <= 6; ++n) {
    const VarSet full = VarSet::Full(n);
    EXPECT_EQ(NormalFunction(n, {}), SetFunction(n));
    for (int trial = 0; trial < 8; ++trial) {
      const bool co_singletons = trial % 2 == 1;
      std::map<VarSet, Rational> coeffs;
      for (uint32_t s = 0; s + 1 < (1u << n); ++s) {
        const VarSet w(s);
        if (co_singletons && w.size() != n - 1) continue;
        if (rng() % 3 == 0) continue;
        coeffs[w] = Rational(static_cast<int64_t>(rng() % 7),
                             static_cast<int64_t>(rng() % 5 + 1));
      }
      SetFunction expected(n);
      Rational total;
      for (const auto& [w, c] : coeffs) {
        expected = expected + StepFunction(n, w) * c;
        total += c;
      }
      EXPECT_EQ(NormalFunction(n, coeffs), expected)
          << "n=" << n << " trial=" << trial;
      // Every step function is 1 on V, so h(V) = Σ_W c_W.
      EXPECT_EQ(expected[full], total);
    }
  }

  // Denominators 2^61 − 1, 2^59 − 1 and 2^53 − 1 are pairwise coprime, so
  // the common denominator exceeds 2^128, past BigInt's inline storage.
  // Checked against h(X) = Σ_{W : X ⊄ W} c_W, added up as plain Rationals.
  const int64_t dens[] = {(int64_t{1} << 61) - 1, (int64_t{1} << 59) - 1,
                          (int64_t{1} << 53) - 1};
  for (int n = 2; n <= 5; ++n) {
    std::map<VarSet, Rational> coeffs;
    for (uint32_t s = 0; s + 1 < (1u << n); ++s) {
      coeffs[VarSet(s)] = Rational(2 * s + 1, dens[s % 3]);
    }
    const SetFunction h = NormalFunction(n, coeffs);
    for (uint32_t x = 0; x < (1u << n); ++x) {
      Rational expected;
      for (const auto& [w, c] : coeffs) {
        if (!VarSet(x).IsSubsetOf(w)) expected += c;
      }
      EXPECT_EQ(h[VarSet(x)], expected) << "n=" << n << " X=" << x;
    }
  }
}

TEST(FunctionsDeathTest, NormalFunctionRejectsNegativeCoefficients) {
  EXPECT_DEATH(NormalFunction(2, {{VarSet(), Rational(-1)}}),
               "nonnegative");
}

TEST(FunctionsTest, ParityMatchesExampleB4) {
  SetFunction h = ParityFunction();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(h[VarSet::Singleton(i)], Rational(1));
  }
  EXPECT_EQ(h[VarSet::Of({0, 1})], Rational(2));
  EXPECT_EQ(h[VarSet::Of({0, 2})], Rational(2));
  EXPECT_EQ(h[VarSet::Of({1, 2})], Rational(2));
  EXPECT_EQ(h[VarSet::Full(3)], Rational(2));
}

TEST(FunctionsTest, GF2RankBasics) {
  // Three independent vectors: rank = |X|.
  SetFunction ind = GF2RankFunction({0b001, 0b010, 0b100});
  EXPECT_TRUE(ind.IsModular());
  // Repeated vector: rank collapses.
  SetFunction rep = GF2RankFunction({0b1, 0b1});
  EXPECT_EQ(rep[VarSet::Of({0})], Rational(1));
  EXPECT_EQ(rep[VarSet::Full(2)], Rational(1));
  // Zero vector contributes nothing.
  SetFunction zero = GF2RankFunction({0b0, 0b1});
  EXPECT_EQ(zero[VarSet::Of({0})], Rational(0));
  EXPECT_EQ(zero[VarSet::Full(2)], Rational(1));
}

TEST(FunctionsTest, GF2RankIsAlwaysPolymatroid) {
  // Rank functions are polymatroids; spot-check a few vector families.
  std::vector<std::vector<uint64_t>> families = {
      {0b01, 0b10, 0b11},
      {0b011, 0b101, 0b110, 0b111},
      {0b1, 0b1, 0b1, 0b1},
      {0b0001, 0b0011, 0b0111, 0b1111, 0b1000},
  };
  for (const auto& family : families) {
    EXPECT_TRUE(GF2RankFunction(family).IsPolymatroid());
  }
}

TEST(FunctionsTest, GF2RankSubspaceExample) {
  // v1=e1, v2=e2, v3=e1+e2, v4=e3: {v1,v2,v3} has rank 2, adding v4 -> 3.
  SetFunction h = GF2RankFunction({0b001, 0b010, 0b011, 0b100});
  EXPECT_EQ(h[VarSet::Of({0, 1, 2})], Rational(2));
  EXPECT_EQ(h[VarSet::Full(4)], Rational(3));
  EXPECT_EQ(h[VarSet::Of({2, 3})], Rational(2));
}

}  // namespace
}  // namespace bagcq::entropy
