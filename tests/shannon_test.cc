#include "entropy/shannon.h"

#include <gtest/gtest.h>

#include "entropy/functions.h"
#include "entropy/known_inequalities.h"
#include "entropy/mobius.h"

namespace bagcq::entropy {
namespace {

using util::Rational;
using util::VarSet;

TEST(ElementalTest, CountMatchesFormula) {
  // n + C(n,2) · 2^(n-2) elemental inequalities.
  EXPECT_EQ(ElementalInequalities(1).size(), 1u);
  EXPECT_EQ(ElementalInequalities(2).size(), 2u + 1u);
  EXPECT_EQ(ElementalInequalities(3).size(), 3u + 3u * 2u);
  EXPECT_EQ(ElementalInequalities(4).size(), 4u + 6u * 4u);
  EXPECT_EQ(ElementalInequalities(5).size(), 5u + 10u * 8u);
}

TEST(ElementalTest, ExpressionsEvaluateOnParity) {
  // All elementals are ≥ 0 on the (entropic) parity function.
  SetFunction h = ParityFunction();
  for (const auto& e : ElementalInequalities(3)) {
    EXPECT_GE(e.ToExpr(3).Evaluate(h).sign(), 0) << e.ToString(3, {});
  }
}

TEST(ElementalTest, ColumnsMatchExpandedInequalities) {
  // ElementalColumns computes each column from (i, j, K) by mask
  // arithmetic; ToExpr expands the same inequality through LinearExpr.
  for (int n = 1; n <= 8; ++n) {
    const std::vector<ElementalInequality> elementals =
        ElementalInequalities(n);
    const std::vector<ElementalColumn> columns =
        ElementalColumns(n, elementals);
    ASSERT_EQ(columns.size(), elementals.size());
    for (size_t t = 0; t < elementals.size(); ++t) {
      const LinearExpr expr = elementals[t].ToExpr(n);
      std::vector<std::pair<uint32_t, Rational>> expected;
      for (const auto& [x, c] : expr.terms()) {
        expected.push_back({static_cast<uint32_t>(x.mask() - 1), c});
      }
      std::vector<std::pair<uint32_t, Rational>> got;
      for (int q = 0; q < columns[t].size; ++q) {
        got.push_back(
            {columns[t].row[q], Rational(int64_t{columns[t].coeff[q]})});
      }
      EXPECT_EQ(got, expected) << "n=" << n << ", elemental " << t;
    }
  }
}

TEST(ElementalTest, DecomposeFullEntropyIsExact) {
  // The CHECK inside DecomposeFullEntropy verifies exactness; run it for a
  // range of n.
  for (int n = 1; n <= 6; ++n) {
    auto combo = DecomposeFullEntropy(n);
    EXPECT_FALSE(combo.empty());
    LinearExpr sum(n);
    for (const auto& [e, w] : combo) sum = sum + e.ToExpr(n) * w;
    EXPECT_EQ(sum, LinearExpr::H(n, VarSet::Full(n)));
  }
}

TEST(ShannonProverTest, BasicInequalitiesAreShannon) {
  ShannonProver prover(3);
  // Nonnegativity of entropy.
  EXPECT_TRUE(prover.Prove(LinearExpr::H(3, VarSet::Of({0}))).valid);
  // Monotonicity on sets.
  EXPECT_TRUE(
      prover.Prove(MonotonicityExpr(3, VarSet::Of({0}), VarSet::Of({0, 1})))
          .valid);
  // Submodularity on sets.
  EXPECT_TRUE(prover
                  .Prove(SubmodularityExpr(3, VarSet::Of({0, 1}),
                                           VarSet::Of({1, 2})))
                  .valid);
  // Conditional entropy h(X|Y) ≥ 0.
  EXPECT_TRUE(
      prover.Prove(LinearExpr::HCond(3, VarSet::Of({0}), VarSet::Of({1, 2})))
          .valid);
  // Subadditivity h(X)+h(Y) ≥ h(XY).
  LinearExpr sub = LinearExpr::H(3, VarSet::Of({0})) +
                   LinearExpr::H(3, VarSet::Of({1})) -
                   LinearExpr::H(3, VarSet::Of({0, 1}));
  EXPECT_TRUE(prover.Prove(sub).valid);
}

TEST(ShannonProverTest, CertificatesVerifyExactly) {
  ShannonProver prover(3);
  LinearExpr e = SubmodularityExpr(3, VarSet::Of({0, 1}), VarSet::Of({1, 2}));
  IIResult r = prover.Prove(e);
  ASSERT_TRUE(r.valid);
  ASSERT_TRUE(r.certificate.has_value());
  EXPECT_TRUE(r.certificate->Verify(e));
  // Tampering breaks verification.
  ShannonCertificate tampered = *r.certificate;
  ASSERT_FALSE(tampered.combination.empty());
  tampered.combination[0].second += Rational(1);
  EXPECT_FALSE(tampered.Verify(e));
}

TEST(ShannonProverTest, InvalidInequalityYieldsCounterexample) {
  ShannonProver prover(2);
  // h(X0) ≥ h(X1) is not valid.
  LinearExpr e = LinearExpr::H(2, VarSet::Of({0})) -
                 LinearExpr::H(2, VarSet::Of({1}));
  IIResult r = prover.Prove(e);
  ASSERT_FALSE(r.valid);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_TRUE(r.counterexample->IsPolymatroid());
  EXPECT_LT(e.Evaluate(*r.counterexample).sign(), 0);
  EXPECT_LT(r.violation.sign(), 0);
}

TEST(ShannonProverTest, SupermodularityIsNotShannon) {
  // The reverse of submodularity fails.
  ShannonProver prover(2);
  LinearExpr e = LinearExpr::H(2, VarSet::Full(2)) -
                 LinearExpr::H(2, VarSet::Of({0})) -
                 LinearExpr::H(2, VarSet::Of({1}));
  EXPECT_FALSE(prover.Prove(e).valid);
}

TEST(ShannonProverTest, ZeroExpressionIsValid) {
  ShannonProver prover(2);
  IIResult r = prover.Prove(LinearExpr(2));
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(r.certificate->combination.empty());
}

TEST(ShannonProverTest, ZhangYeungIsNotShannon) {
  // The celebrated separation Γ*4 ⊊ Γ4: ZY is entropically valid but the
  // prover must find a polymatroid violating it.
  ShannonProver prover(4);
  IIResult r = prover.Prove(ZhangYeungExpr());
  ASSERT_FALSE(r.valid);
  ASSERT_TRUE(r.counterexample.has_value());
  const SetFunction& h = *r.counterexample;
  EXPECT_TRUE(h.IsPolymatroid());
  EXPECT_LT(ZhangYeungExpr().Evaluate(h).sign(), 0);
  // Such an h cannot be normal (normal functions are entropic).
  EXPECT_FALSE(IsNormal(h));
}

TEST(ShannonProverTest, IngletonIsNotShannon) {
  ShannonProver prover(4);
  IIResult r = prover.Prove(IngletonExpr());
  ASSERT_FALSE(r.valid);
  EXPECT_TRUE(r.counterexample->IsPolymatroid());
}

TEST(ShannonProverTest, Example38SingleBranchesAreInsufficient) {
  // From Example 3.8: h(X1X2X3) ≤ E1 alone is NOT valid — the max over
  // three branches is genuinely needed.
  const int n = 3;
  VarSet x1 = VarSet::Of({0}), x2 = VarSet::Of({1});
  LinearExpr e1 = LinearExpr::H(n, x1.Union(x2)) +
                  LinearExpr::HCond(n, x2, x1) -
                  LinearExpr::H(n, VarSet::Full(n));
  ShannonProver prover(n);
  EXPECT_FALSE(prover.Prove(e1).valid);
}

TEST(ShannonProverTest, ValidOnEntropicPointsWhenShannon) {
  // Sanity property: if the prover says valid, exact entropic points
  // (GF(2) rank functions) cannot violate.
  ShannonProver prover(3);
  std::vector<LinearExpr> candidates = {
      SubmodularityExpr(3, VarSet::Of({0, 1}), VarSet::Of({1, 2})),
      LinearExpr::MI(3, VarSet::Of({0}), VarSet::Of({1}), VarSet::Of({2})),
      LinearExpr::HCond(3, VarSet::Of({0, 1}), VarSet::Of({2})),
  };
  std::vector<std::vector<uint64_t>> families = {
      {0b01, 0b10, 0b11}, {0b1, 0b1, 0b1}, {0b001, 0b010, 0b100},
      {0b11, 0b01, 0b00},
  };
  for (const auto& e : candidates) {
    IIResult r = prover.Prove(e);
    ASSERT_TRUE(r.valid);
    for (const auto& family : families) {
      EXPECT_GE(e.Evaluate(GF2RankFunction(family)).sign(), 0);
    }
  }
}

class ElementalProvableTest : public ::testing::TestWithParam<int> {};

TEST_P(ElementalProvableTest, EveryElementalProvesItself) {
  int n = GetParam();
  ShannonProver prover(n);
  for (const auto& elemental : ElementalInequalities(n)) {
    IIResult r = prover.Prove(elemental.ToExpr(n));
    EXPECT_TRUE(r.valid) << elemental.ToString(n, {});
  }
}

INSTANTIATE_TEST_SUITE_P(SmallN, ElementalProvableTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace bagcq::entropy
