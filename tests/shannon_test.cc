#include "entropy/shannon.h"

#include <random>

#include <gtest/gtest.h>

#include "entropy/dense_check.h"
#include "entropy/functions.h"
#include "entropy/known_inequalities.h"
#include "entropy/mobius.h"

namespace bagcq::entropy {
namespace {

using util::BigInt;
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
  const Rational one(1);
  EXPECT_TRUE(r.certificate->Verify({&e, 1}, {&one, 1}));
  // Tampering breaks verification.
  ShannonCertificate tampered = *r.certificate;
  ASSERT_FALSE(tampered.combination.empty());
  tampered.combination[0].second += Rational(1);
  EXPECT_FALSE(tampered.Verify({&e, 1}, {&one, 1}));
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

// ---------------------------------------------------------------------------
// The dense Γn certificate check (ShannonCertificate::Verify, one integer
// pass in dense_check.h) against a LinearExpr/Rational reference.
// ---------------------------------------------------------------------------

// Σ_ℓ lambda[ℓ]·branches[ℓ] = Σ_t w_t·elemental_t with every w_t > 0, by
// LinearExpr arithmetic and each elemental's ToExpr.
bool ReferenceVerify(const std::vector<LinearExpr>& branches,
                     const std::vector<Rational>& lambda,
                     const ShannonCertificate& cert) {
  const int n = branches[0].num_vars();
  LinearExpr lhs(n);
  LinearExpr rhs(n);
  for (size_t l = 0; l < branches.size(); ++l) {
    lhs = lhs + branches[l] * lambda[l];
  }
  for (const auto& [e, w] : cert.combination) {
    if (w.sign() <= 0) return false;
    rhs = rhs + e.ToExpr(n) * w;
  }
  return lhs == rhs;
}

// num/den with num in 1..9 and den in 1..6.
Rational RandomWeight(std::mt19937_64& rng) {
  return Rational(static_cast<int64_t>(1 + rng() % 9),
                  static_cast<int64_t>(1 + rng() % 6));
}

// Up to `terms` terms with integer coefficients in −4..4.
LinearExpr RandomExpr(int n, int terms, std::mt19937_64& rng) {
  LinearExpr e(n);
  for (int t = 0; t < terms; ++t) {
    e.Add(VarSet(1 + rng() % ((uint64_t{1} << n) - 1)),
          Rational(static_cast<int64_t>(rng() % 9) - 4));
  }
  return e;
}

// A certificate of random elementals and weights, and branches with a λ
// whose combination it proves: k − 1 random branches, some with weight 0,
// and a last one that makes Σ_ℓ λ_ℓ·E_ℓ the certificate's sum.
struct ProvedInstance {
  std::vector<LinearExpr> branches;
  std::vector<Rational> lambda;
  ShannonCertificate cert;
};

ProvedInstance RandomProvedInstance(int n, std::mt19937_64& rng) {
  const std::vector<ElementalInequality> elementals = ElementalInequalities(n);
  ProvedInstance out;
  LinearExpr rest(n);
  const int size = 1 + static_cast<int>(rng() % 6);
  for (int t = 0; t < size; ++t) {
    const ElementalInequality& e = elementals[rng() % elementals.size()];
    const Rational w = RandomWeight(rng);
    out.cert.combination.push_back({e, w});
    rest = rest + e.ToExpr(n) * w;
  }
  const int k = 1 + static_cast<int>(rng() % 3);
  for (int l = 0; l + 1 < k; ++l) {
    out.branches.push_back(RandomExpr(n, 3, rng));
    out.lambda.push_back(rng() % 3 == 0 ? Rational(0) : RandomWeight(rng));
    rest = rest - out.branches.back() * out.lambda.back();
  }
  const Rational last = RandomWeight(rng);
  out.branches.push_back(rest * last.Inverse());
  out.lambda.push_back(last);
  return out;
}

// The common denominator D of every weight, λ and certificate alike.
BigInt CommonDenominator(const std::vector<Rational>& lambda,
                         const ShannonCertificate& cert) {
  BigInt d(1);
  for (const Rational& l : lambda) d = BigInt::Lcm(d, l.den());
  for (const auto& [e, w] : cert.combination) d = BigInt::Lcm(d, w.den());
  return d;
}

bool SameElemental(const ElementalInequality& a,
                   const ElementalInequality& b) {
  return a.kind == b.kind && a.i == b.i && a.j == b.j && a.k == b.k;
}

TEST(DenseCheckTest, CertificateCheckAgreesWithLinearExprReference) {
  std::mt19937_64 rng(2026);
  for (int n = 1; n <= 8; ++n) {
    const std::vector<ElementalInequality> elementals =
        ElementalInequalities(n);
    int accepted = 0;
    int rejected = 0;
    for (int round = 0; round < 40; ++round) {
      ProvedInstance p = RandomProvedInstance(n, rng);
      // Half the rounds perturb one input at random.
      switch (rng() % 6) {
        case 0: {
          LinearExpr& b = p.branches[rng() % p.branches.size()];
          b.Add(VarSet(1 + rng() % ((uint64_t{1} << n) - 1)), Rational(1));
          break;
        }
        case 1: {
          auto& w = p.cert.combination[rng() % p.cert.combination.size()];
          w.second = w.second + Rational(1, 7);
          break;
        }
        case 2: {
          auto& w = p.cert.combination[rng() % p.cert.combination.size()];
          w.first = elementals[rng() % elementals.size()];
          break;
        }
        default:
          break;
      }
      const bool reference = ReferenceVerify(p.branches, p.lambda, p.cert);
      EXPECT_EQ(p.cert.Verify(p.branches, p.lambda), reference)
          << "n=" << n << " round=" << round;
      ++(reference ? accepted : rejected);
    }
    EXPECT_GT(accepted, 0) << "n=" << n;
    EXPECT_GT(rejected, 0) << "n=" << n;
  }
}

TEST(DenseCheckTest, TamperedCertificatesAreRejected) {
  std::mt19937_64 rng(7);
  std::vector<ProvedInstance> instances;
  // A prover certificate (one branch, λ = 1) and random ones.
  const LinearExpr e =
      SubmodularityExpr(4, VarSet::Of({0, 1}), VarSet::Of({1, 2, 3}));
  IIResult proved = ShannonProver(4).Prove(e);
  ASSERT_TRUE(proved.valid);
  instances.push_back({{e}, {Rational(1)}, *proved.certificate});
  for (int n = 2; n <= 6; ++n) {
    instances.push_back(RandomProvedInstance(n, rng));
  }

  for (const ProvedInstance& p : instances) {
    const int n = p.branches[0].num_vars();
    ASSERT_TRUE(p.cert.Verify(p.branches, p.lambda));
    const Rational step(BigInt(1), CommonDenominator(p.lambda, p.cert));
    for (size_t t = 0; t < p.cert.combination.size(); ++t) {
      // One weight off by 1/D, either way.
      for (const Rational& delta : {step, -step}) {
        ShannonCertificate off = p.cert;
        off.combination[t].second = off.combination[t].second + delta;
        EXPECT_FALSE(off.Verify(p.branches, p.lambda)) << "n=" << n;
      }
      // A negative weight; an appended zero weight, which leaves the sum
      // as it was.
      ShannonCertificate negative = p.cert;
      negative.combination[t].second = -negative.combination[t].second;
      EXPECT_FALSE(negative.Verify(p.branches, p.lambda)) << "n=" << n;
      ShannonCertificate zero = p.cert;
      zero.combination.push_back({zero.combination[t].first, Rational(0)});
      EXPECT_FALSE(zero.Verify(p.branches, p.lambda)) << "n=" << n;
      // One elemental swapped for another.
      for (const ElementalInequality& other : ElementalInequalities(n)) {
        if (SameElemental(other, p.cert.combination[t].first)) continue;
        ShannonCertificate swapped = p.cert;
        swapped.combination[t].first = other;
        EXPECT_FALSE(swapped.Verify(p.branches, p.lambda)) << "n=" << n;
        break;
      }
    }
    // A λ weight off by 1/D.
    for (size_t l = 0; l < p.lambda.size(); ++l) {
      if (p.branches[l].is_zero()) continue;
      std::vector<Rational> lambda = p.lambda;
      lambda[l] = lambda[l] + step;
      EXPECT_FALSE(p.cert.Verify(p.branches, lambda)) << "n=" << n;
    }
    // Shapes with nothing to check against.
    EXPECT_FALSE(p.cert.Verify({}, {}));
    std::vector<Rational> short_lambda = p.lambda;
    short_lambda.pop_back();
    EXPECT_FALSE(p.cert.Verify(p.branches, short_lambda));
  }
}

TEST(DenseCheckTest, ElementalOutsideTheVariablesIsRejected) {
  const LinearExpr e = LinearExpr::HCond(2, VarSet::Of({0}), VarSet::Of({1}));
  const Rational one(1);
  ShannonCertificate cert;
  // I(X0;X2|∅) names a third variable of a 2-variable space.
  cert.combination.push_back(
      {{ElementalInequality::Kind::kSubmodularity, 0, 2, VarSet()},
       Rational(1)});
  EXPECT_FALSE(cert.Verify({&e, 1}, {&one, 1}));
  cert.combination[0].first = {ElementalInequality::Kind::kMonotonicity, 2,
                               -1, VarSet()};
  EXPECT_FALSE(cert.Verify({&e, 1}, {&one, 1}));
}

TEST(DenseCheckTest, CertificateBeyond128BitsTakesTheBigIntTier) {
  // Branch coefficients near 2^62 and a common denominator p above 2^64:
  // D·y reaches about 2^132, so the __int128 pass overflows and the BigInt
  // pass decides, in agreement with the reference.
  const int n = 3;
  const BigInt big = BigInt::TwoToThe(62) - BigInt(1);
  const BigInt p = BigInt::TwoToThe(70) + BigInt(1);
  const ElementalInequality a{ElementalInequality::Kind::kMonotonicity, 0, -1,
                              VarSet()};
  const ElementalInequality b{ElementalInequality::Kind::kSubmodularity, 1, 2,
                              VarSet::Of({0})};
  const std::vector<LinearExpr> branches = {a.ToExpr(n) * Rational(big),
                                            b.ToExpr(n) * Rational(big)};
  const std::vector<Rational> lambda = {Rational(BigInt(1), p),
                                        Rational(p - BigInt(1), p)};
  ShannonCertificate cert;
  cert.combination.push_back({a, Rational(big, p)});
  cert.combination.push_back({b, Rational(big * (p - BigInt(1)), p)});

  ShannonCertificate off = cert;
  off.combination[0].second =
      off.combination[0].second +
      Rational(BigInt(1), CommonDenominator(lambda, cert));
  for (const ShannonCertificate* c : {&cert, &off}) {
    const bool reference = ReferenceVerify(branches, lambda, *c);
    EXPECT_EQ(reference, c == &cert);
    EXPECT_FALSE(dense::EqualsElementalSumIn<dense::Int128Ops>(
                     branches, lambda, c->combination)
                     .has_value());
    EXPECT_EQ(dense::EqualsElementalSumIn<dense::BigOps>(branches, lambda,
                                                        c->combination),
              reference);
    EXPECT_EQ(c->Verify(branches, lambda), reference);
  }

  // The same coefficients under λ = (1/2, 1/2) stay in the __int128 pass.
  const std::vector<Rational> halves = {Rational(1, 2), Rational(1, 2)};
  ShannonCertificate small;
  small.combination.push_back({a, Rational(big, BigInt(2))});
  small.combination.push_back({b, Rational(big, BigInt(2))});
  EXPECT_EQ(dense::EqualsElementalSumIn<dense::Int128Ops>(branches, halves,
                                                         small.combination),
            std::optional<bool>(true));
}

}  // namespace
}  // namespace bagcq::entropy
