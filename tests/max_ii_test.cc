#include "entropy/max_ii.h"

#include <map>
#include <ostream>
#include <random>
#include <utility>

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

// The three branches of Example 3.8 / Example 4.3 (Vee's example):
// h(X1X2X3) ≤ max(E1, E2, E3) with
//   E1 = h(X1X2) + h(X2|X1), E2 = h(X2X3) + h(X3|X2), E3 = h(X1X3) + h(X1|X3).
std::vector<LinearExpr> Example38Branches() {
  const int n = 3;
  VarSet x1 = VarSet::Of({0}), x2 = VarSet::Of({1}), x3 = VarSet::Of({2});
  std::vector<LinearExpr> exprs;
  exprs.push_back(LinearExpr::H(n, x1.Union(x2)) + LinearExpr::HCond(n, x2, x1));
  exprs.push_back(LinearExpr::H(n, x2.Union(x3)) + LinearExpr::HCond(n, x3, x2));
  exprs.push_back(LinearExpr::H(n, x1.Union(x3)) + LinearExpr::HCond(n, x1, x3));
  return BranchesForBoundedForm(n, Rational(1), exprs);
}

// An invalid generator-form result carries its counterexample as a
// decomposition Σ_W c_W h_W over generators of that cone, with every c_W > 0,
// and the dense counterexample is exactly that sum.
void ExpectDecomposedCounterexample(const MaxIIResult& r, int n,
                                    ConeKind kind) {
  ASSERT_FALSE(r.valid);
  ASSERT_TRUE(r.counterexample.has_value());
  ASSERT_FALSE(r.decomposition.empty());
  const VarSet full = VarSet::Full(n);
  for (const auto& [w, c] : r.decomposition) {
    EXPECT_TRUE(w.IsSubsetOf(full) && w != full) << w.mask();
    if (kind == ConeKind::kModular) {
      EXPECT_EQ(w.size(), n - 1) << w.mask();
    }
    EXPECT_GT(c.sign(), 0) << w.mask();
  }
  EXPECT_EQ(NormalFunction(n, r.decomposition), *r.counterexample);
  EXPECT_EQ(NormalDecomposition(*r.counterexample), r.decomposition);
}

TEST(MaxIIOracleTest, Example38ValidOverAllCones) {
  auto branches = Example38Branches();
  for (ConeKind kind :
       {ConeKind::kPolymatroid, ConeKind::kNormal, ConeKind::kModular}) {
    MaxIIResult r = MaxIIOracle(3, kind).Check(branches);
    EXPECT_TRUE(r.valid) << ConeKindToString(kind);
    EXPECT_EQ(r.lambda.size(), 3u);
  }
}

TEST(MaxIIOracleTest, Example38CertificateIsTheThirdsCombination) {
  // The paper proves it by averaging the three branches with weight 1/3;
  // any valid λ works, but the certificate must verify exactly.
  auto branches = Example38Branches();
  MaxIIResult r = MaxIIOracle(3, ConeKind::kPolymatroid).Check(branches);
  ASSERT_TRUE(r.valid);
  ASSERT_TRUE(r.certificate.has_value());
  EXPECT_TRUE(r.certificate->Verify(branches, r.lambda));
}

TEST(MaxIIOracleTest, SingleBranchOfExample38Fails) {
  auto branches = Example38Branches();
  for (const LinearExpr& single : branches) {
    MaxIIResult r = MaxIIOracle(3, ConeKind::kPolymatroid).Check({single});
    EXPECT_FALSE(r.valid);
    ASSERT_TRUE(r.counterexample.has_value());
    EXPECT_LT(r.max_at_counterexample.sign(), 0);
  }
}

TEST(MaxIIOracleTest, CounterexamplesRespectConeMembership) {
  // An invalid single inequality produces a counterexample living in the
  // right cone for each oracle.
  LinearExpr bad = LinearExpr::H(3, VarSet::Of({0})) -
                   LinearExpr::H(3, VarSet::Of({1}));
  MaxIIResult gamma = MaxIIOracle(3, ConeKind::kPolymatroid).Check({bad});
  ASSERT_FALSE(gamma.valid);
  EXPECT_TRUE(gamma.counterexample->IsPolymatroid());
  EXPECT_TRUE(gamma.decomposition.empty());

  MaxIIResult normal = MaxIIOracle(3, ConeKind::kNormal).Check({bad});
  ASSERT_FALSE(normal.valid);
  EXPECT_TRUE(IsNormal(*normal.counterexample));
  ExpectDecomposedCounterexample(normal, 3, ConeKind::kNormal);

  MaxIIResult modular = MaxIIOracle(3, ConeKind::kModular).Check({bad});
  ASSERT_FALSE(modular.valid);
  EXPECT_TRUE(modular.counterexample->IsModular());
  ExpectDecomposedCounterexample(modular, 3, ConeKind::kModular);
}

TEST(MaxIIOracleTest, ZhangYeungSeparatesNormalFromPolymatroid) {
  // ZY is valid on Nn (⊆ Γ*4) but invalid on Γ4 — simplicity matters in
  // Theorem 3.6: ZY is not of the simple conditional form.
  MaxIIResult over_normal = MaxIIOracle(4, ConeKind::kNormal).Check(
      {ZhangYeungExpr()});
  EXPECT_TRUE(over_normal.valid);
  MaxIIResult over_gamma = MaxIIOracle(4, ConeKind::kPolymatroid).Check(
      {ZhangYeungExpr()});
  EXPECT_FALSE(over_gamma.valid);
}

TEST(MaxIIOracleTest, IngletonValidOnNormalInvalidOnGamma) {
  MaxIIResult over_normal =
      MaxIIOracle(4, ConeKind::kNormal).Check({IngletonExpr()});
  EXPECT_TRUE(over_normal.valid);
  MaxIIResult over_gamma =
      MaxIIOracle(4, ConeKind::kPolymatroid).Check({IngletonExpr()});
  EXPECT_FALSE(over_gamma.valid);
}

TEST(MaxIIOracleTest, ConeGeneratorsShapes) {
  EXPECT_EQ(ConeGenerators(3, ConeKind::kNormal).size(), 7u);   // 2^3 - 1
  EXPECT_EQ(ConeGenerators(3, ConeKind::kModular).size(), 3u);  // n
  for (const SetFunction& g : ConeGenerators(3, ConeKind::kNormal)) {
    EXPECT_TRUE(IsNormal(g));
  }
  for (const SetFunction& g : ConeGenerators(3, ConeKind::kModular)) {
    EXPECT_TRUE(g.IsModular());
  }
}

TEST(MaxIIOracleTest, ValidityIsMonotoneInBranches) {
  // Adding branches can only help validity.
  auto branches = Example38Branches();
  MaxIIOracle oracle(3, ConeKind::kPolymatroid);
  ASSERT_TRUE(oracle.Check(branches).valid);
  LinearExpr hopeless = LinearExpr(3) - LinearExpr::H(3, VarSet::Full(3));
  branches.push_back(hopeless);
  EXPECT_TRUE(oracle.Check(branches).valid);
}

// ---------------------------------------------------------------------------
// Theorem 3.6 sweep: randomly generated max-inequalities of the form
// q·h(V) ≤ max_ℓ E_ℓ with conditional-expression branches. For *simple*
// branches, validity over Nn must coincide with validity over Γn; for
// *unconditioned* branches, validity over Mn must coincide with Γn.
// ---------------------------------------------------------------------------

struct SweepParams {
  int seed;
  int n;
  bool unconditioned;
};

// Prints s101_n4_uncond. Without it gtest prints the struct's raw bytes,
// padding included, and the padding differs from run to run; CTest puts
// the printed value in the test name.
void PrintTo(const SweepParams& p, std::ostream* os) {
  *os << "s" << p.seed << "_n" << p.n
      << (p.unconditioned ? "_uncond" : "_simple");
}

class Theorem36Sweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(Theorem36Sweep, ConeEquivalenceHolds) {
  const auto& p = GetParam();
  std::mt19937_64 rng(p.seed);
  std::uniform_int_distribution<int> num_branches(1, 3);
  std::uniform_int_distribution<int> num_terms(1, 3);
  std::uniform_int_distribution<uint32_t> submask(1, (1u << p.n) - 1);
  std::uniform_int_distribution<int> var(0, p.n - 1);
  std::uniform_int_distribution<int> coeff(1, 3);

  std::vector<LinearExpr> exprs;
  int k = num_branches(rng);
  for (int l = 0; l < k; ++l) {
    CondExpr e(p.n);
    int t = num_terms(rng);
    for (int i = 0; i < t; ++i) {
      VarSet y(submask(rng));
      VarSet x = p.unconditioned ? VarSet() : VarSet::Singleton(var(rng));
      if (rng() % 2) x = VarSet();  // mix in unconditioned terms
      e.Add(y, x, Rational(coeff(rng)));
    }
    ASSERT_TRUE(p.unconditioned ? e.IsUnconditioned() : e.IsSimple());
    exprs.push_back(e.ToLinear());
  }
  std::uniform_int_distribution<int> qdist(1, 2);
  auto branches = BranchesForBoundedForm(p.n, Rational(qdist(rng)), exprs);

  bool over_gamma =
      MaxIIOracle(p.n, ConeKind::kPolymatroid).Check(branches).valid;
  ConeKind small_cone =
      p.unconditioned ? ConeKind::kModular : ConeKind::kNormal;
  MaxIIResult small = MaxIIOracle(p.n, small_cone).Check(branches);
  EXPECT_EQ(over_gamma, small.valid)
      << "Theorem 3.6 equivalence failed, seed=" << p.seed;
  if (small.valid) {
    EXPECT_TRUE(small.decomposition.empty());
  } else {
    ExpectDecomposedCounterexample(small, p.n, small_cone);
  }
}

std::vector<SweepParams> MakeSweep() {
  std::vector<SweepParams> out;
  for (int seed = 1; seed <= 20; ++seed) {
    out.push_back({seed, 3, false});
    out.push_back({seed, 3, true});
    out.push_back({seed + 100, 4, false});
    out.push_back({seed + 100, 4, true});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Random, Theorem36Sweep,
                         ::testing::ValuesIn(MakeSweep()));

// Theorem 6.1 sanity: for a valid Max-II the λ weights give a single valid
// linear inequality (verified internally; here we assert its evaluation on
// exact entropic points is nonnegative).
TEST(Theorem61Test, LambdaCombinationValidOnEntropicPoints) {
  auto branches = Example38Branches();
  MaxIIResult r = MaxIIOracle(3, ConeKind::kPolymatroid).Check(branches);
  ASSERT_TRUE(r.valid);
  LinearExpr combined(3);
  for (size_t l = 0; l < branches.size(); ++l) {
    combined = combined + branches[l] * r.lambda[l];
  }
  for (const auto& family : std::vector<std::vector<uint64_t>>{
           {0b01, 0b10, 0b11}, {0b1, 0b1, 0b0}, {0b001, 0b010, 0b100}}) {
    EXPECT_GE(combined.Evaluate(GF2RankFunction(family)).sign(), 0);
  }
}

// ---------------------------------------------------------------------------
// The dense λ check over Nn and Mn (dense::NonnegativeOnSteps, which
// MaxIIOracle CHECKs) against a LinearExpr/Rational reference.
// ---------------------------------------------------------------------------

LinearExpr Combine(const std::vector<LinearExpr>& branches,
                   const std::vector<Rational>& lambda) {
  LinearExpr out(branches[0].num_vars());
  for (size_t l = 0; l < branches.size(); ++l) {
    out = out + branches[l] * lambda[l];
  }
  return out;
}

// The index sets W of the cone's generators h_W: W ⊊ V for Nn, V − {i}
// for Mn.
std::vector<VarSet> Generators(int n, ConeKind kind) {
  std::vector<VarSet> out;
  const VarSet full = VarSet::Full(n);
  for (uint64_t w = 0; w < full.mask(); ++w) {
    if (kind == ConeKind::kNormal || VarSet(w).size() == n - 1) {
      out.push_back(VarSet(w));
    }
  }
  return out;
}

// min_W e(h_W) over the cone's generators, by EvaluateOnStep.
Rational MinOnGenerators(const LinearExpr& e, ConeKind kind) {
  const std::vector<VarSet> generators = Generators(e.num_vars(), kind);
  Rational low = e.EvaluateOnStep(generators[0]);
  for (VarSet w : generators) low = std::min(low, e.EvaluateOnStep(w));
  return low;
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

// Branches and a λ with Σ_ℓ λ_ℓ·E_ℓ = target: up to two random branches,
// some with weight 0, and a last one that makes up the difference.
std::pair<std::vector<LinearExpr>, std::vector<Rational>> SplitIntoBranches(
    const LinearExpr& target, std::mt19937_64& rng) {
  std::vector<LinearExpr> branches;
  std::vector<Rational> lambda;
  LinearExpr rest = target;
  const int k = 1 + static_cast<int>(rng() % 3);
  for (int l = 0; l + 1 < k; ++l) {
    branches.push_back(RandomExpr(target.num_vars(), 3, rng));
    lambda.push_back(rng() % 3 == 0 ? Rational(0) : RandomWeight(rng));
    rest = rest - branches.back() * lambda.back();
  }
  const Rational last = RandomWeight(rng);
  branches.push_back(rest * last.Inverse());
  lambda.push_back(last);
  return {std::move(branches), std::move(lambda)};
}

// An expression whose value at each generator W of the cone is f[W]. Over
// Mn it is Σ_i f[V − {i}]·h({i}). Over Nn, E(h_W) = z[V] − z[W] with
// z[W] = Σ_{X ⊆ W} c_X, so c is the Möbius inverse of z[W] = f[∅] − f[W],
// z[V] = f[∅], which has c_∅ = z[∅] = 0.
LinearExpr WithStepValues(int n, ConeKind kind,
                          const std::map<VarSet, Rational>& f) {
  const VarSet full = VarSet::Full(n);
  LinearExpr e(n);
  if (kind == ConeKind::kModular) {
    for (int i = 0; i < n; ++i) {
      e.Add(VarSet::Singleton(i), f.at(full.Without(i)));
    }
    return e;
  }
  auto z = [&](VarSet w) {
    return w == full ? f.at(VarSet()) : f.at(VarSet()) - f.at(w);
  };
  ForEachSubset(full, [&](VarSet x) {
    Rational c;
    ForEachSubset(x, [&](VarSet y) {
      c = (x.size() - y.size()) % 2 == 0 ? c + z(y) : c - z(y);
    });
    e.Add(x, c);
  });
  return e;
}

TEST(DenseCheckTest, GeneratorCheckAgreesWithLinearExprReference) {
  std::mt19937_64 rng(2026);
  for (int n = 1; n <= 8; ++n) {
    const VarSet full = VarSet::Full(n);
    for (ConeKind kind : {ConeKind::kNormal, ConeKind::kModular}) {
      const bool co_singletons = kind == ConeKind::kModular;
      int accepted = 0;
      int rejected = 0;
      for (int round = 0; round < 40; ++round) {
        const int k = 1 + static_cast<int>(rng() % 4);
        std::vector<LinearExpr> branches;
        std::vector<Rational> lambda;
        for (int l = 0; l < k; ++l) {
          branches.push_back(RandomExpr(n, 4, rng));
          lambda.push_back(l > 0 && rng() % 4 == 0 ? Rational(0)
                                                   : RandomWeight(rng));
        }
        // Two rounds in three lift a negative minimum to exactly 0 through
        // branch 0's h(V), which is 1 at every generator.
        const Rational low = MinOnGenerators(Combine(branches, lambda), kind);
        if (round % 3 != 0 && low.sign() < 0) {
          branches[0].Add(full, -low / lambda[0]);
        }
        const bool reference =
            MinOnGenerators(Combine(branches, lambda), kind).sign() >= 0;
        EXPECT_EQ(dense::NonnegativeOnSteps(branches, lambda, co_singletons),
                  reference)
            << ConeKindToString(kind) << " n=" << n << " round=" << round;
        ++(reference ? accepted : rejected);
      }
      EXPECT_GT(accepted, 0) << ConeKindToString(kind) << " n=" << n;
      EXPECT_GT(rejected, 0) << ConeKindToString(kind) << " n=" << n;
    }
  }
}

TEST(DenseCheckTest, LambdaNegativeAtOneGeneratorIsRejected) {
  // For every generator in turn, a combination that is at least 1 at every
  // other generator and −1/3 there is rejected; 0 there is accepted.
  std::mt19937_64 rng(11);
  for (int n = 1; n <= 5; ++n) {
    for (ConeKind kind : {ConeKind::kNormal, ConeKind::kModular}) {
      const std::vector<VarSet> generators = Generators(n, kind);
      for (VarSet bad : generators) {
        for (const Rational& at_bad : {Rational(-1, 3), Rational(0)}) {
          std::map<VarSet, Rational> f;
          for (VarSet w : generators) {
            f[w] = w == bad ? at_bad
                            : Rational(static_cast<int64_t>(1 + rng() % 3));
          }
          const auto [branches, lambda] =
              SplitIntoBranches(WithStepValues(n, kind, f), rng);
          const LinearExpr combined = Combine(branches, lambda);
          for (VarSet w : generators) {
            ASSERT_EQ(combined.EvaluateOnStep(w), f[w]);
          }
          EXPECT_EQ(dense::NonnegativeOnSteps(branches, lambda,
                                              kind == ConeKind::kModular),
                    at_bad.sign() >= 0)
              << ConeKindToString(kind) << " n=" << n
              << " W=" << bad.mask();
        }
      }
    }
  }
}

TEST(DenseCheckTest, GeneratorCheckBeyond128BitsTakesTheBigIntTier) {
  // Coefficients near 2^62 under λ with a common denominator p above 2^64:
  // D·λ_ℓ·c reaches about 2^132, so the __int128 pass overflows and the
  // BigInt pass decides, in agreement with the reference.
  const int n = 3;
  const BigInt big = BigInt::TwoToThe(62) - BigInt(1);
  const BigInt p = BigInt::TwoToThe(70) + BigInt(1);
  // big·h(V) − minus·h(X0): with minus = big − 1 it is ≥ 1 at every
  // generator; with big + 1 it is −1 wherever X0 ⊄ W.
  auto branch = [n, &big](const BigInt& minus) {
    LinearExpr e(n);
    e.Add(VarSet::Full(n), Rational(big));
    e.Add(VarSet::Of({0}), -Rational(minus));
    return e;
  };
  const std::vector<Rational> lambda = {Rational(BigInt(1), p),
                                        Rational(p - BigInt(1), p)};
  const std::vector<Rational> halves = {Rational(1, 2), Rational(1, 2)};
  for (ConeKind kind : {ConeKind::kNormal, ConeKind::kModular}) {
    const bool co_singletons = kind == ConeKind::kModular;
    for (const BigInt& minus : {big - BigInt(1), big + BigInt(1)}) {
      const std::vector<LinearExpr> branches = {branch(big - BigInt(1)),
                                                branch(minus)};
      const bool reference =
          MinOnGenerators(Combine(branches, lambda), kind).sign() >= 0;
      EXPECT_EQ(reference, minus < big);
      EXPECT_FALSE(dense::NonnegativeOnStepsIn<dense::Int128Ops>(
                       branches, lambda, co_singletons)
                       .has_value());
      EXPECT_EQ(dense::NonnegativeOnStepsIn<dense::BigOps>(branches, lambda,
                                                          co_singletons),
                reference);
      EXPECT_EQ(dense::NonnegativeOnSteps(branches, lambda, co_singletons),
                reference);

      // The same coefficients under λ = (1/2, 1/2) stay in __int128.
      const bool halves_reference =
          MinOnGenerators(Combine(branches, halves), kind).sign() >= 0;
      EXPECT_EQ(dense::NonnegativeOnStepsIn<dense::Int128Ops>(branches, halves,
                                                             co_singletons),
                std::optional<bool>(halves_reference));
    }
  }
}

}  // namespace
}  // namespace bagcq::entropy
