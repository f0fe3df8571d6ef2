#include "entropy/max_ii.h"

#include <ostream>
#include <random>

#include <gtest/gtest.h>

#include "entropy/functions.h"
#include "entropy/known_inequalities.h"
#include "entropy/mobius.h"

namespace bagcq::entropy {
namespace {

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
  LinearExpr combined(3);
  for (size_t l = 0; l < branches.size(); ++l) {
    combined = combined + branches[l] * r.lambda[l];
  }
  EXPECT_TRUE(r.certificate->Verify(combined));
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

  MaxIIResult normal = MaxIIOracle(3, ConeKind::kNormal).Check({bad});
  ASSERT_FALSE(normal.valid);
  EXPECT_TRUE(IsNormal(*normal.counterexample));

  MaxIIResult modular = MaxIIOracle(3, ConeKind::kModular).Check({bad});
  ASSERT_FALSE(modular.valid);
  EXPECT_TRUE(modular.counterexample->IsModular());
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
  bool over_small = MaxIIOracle(p.n, small_cone).Check(branches).valid;
  EXPECT_EQ(over_gamma, over_small)
      << "Theorem 3.6 equivalence failed, seed=" << p.seed;
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

}  // namespace
}  // namespace bagcq::entropy
