#include "lp/simplex.h"

#include <map>
#include <random>

#include <gtest/gtest.h>

#include "lp/ladder_simplex.h"
#include "lp/lp_problem.h"
#include "lp/solver.h"
#include "util/rational.h"

namespace bagcq::lp {
namespace {

using util::Rational;

Rational R(int64_t n, int64_t d = 1) { return Rational(n, d); }

TEST(SimplexTest, SimpleMaximization) {
  // max 3x + 5y  s.t.  x <= 4,  2y <= 12,  3x + 2y <= 18  (classic Dantzig),
  // stated as min -3x - 5y: the optimum is -36.
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddVariable("y");
  lp.AddConstraint({R(1), R(0)}, Sense::kLessEqual, R(4));
  lp.AddConstraint({R(0), R(2)}, Sense::kLessEqual, R(12));
  lp.AddConstraint({R(3), R(2)}, Sense::kLessEqual, R(18));
  lp.SetObjective({R(-3), R(-5)});

  auto sol = SimplexSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.objective, R(-36));
  EXPECT_EQ(sol.values[0], R(2));
  EXPECT_EQ(sol.values[1], R(6));
  EXPECT_TRUE(VerifyDuals(lp, sol));
}

TEST(SimplexTest, SimpleMinimizationWithGreaterEqual) {
  // min 2x + 3y  s.t.  x + y >= 4,  x + 3y >= 6,  x,y >= 0.
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddVariable("y");
  lp.AddConstraint({R(1), R(1)}, Sense::kGreaterEqual, R(4));
  lp.AddConstraint({R(1), R(3)}, Sense::kGreaterEqual, R(6));
  lp.SetObjective({R(2), R(3)});

  auto sol = SimplexSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.objective, R(9));  // x=3, y=1
  EXPECT_EQ(sol.values[0], R(3));
  EXPECT_EQ(sol.values[1], R(1));
  EXPECT_TRUE(VerifyDuals(lp, sol));
}

TEST(SimplexTest, EqualityConstraints) {
  // min x + y  s.t.  x + 2y = 3,  x - y = 0.
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddVariable("y");
  lp.AddConstraint({R(1), R(2)}, Sense::kEqual, R(3));
  lp.AddConstraint({R(1), R(-1)}, Sense::kEqual, R(0));
  lp.SetObjective({R(1), R(1)});

  auto sol = SimplexSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.values[0], R(1));
  EXPECT_EQ(sol.values[1], R(1));
  EXPECT_EQ(sol.objective, R(2));
  EXPECT_TRUE(VerifyDuals(lp, sol));
}

TEST(SimplexTest, NegativeRhsNormalization) {
  // min x  s.t.  -x <= -3  (i.e. x >= 3).
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddConstraint({R(-1)}, Sense::kLessEqual, R(-3));
  lp.SetObjective({R(1)});

  auto sol = SimplexSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.objective, R(3));
  EXPECT_TRUE(VerifyDuals(lp, sol));
}

TEST(SimplexTest, UnboundedDetected) {
  // min -x - y  s.t.  x - y <= 1: y grows without bound.
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddVariable("y");
  lp.AddConstraint({R(1), R(-1)}, Sense::kLessEqual, R(1));
  lp.SetObjective({R(-1), R(-1)});
  auto sol = SimplexSolver().Solve(lp);
  EXPECT_EQ(sol.status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, InfeasibleWithFarkasCertificate) {
  // x + y <= 1 and x + y >= 3 cannot both hold.
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddVariable("y");
  lp.AddConstraint({R(1), R(1)}, Sense::kLessEqual, R(1));
  lp.AddConstraint({R(1), R(1)}, Sense::kGreaterEqual, R(3));
  lp.SetObjective({R(1), R(0)});

  auto sol = SimplexSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kInfeasible);
  EXPECT_TRUE(VerifyFarkas(lp, sol.farkas));
}

TEST(SimplexTest, InfeasibleEqualitySystem) {
  // x = 1, x = 2.
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddConstraint({R(1)}, Sense::kEqual, R(1));
  lp.AddConstraint({R(1)}, Sense::kEqual, R(2));
  lp.SetObjective({R(0)});
  auto sol = SimplexSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kInfeasible);
  EXPECT_TRUE(VerifyFarkas(lp, sol.farkas));
}

TEST(SimplexTest, InfeasibleByNonnegativity) {
  // x + y = -1 with x, y >= 0.
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddVariable("y");
  lp.AddConstraint({R(1), R(1)}, Sense::kEqual, R(-1));
  lp.SetObjective({R(0), R(0)});
  auto sol = SimplexSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kInfeasible);
  EXPECT_TRUE(VerifyFarkas(lp, sol.farkas));
}

TEST(SimplexTest, DegenerateBealeCycleGuard) {
  // Beale's classic cycling example; Bland's rule must terminate.
  LpProblem lp;
  for (int j = 0; j < 4; ++j) lp.AddVariable();
  lp.AddConstraint({R(1, 4), R(-8), R(-1), R(9)}, Sense::kLessEqual, R(0));
  lp.AddConstraint({R(1, 2), R(-12), R(-1, 2), R(3)}, Sense::kLessEqual, R(0));
  lp.AddConstraint({R(0), R(0), R(1), R(0)}, Sense::kLessEqual, R(1));
  lp.SetObjective({R(-3, 4), R(20), R(-1, 2), R(6)});

  auto sol = SimplexSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.objective, R(-5, 4));
  EXPECT_TRUE(VerifyDuals(lp, sol));
}

TEST(SimplexTest, RedundantConstraintsHandled) {
  // Duplicate equality rows exercise the parked-artificial path.
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddVariable("y");
  lp.AddConstraint({R(1), R(1)}, Sense::kEqual, R(2));
  lp.AddConstraint({R(1), R(1)}, Sense::kEqual, R(2));
  lp.AddConstraint({R(2), R(2)}, Sense::kEqual, R(4));
  lp.SetObjective({R(1), R(2)});
  auto sol = SimplexSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.objective, R(2));  // x=2, y=0
  EXPECT_TRUE(VerifyDuals(lp, sol));
}

TEST(SimplexTest, ZeroConstraintProblem) {
  LpProblem lp;
  lp.AddVariable("x");
  lp.SetObjective({R(1)});
  auto sol = SimplexSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.objective, R(0));

  lp.SetObjective({R(-1)});
  auto sol2 = SimplexSolver().Solve(lp);
  EXPECT_EQ(sol2.status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, DualValuesMatchShadowPrices) {
  // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6 (known shadow prices 3/4,
  // 1/2), stated as min -5x - 4y: objective -21, duals -3/4 and -1/2.
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddVariable("y");
  lp.AddConstraint({R(6), R(4)}, Sense::kLessEqual, R(24));
  lp.AddConstraint({R(1), R(2)}, Sense::kLessEqual, R(6));
  lp.SetObjective({R(-5), R(-4)});
  auto sol = SimplexSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.objective, R(-21));
  ASSERT_EQ(sol.duals.size(), 2u);
  EXPECT_EQ(sol.duals[0], R(-3, 4));
  EXPECT_EQ(sol.duals[1], R(-1, 2));
  EXPECT_TRUE(VerifyDuals(lp, sol));
}

// A random small LP: mixed senses, rhs and costs of either sign.
LpProblem RandomLp(int seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> coeff(-5, 5);
  std::uniform_int_distribution<int> nvars(1, 5);
  std::uniform_int_distribution<int> nrows(1, 6);
  std::uniform_int_distribution<int> sense_pick(0, 2);

  LpProblem lp;
  int n = nvars(rng);
  for (int j = 0; j < n; ++j) lp.AddVariable();
  int m = nrows(rng);
  for (int i = 0; i < m; ++i) {
    std::vector<Rational> row;
    for (int j = 0; j < n; ++j) row.push_back(R(coeff(rng)));
    Sense sense = static_cast<Sense>(sense_pick(rng));
    lp.AddConstraint(std::move(row), sense, R(coeff(rng)));
  }
  std::vector<Rational> obj;
  for (int j = 0; j < n; ++j) obj.push_back(R(coeff(rng)));
  lp.SetObjective(std::move(obj));
  return lp;
}

constexpr int kFirstSeed = 1;
constexpr int kLastSeed = 59;

// The sweep's seeds draw optimal, infeasible and unbounded programs.
TEST(RandomLpFamilyTest, SeedsDrawEveryStatus) {
  std::map<SolveStatus, int> count;
  for (int seed = kFirstSeed; seed <= kLastSeed; ++seed) {
    ++count[SimplexSolver().Solve(RandomLp(seed)).status];
  }
  EXPECT_GT(count[SolveStatus::kOptimal], 0);
  EXPECT_GT(count[SolveStatus::kInfeasible], 0);
  EXPECT_GT(count[SolveStatus::kUnbounded], 0);
}

// Property sweep: reference solver results must satisfy the certificate
// checks, and the production solver (lp::Solver, over the escalation ladder)
// must agree on status and value exactly.
class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, CertificatesAlwaysVerify) {
  const LpProblem lp = RandomLp(GetParam());
  auto sol = SimplexSolver().Solve(lp);
  switch (sol.status) {
    case SolveStatus::kOptimal:
      EXPECT_TRUE(VerifyDuals(lp, sol)) << lp.ToString();
      break;
    case SolveStatus::kInfeasible:
      EXPECT_TRUE(VerifyFarkas(lp, sol.farkas)) << lp.ToString();
      break;
    case SolveStatus::kUnbounded:
      break;  // nothing to verify
  }

  auto production = Solver().Solve(lp);
  EXPECT_EQ(production.status, sol.status) << lp.ToString();
  if (sol.status == SolveStatus::kOptimal) {
    EXPECT_EQ(production.objective, sol.objective) << lp.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpTest,
                         ::testing::Range(kFirstSeed, kLastSeed + 1));

// ------------------------------------------------------------- warm starts

namespace {
// min x + y  s.t.  x + 2y = 3,  x − y = 0: all-equality, so the cold path
// needs a full phase I and the terminal basis is {x, y} structural — two
// genuine installation pivots on a warm resume.
LpProblem EqualityPair() {
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddVariable("y");
  lp.AddConstraint({R(1), R(2)}, Sense::kEqual, R(3));
  lp.AddConstraint({R(1), R(-1)}, Sense::kEqual, R(0));
  lp.SetObjective({R(1), R(1)});
  return lp;
}
}  // namespace

TEST(SimplexWarmStartTest, ResumesFromOwnTerminalBasis) {
  LpProblem lp = EqualityPair();
  SimplexSolver solver;
  auto cold = solver.Solve(lp);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  ASSERT_FALSE(cold.basis.empty());
  EXPECT_FALSE(cold.warm_started);

  auto warm = solver.SolveFrom(lp, cold.basis);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.objective, cold.objective);
  EXPECT_EQ(warm.values, cold.values);
  EXPECT_TRUE(VerifyDuals(lp, warm));
  // The resume pays only installation eliminations (≤ one per row), never a
  // phase I — on this 2-row program the two happen to tie.
  EXPECT_LE(warm.pivots, cold.pivots);
}

TEST(SimplexWarmStartTest, SingularHintInstallsItsIndependentColumn) {
  LpProblem lp = EqualityPair();
  SimplexSolver solver;
  auto cold = solver.Solve(lp);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);

  // Both slots name variable x: a duplicated (hence singular) column set.
  // The first x enters; its twin is zero on the one unassigned row, so it
  // is skipped and that row keeps its artificial for phase I to drive out.
  std::vector<BasisEntry> duplicated{{BasisKind::kStructural, 0},
                                     {BasisKind::kStructural, 0}};
  auto warm = solver.SolveFrom(lp, duplicated);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.objective, cold.objective);
  EXPECT_TRUE(VerifyDuals(lp, warm));
}

TEST(SimplexWarmStartTest, HintNamingMissingColumnsIsRejected) {
  LpProblem lp = EqualityPair();
  SimplexSolver solver;
  // Equality rows have no slack columns; a wrong-length hint, or one naming
  // a variable or row the program lacks, is stale too.
  for (const std::vector<BasisEntry>& bogus :
       {std::vector<BasisEntry>{{BasisKind::kSlack, 0}, {BasisKind::kSlack, 1}},
        std::vector<BasisEntry>{{BasisKind::kStructural, 0}},
        std::vector<BasisEntry>{{BasisKind::kStructural, 5},
                                {BasisKind::kStructural, 1}},
        std::vector<BasisEntry>{{BasisKind::kArtificial, 2},
                                {BasisKind::kStructural, 1}}}) {
    auto sol = solver.SolveFrom(lp, bogus);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal);
    EXPECT_FALSE(sol.warm_started);
    EXPECT_EQ(sol.objective, R(2));
    EXPECT_TRUE(VerifyDuals(lp, sol));
  }
}

TEST(SimplexWarmStartTest, StaleBasisOnRestatedProgramStaysExact) {
  // Same shape, different data: the terminal basis of the first program is
  // installed into the second and phase II re-optimizes from there.
  LpProblem first = EqualityPair();
  LpProblem second;
  second.AddVariable("x");
  second.AddVariable("y");
  second.AddConstraint({R(2), R(1)}, Sense::kEqual, R(4));
  second.AddConstraint({R(1), R(1)}, Sense::kEqual, R(3));
  second.SetObjective({R(1), R(3)});

  SimplexSolver solver;
  auto hint = solver.Solve(first);
  ASSERT_EQ(hint.status, SolveStatus::kOptimal);
  auto cold = solver.Solve(second);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);

  auto warm = solver.SolveFrom(second, hint.basis);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_EQ(warm.objective, cold.objective);
  EXPECT_TRUE(VerifyDuals(second, warm));
}

TEST(SimplexWarmStartTest, InfeasibleHintResumesPhaseOneToFarkas) {
  // x ≤ 1 and x ≥ 2: infeasible; the terminal basis is a Farkas basis whose
  // artificial sits at a positive value, so the warm resume re-enters
  // phase I and terminates immediately with the same verdict.
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddConstraint({R(1)}, Sense::kLessEqual, R(1));
  lp.AddConstraint({R(1)}, Sense::kGreaterEqual, R(2));
  lp.SetObjective({R(1)});

  SimplexSolver solver;
  auto cold = solver.Solve(lp);
  ASSERT_EQ(cold.status, SolveStatus::kInfeasible);
  ASSERT_FALSE(cold.basis.empty());

  auto warm = solver.SolveFrom(lp, cold.basis);
  ASSERT_EQ(warm.status, SolveStatus::kInfeasible);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_TRUE(VerifyFarkas(lp, warm.farkas));
  EXPECT_LE(warm.pivots, cold.pivots);
}

TEST(SimplexWarmStartTest, PivotLimitCountsInstallationPivots) {
  LpProblem lp = EqualityPair();
  SimplexSolver reference;
  auto cold = reference.Solve(lp);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);

  // Measure the warm resume's true cost (installation + phase II pivots).
  auto warm = reference.SolveFrom(lp, cold.basis);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  ASSERT_GT(warm.pivots, 0);

  // The cap is inclusive: exactly enough pivots completes, one fewer fails
  // soft as kPivotLimit — the same semantics as a cold solve.
  SolverOptions at_cap;
  at_cap.max_pivots = warm.pivots;
  EXPECT_EQ(SimplexSolver(at_cap).SolveFrom(lp, cold.basis).status,
            SolveStatus::kOptimal);
  SolverOptions below_cap;
  below_cap.max_pivots = warm.pivots - 1;
  auto limited = SimplexSolver(below_cap).SolveFrom(lp, cold.basis);
  EXPECT_EQ(limited.status, SolveStatus::kPivotLimit);
  EXPECT_TRUE(limited.basis.empty());  // no certificate on a soft failure
}

TEST(SimplexWarmStartTest, PartlyAppliedHintPivotsCountTowardTheCap) {
  LpProblem lp = EqualityPair();
  // The duplicated hint installs x with one pivot and skips its twin; like
  // any used hint's, that install pivot counts toward max_pivots.
  std::vector<BasisEntry> duplicated{{BasisKind::kStructural, 0},
                                     {BasisKind::kStructural, 0}};
  auto warm = SimplexSolver().SolveFrom(lp, duplicated);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  ASSERT_TRUE(warm.warm_started);
  ASSERT_GT(warm.pivots, 0);

  SolverOptions at_cap;
  at_cap.max_pivots = warm.pivots;
  auto full = SimplexSolver(at_cap).SolveFrom(lp, duplicated);
  EXPECT_EQ(full.status, SolveStatus::kOptimal);
  EXPECT_EQ(full.pivots, warm.pivots);
  SolverOptions no_pivots;
  no_pivots.max_pivots = 0;
  auto limited = SimplexSolver(no_pivots).SolveFrom(lp, duplicated);
  EXPECT_EQ(limited.status, SolveStatus::kPivotLimit);
  EXPECT_TRUE(limited.warm_started);
  EXPECT_EQ(limited.pivots, 1);  // the install pivot alone passes a cap of 0
  auto ladder = LadderSimplex(no_pivots).SolveFrom(lp, duplicated);
  EXPECT_EQ(ladder.status, SolveStatus::kPivotLimit);
  EXPECT_EQ(ladder.pivots, 1);
}

namespace {
// x + y + z ≤ 2,  2x + y ≤ 1,  y + 3z ≤ 3, with objective `objective`.
// Gauss–Jordan onto the basis {x, y, z} gives x = −1, y = 3, z = 0, and
// leaves s1 = −3 basic after its first pivot.
LpProblem NegativeUnderGaussJordan(std::vector<Rational> objective) {
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddVariable("y");
  lp.AddVariable("z");
  lp.AddConstraint({R(1), R(1), R(1)}, Sense::kLessEqual, R(2));
  lp.AddConstraint({R(2), R(1), R(0)}, Sense::kLessEqual, R(1));
  lp.AddConstraint({R(0), R(1), R(3)}, Sense::kLessEqual, R(3));
  lp.SetObjective(std::move(objective));
  return lp;
}

const std::vector<BasisEntry> kStructuralBasis{{BasisKind::kStructural, 0},
                                               {BasisKind::kStructural, 1},
                                               {BasisKind::kStructural, 2}};
}  // namespace

TEST(SimplexWarmStartTest, HintThatGaussJordanMakesNegativeInstallsFeasibly) {
  // With a zero objective phase II makes no pivot, so the solution is the
  // installed basis itself. x enters at its ratio-test row 1 (x = 1/2); y's
  // ratio-test row is row 1 again, already assigned, so y is skipped; z
  // enters at row 2 (z = 1), and row 0 keeps its slack (s0 = 1/2).
  const LpProblem lp = NegativeUnderGaussJordan({R(0), R(0), R(0)});
  auto warm = SimplexSolver().SolveFrom(lp, kStructuralBasis);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.pivots, 2);
  EXPECT_EQ(warm.values, (std::vector<Rational>{R(1, 2), R(0), R(1)}));
  ASSERT_EQ(warm.basis.size(), 3u);
  EXPECT_EQ(warm.basis[0].kind, BasisKind::kSlack);
  EXPECT_EQ(warm.basis[0].index, 0);
  EXPECT_EQ(warm.basis[1].kind, BasisKind::kStructural);
  EXPECT_EQ(warm.basis[1].index, 0);
  EXPECT_EQ(warm.basis[2].kind, BasisKind::kStructural);
  EXPECT_EQ(warm.basis[2].index, 2);
  EXPECT_TRUE(VerifyDuals(lp, warm));
  auto ladder = LadderSimplex().SolveFrom(lp, kStructuralBasis);
  EXPECT_TRUE(ladder.warm_started);
  EXPECT_EQ(ladder.pivots, warm.pivots);
  EXPECT_EQ(ladder.values, warm.values);

  // With a real objective, phase II goes on from there to cold's optimum.
  const LpProblem costed = NegativeUnderGaussJordan({R(-1), R(-1), R(-1)});
  auto cold = SimplexSolver().Solve(costed);
  auto resumed = SimplexSolver().SolveFrom(costed, kStructuralBasis);
  ASSERT_EQ(resumed.status, SolveStatus::kOptimal);
  EXPECT_TRUE(resumed.warm_started);
  EXPECT_EQ(resumed.objective, cold.objective);
  EXPECT_TRUE(VerifyDuals(costed, resumed));
  EXPECT_EQ(LadderSimplex().SolveFrom(costed, kStructuralBasis).pivots,
            resumed.pivots);
}

}  // namespace
}  // namespace bagcq::lp
