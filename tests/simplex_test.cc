#include "lp/simplex.h"

#include <random>

#include <gtest/gtest.h>

#include "lp/lp_problem.h"
#include "lp/solver.h"
#include "util/rational.h"

namespace bagcq::lp {
namespace {

using util::Rational;

using RationalSolver = SimplexSolver<util::Rational>;

Rational R(int64_t n, int64_t d = 1) { return Rational(n, d); }

TEST(SimplexTest, SimpleMaximization) {
  // max 3x + 5y  s.t.  x <= 4,  2y <= 12,  3x + 2y <= 18  (classic Dantzig).
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddVariable("y");
  lp.AddConstraint({R(1), R(0)}, Sense::kLessEqual, R(4));
  lp.AddConstraint({R(0), R(2)}, Sense::kLessEqual, R(12));
  lp.AddConstraint({R(3), R(2)}, Sense::kLessEqual, R(18));
  lp.SetObjective(Objective::kMaximize, {R(3), R(5)});

  auto sol = RationalSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.objective, R(36));
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
  lp.SetObjective(Objective::kMinimize, {R(2), R(3)});

  auto sol = RationalSolver().Solve(lp);
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
  lp.SetObjective(Objective::kMinimize, {R(1), R(1)});

  auto sol = RationalSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.values[0], R(1));
  EXPECT_EQ(sol.values[1], R(1));
  EXPECT_EQ(sol.objective, R(2));
  EXPECT_TRUE(VerifyDuals(lp, sol));
}

TEST(SimplexTest, FreeVariables) {
  // min x + y with free x: x + y = -5, y >= 0 forces x = -5 at y = 0.
  LpProblem lp;
  lp.AddFreeVariable("x");
  lp.AddVariable("y");
  lp.AddConstraint({R(1), R(1)}, Sense::kEqual, R(-5));
  lp.SetObjective(Objective::kMinimize, {R(1), R(1)});

  auto sol = RationalSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.objective, R(-5));
  EXPECT_TRUE(VerifyDuals(lp, sol));
}

TEST(SimplexTest, NegativeRhsNormalization) {
  // min x  s.t.  -x <= -3  (i.e. x >= 3).
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddConstraint({R(-1)}, Sense::kLessEqual, R(-3));
  lp.SetObjective(Objective::kMinimize, {R(1)});

  auto sol = RationalSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.objective, R(3));
  EXPECT_TRUE(VerifyDuals(lp, sol));
}

TEST(SimplexTest, UnboundedDetected) {
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddVariable("y");
  lp.AddConstraint({R(1), R(-1)}, Sense::kLessEqual, R(1));
  lp.SetObjective(Objective::kMaximize, {R(1), R(1)});
  auto sol = RationalSolver().Solve(lp);
  EXPECT_EQ(sol.status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, InfeasibleWithFarkasCertificate) {
  // x + y <= 1 and x + y >= 3 cannot both hold.
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddVariable("y");
  lp.AddConstraint({R(1), R(1)}, Sense::kLessEqual, R(1));
  lp.AddConstraint({R(1), R(1)}, Sense::kGreaterEqual, R(3));
  lp.SetObjective(Objective::kMinimize, {R(1), R(0)});

  auto sol = RationalSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kInfeasible);
  EXPECT_TRUE(VerifyFarkas(lp, sol.farkas));
}

TEST(SimplexTest, InfeasibleEqualitySystem) {
  // x = 1, x = 2.
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddConstraint({R(1)}, Sense::kEqual, R(1));
  lp.AddConstraint({R(1)}, Sense::kEqual, R(2));
  lp.SetObjective(Objective::kMinimize, {R(0)});
  auto sol = RationalSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kInfeasible);
  EXPECT_TRUE(VerifyFarkas(lp, sol.farkas));
}

TEST(SimplexTest, InfeasibleByNonnegativity) {
  // x + y = -1 with x, y >= 0.
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddVariable("y");
  lp.AddConstraint({R(1), R(1)}, Sense::kEqual, R(-1));
  lp.SetObjective(Objective::kMinimize, {R(0), R(0)});
  auto sol = RationalSolver().Solve(lp);
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
  lp.SetObjective(Objective::kMinimize,
                  {R(-3, 4), R(20), R(-1, 2), R(6)});

  auto sol = RationalSolver().Solve(lp);
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
  lp.SetObjective(Objective::kMinimize, {R(1), R(2)});
  auto sol = RationalSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.objective, R(2));  // x=2, y=0
  EXPECT_TRUE(VerifyDuals(lp, sol));
}

TEST(SimplexTest, ZeroConstraintProblem) {
  LpProblem lp;
  lp.AddVariable("x");
  lp.SetObjective(Objective::kMinimize, {R(1)});
  auto sol = RationalSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.objective, R(0));

  lp.SetObjective(Objective::kMaximize, {R(1)});
  auto sol2 = RationalSolver().Solve(lp);
  EXPECT_EQ(sol2.status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, DualValuesMatchShadowPrices) {
  // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6. Known duals 3/4, 1/2.
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddVariable("y");
  lp.AddConstraint({R(6), R(4)}, Sense::kLessEqual, R(24));
  lp.AddConstraint({R(1), R(2)}, Sense::kLessEqual, R(6));
  lp.SetObjective(Objective::kMaximize, {R(5), R(4)});
  auto sol = RationalSolver().Solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.objective, R(21));
  ASSERT_EQ(sol.duals.size(), 2u);
  EXPECT_EQ(sol.duals[0], R(3, 4));
  EXPECT_EQ(sol.duals[1], R(1, 2));
  EXPECT_TRUE(VerifyDuals(lp, sol));
}

// Property sweep: random small LPs; reference solver results must satisfy
// the certificate checks, and the production solver (lp::Solver, over the
// escalation ladder) must agree on status and value exactly.
class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, CertificatesAlwaysVerify) {
  std::mt19937_64 rng(GetParam());
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
  lp.SetObjective(GetParam() % 2 ? Objective::kMaximize : Objective::kMinimize,
                  std::move(obj));

  auto sol = RationalSolver().Solve(lp);
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

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpTest, ::testing::Range(1, 60));

TEST(SimplexWorkspaceTest, ReusedSolverMatchesFreshSolver) {
  // A long-lived solver must give bit-identical answers while retaining its
  // tableau capacity across solves of different shapes and senses.
  RationalSolver session;
  for (int round = 0; round < 3; ++round) {
    for (int size : {2, 5, 3}) {
      LpProblem lp;
      for (int j = 0; j < size; ++j) lp.AddVariable();
      std::vector<Rational> obj;
      for (int j = 0; j < size; ++j) {
        std::vector<Rational> row(size, R(0));
        row[j] = R(1);
        if (j + 1 < size) row[j + 1] = R(1);
        lp.AddConstraint(std::move(row), Sense::kLessEqual, R(j + 2));
        obj.push_back(R(1 + (j % 3)));
      }
      lp.SetObjective(Objective::kMaximize, std::move(obj));

      auto reused = session.Solve(lp);
      auto fresh = RationalSolver().Solve(lp);
      ASSERT_EQ(reused.status, fresh.status);
      ASSERT_EQ(reused.status, SolveStatus::kOptimal);
      EXPECT_EQ(reused.objective, fresh.objective);
      EXPECT_EQ(reused.values, fresh.values);
      EXPECT_EQ(reused.duals, fresh.duals);
      EXPECT_EQ(reused.pivots, fresh.pivots);
      EXPECT_TRUE(VerifyDuals(lp, reused));
    }
  }
  EXPECT_EQ(session.solves(), 9);
  EXPECT_GT(session.workspace().RetainedRowCapacity(), 0u);

  session.Reset();
  EXPECT_EQ(session.workspace().RetainedRowCapacity(), 0u);
  // Still solves after a Reset.
  LpProblem lp;
  lp.AddVariable();
  lp.AddConstraint({R(1)}, Sense::kLessEqual, R(7));
  lp.SetObjective(Objective::kMaximize, {R(1)});
  EXPECT_EQ(session.Solve(lp).objective, R(7));
}

TEST(SimplexWorkspaceTest, InfeasibleThenFeasibleReuse) {
  // Artificial bookkeeping must reset between solves: an infeasible program
  // (which leaves artificials in play) followed by a feasible one.
  RationalSolver session;
  LpProblem infeasible;
  infeasible.AddVariable();
  infeasible.AddConstraint({R(1)}, Sense::kLessEqual, R(1));
  infeasible.AddConstraint({R(1)}, Sense::kGreaterEqual, R(2));
  infeasible.SetObjective(Objective::kMaximize, {R(1)});
  auto bad = session.Solve(infeasible);
  EXPECT_EQ(bad.status, SolveStatus::kInfeasible);
  EXPECT_TRUE(VerifyFarkas(infeasible, bad.farkas));

  LpProblem feasible;
  feasible.AddVariable();
  feasible.AddConstraint({R(1)}, Sense::kLessEqual, R(3));
  feasible.SetObjective(Objective::kMaximize, {R(2)});
  auto good = session.Solve(feasible);
  ASSERT_EQ(good.status, SolveStatus::kOptimal);
  EXPECT_EQ(good.objective, R(6));
  EXPECT_TRUE(VerifyDuals(feasible, good));
}

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
  lp.SetObjective(Objective::kMinimize, {R(1), R(1)});
  return lp;
}
}  // namespace

TEST(SimplexWarmStartTest, ResumesFromOwnTerminalBasis) {
  LpProblem lp = EqualityPair();
  RationalSolver solver;
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

TEST(SimplexWarmStartTest, SingularHintFallsBackToColdPath) {
  LpProblem lp = EqualityPair();
  RationalSolver solver;
  auto cold = solver.Solve(lp);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);

  // Both slots name variable x: a duplicated (hence singular) column set.
  std::vector<BasisEntry> bogus{{BasisKind::kStructural, 0},
                                {BasisKind::kStructural, 0}};
  auto fallback = solver.SolveFrom(lp, bogus);
  ASSERT_EQ(fallback.status, SolveStatus::kOptimal);
  EXPECT_FALSE(fallback.warm_started);
  EXPECT_EQ(fallback.objective, cold.objective);
  EXPECT_TRUE(VerifyDuals(lp, fallback));
}

TEST(SimplexWarmStartTest, HintNamingMissingColumnsIsRejected) {
  LpProblem lp = EqualityPair();
  RationalSolver solver;
  // Equality rows have no slack columns; a wrong-length hint is stale too.
  for (const std::vector<BasisEntry>& bogus :
       {std::vector<BasisEntry>{{BasisKind::kSlack, 0}, {BasisKind::kSlack, 1}},
        std::vector<BasisEntry>{{BasisKind::kStructural, 0}},
        std::vector<BasisEntry>{{BasisKind::kStructural, 5},
                                {BasisKind::kStructural, 1}},
        std::vector<BasisEntry>{{BasisKind::kNegStructural, 0},
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
  second.SetObjective(Objective::kMinimize, {R(1), R(3)});

  RationalSolver solver;
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
  lp.SetObjective(Objective::kMinimize, {R(1)});

  RationalSolver solver;
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
  RationalSolver reference;
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
  EXPECT_EQ(RationalSolver(at_cap).SolveFrom(lp, cold.basis).status,
            SolveStatus::kOptimal);
  SolverOptions below_cap;
  below_cap.max_pivots = warm.pivots - 1;
  auto limited = RationalSolver(below_cap).SolveFrom(lp, cold.basis);
  EXPECT_EQ(limited.status, SolveStatus::kPivotLimit);
  EXPECT_TRUE(limited.basis.empty());  // no certificate on a soft failure
}

TEST(SimplexWarmStartTest, RejectedHintDoesNotEatThePivotBudget) {
  LpProblem lp = EqualityPair();
  auto cold = RationalSolver().Solve(lp);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  // The duplicated hint burns an elimination before rejection; under a cap
  // the cold solve needs exactly, the fallback must still complete — wasted
  // install work may not count against the budget (or SolveFrom could fail
  // programs that Solve finishes).
  std::vector<BasisEntry> bogus{{BasisKind::kStructural, 0},
                                {BasisKind::kStructural, 0}};
  SolverOptions at_cap;
  at_cap.max_pivots = cold.pivots;
  auto sol = RationalSolver(at_cap).SolveFrom(lp, bogus);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_FALSE(sol.warm_started);
  EXPECT_EQ(sol.pivots, cold.pivots);
}

}  // namespace
}  // namespace bagcq::lp
