// The lp::Solver contract: exact statuses and objectives, certificates that
// pass the exact verification predicates, a hard failure instead of an
// uncertified answer at the pivot cap, and keyed warm starts that never
// change an answer — with stats that account for every solve.
#include "lp/solver.h"

#include <gtest/gtest.h>

#include <random>

#include "lp/lp_problem.h"

namespace bagcq::lp {
namespace {

using util::Rational;

// Random dense LP with mixed senses, a sprinkling of free variables, and
// occasional negative rhs, so every code path of the standard-form build
// (slack signs, row flips, artificials) is exercised.
LpProblem RandomLp(int vars, int rows, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> coeff(-9, 9);
  std::uniform_int_distribution<int> pick(0, 5);
  LpProblem problem;
  for (int j = 0; j < vars; ++j) {
    if (pick(rng) == 0) {
      problem.AddFreeVariable();
    } else {
      problem.AddVariable();
    }
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Rational> row;
    for (int j = 0; j < vars; ++j) row.push_back(Rational(coeff(rng)));
    Sense sense = i % 3 == 0   ? Sense::kEqual
                  : i % 3 == 1 ? Sense::kLessEqual
                               : Sense::kGreaterEqual;
    problem.AddConstraint(std::move(row), sense, Rational(coeff(rng)));
  }
  std::vector<Rational> obj;
  for (int j = 0; j < vars; ++j) obj.push_back(Rational(coeff(rng)));
  problem.SetObjective(seed % 2 == 0 ? Objective::kMinimize
                                     : Objective::kMaximize,
                       std::move(obj));
  return problem;
}

TEST(SolverParityTest, ExactBackendNeverScreens) {
  Solver exact;
  exact.Solve(RandomLp(4, 5, 7));
  EXPECT_EQ(exact.stats().solves, 1);
  EXPECT_GT(exact.stats().exact_pivots, 0);
  exact.ResetStats();
  EXPECT_EQ(exact.stats().solves, 0);
}

TEST(SolverParityTest, TerminalBasisIsReported) {
  // min x+y s.t. x+y >= 2: optimal basis has one slot per constraint row.
  LpProblem problem;
  problem.AddVariable("x");
  problem.AddVariable("y");
  problem.AddConstraint({Rational(1), Rational(1)}, Sense::kGreaterEqual,
                        Rational(2));
  problem.SetObjective(Objective::kMinimize, {Rational(1), Rational(1)});
  auto solution = Solver().Solve(problem);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  ASSERT_EQ(solution.basis.size(), 1u);
  EXPECT_EQ(solution.basis[0].kind, BasisKind::kStructural);
}

TEST(SolverPivotLimitTest, CapIsInclusive) {
  // A solve that finishes in exactly max_pivots pivots must still succeed;
  // only needing one more fails. Scan seeds for a multi-pivot optimal case.
  LpProblem problem;
  Solution<Rational> reference;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    problem = RandomLp(6, 7, seed);
    reference = SimplexSolver<Rational>().Solve(problem);
    if (reference.status == SolveStatus::kOptimal && reference.pivots > 1) {
      break;
    }
  }
  ASSERT_EQ(reference.status, SolveStatus::kOptimal);
  ASSERT_GT(reference.pivots, 1);

  SolverOptions at_cap;
  at_cap.max_pivots = reference.pivots;
  EXPECT_EQ(SimplexSolver<Rational>(at_cap).Solve(problem).status,
            SolveStatus::kOptimal);
  SolverOptions below_cap;
  below_cap.max_pivots = reference.pivots - 1;
  EXPECT_EQ(SimplexSolver<Rational>(below_cap).Solve(problem).status,
            SolveStatus::kPivotLimit);
}

TEST(SolverPivotLimitTest, StatusHasAName) {
  EXPECT_STREQ(SolveStatusToString(SolveStatus::kPivotLimit), "PivotLimit");
}

// ------------------------------------------------------------- warm starts

TEST(SolverWarmStartTest, SolveKeyedResumesAndCounts) {
  Solver solver;
  LpProblem problem = RandomLp(5, 6, 13);
  auto first = solver.SolveKeyed(problem, "suite/shape-a");
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  EXPECT_EQ(solver.stats().warm_attempts, 0);
  EXPECT_EQ(solver.warm_slot_count(), 1u);

  auto second = solver.SolveKeyed(problem, "suite/shape-a");
  ASSERT_EQ(second.status, SolveStatus::kOptimal);
  EXPECT_EQ(second.objective, first.objective);
  EXPECT_TRUE(VerifyDuals(problem, second));
  EXPECT_EQ(solver.stats().warm_attempts, 1);
  EXPECT_EQ(solver.stats().warm_accepts, 1);
  EXPECT_GE(solver.stats().warm_pivots_saved, 0);

  // A different key never sees shape-a's basis.
  auto other = solver.SolveKeyed(problem, "suite/shape-b");
  ASSERT_EQ(other.status, SolveStatus::kOptimal);
  EXPECT_EQ(solver.stats().warm_attempts, 1);
  EXPECT_EQ(solver.warm_slot_count(), 2u);

  // Reset drops the slots; the next keyed solve runs cold again.
  solver.Reset();
  EXPECT_EQ(solver.warm_slot_count(), 0u);
  solver.SolveKeyed(problem, "suite/shape-a");
  EXPECT_EQ(solver.stats().warm_attempts, 1);
}

TEST(SolverWarmStartTest, DisabledWarmStartsAlwaysRunCold) {
  SolverOptions options;
  options.warm_starts = false;
  Solver solver(options);
  LpProblem problem = RandomLp(5, 6, 13);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(solver.SolveKeyed(problem, "suite/shape-a").status,
              SolveStatus::kOptimal);
  }
  EXPECT_EQ(solver.stats().warm_attempts, 0);
  EXPECT_EQ(solver.stats().warm_accepts, 0);
  EXPECT_EQ(solver.warm_slot_count(), 0u);
}

TEST(SolverWarmStartTest, KeyedSweepOverChangingProgramsStaysExact) {
  // One shared key over a sweep of *different* programs of one shape: every
  // solve resumes from (or rejects) the previous program's terminal basis,
  // and must stay observationally identical to a cold reference — statuses,
  // objectives, and exactly verified certificates.
  Solver keyed;
  int optimal = 0, infeasible = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    LpProblem problem = RandomLp(5, 6, seed);
    auto reference = Solver().Solve(problem);
    auto warmed = keyed.SolveKeyed(problem, "sweep/5x6");
    ASSERT_EQ(warmed.status, reference.status) << "seed " << seed;
    switch (reference.status) {
      case SolveStatus::kOptimal:
        ++optimal;
        EXPECT_EQ(warmed.objective, reference.objective) << "seed " << seed;
        EXPECT_TRUE(VerifyDuals(problem, warmed)) << "seed " << seed;
        break;
      case SolveStatus::kInfeasible:
        ++infeasible;
        EXPECT_TRUE(VerifyFarkas(problem, warmed.farkas)) << "seed " << seed;
        break;
      default:
        break;
    }
  }
  // The sweep must exercise both verdicts and genuinely hand out hints.
  // (Unrelated random programs rarely *accept* a stale basis — the
  // acceptance path is asserted on the rhs-sweep test below, which models
  // the pipeline's real traffic: one skeleton, changing data.)
  EXPECT_GT(optimal, 0);
  EXPECT_GT(infeasible, 0);
  EXPECT_GT(keyed.stats().warm_attempts, 0);
}

TEST(SolverWarmStartTest, RhsSweepAcceptsWarmBasesAcrossBackends) {
  // One constraint skeleton, rhs changing per call — the decision pipeline's
  // actual shape of repeated traffic. The previous terminal basis stays
  // feasible for every rhs here, so each keyed solve resumes warm.
  Solver solver;
  for (int c = 2; c <= 8; ++c) {
    LpProblem problem;
    problem.AddVariable("x");
    problem.AddVariable("y");
    problem.AddConstraint({Rational(1), Rational(1)}, Sense::kEqual,
                          Rational(c));
    problem.AddConstraint({Rational(1), Rational(-1)}, Sense::kEqual,
                          Rational(0));
    problem.SetObjective(Objective::kMinimize, {Rational(1), Rational(2)});
    auto sol = solver.SolveKeyed(problem, "rhs-sweep");
    ASSERT_EQ(sol.status, SolveStatus::kOptimal) << "c=" << c;
    EXPECT_EQ(sol.objective, Rational(3 * c, 2));
    EXPECT_TRUE(VerifyDuals(problem, sol));
  }
  EXPECT_EQ(solver.stats().warm_attempts, 6);
  EXPECT_EQ(solver.stats().warm_accepts, 6);
}

TEST(SolverWarmStartTest, ExplicitHintsMatchColdAcrossBackends) {
  // SolveFrom with the previous seed's basis (a deliberately stale hint):
  // accepted or rejected, the answer must match the cold reference.
  std::vector<BasisEntry> previous;
  for (uint64_t seed = 0; seed < 25; ++seed) {
    LpProblem problem = RandomLp(4, 5, seed);
    auto reference = Solver().Solve(problem);
    if (!previous.empty()) {
      Solver exact;
      auto exact_warm = exact.SolveFrom(problem, previous);
      ASSERT_EQ(exact_warm.status, reference.status) << "seed " << seed;
      if (reference.status == SolveStatus::kOptimal) {
        EXPECT_EQ(exact_warm.objective, reference.objective);
        EXPECT_TRUE(VerifyDuals(problem, exact_warm));
      } else if (reference.status == SolveStatus::kInfeasible) {
        EXPECT_TRUE(VerifyFarkas(problem, exact_warm.farkas));
      }
      EXPECT_EQ(exact.stats().warm_attempts, 1);
    }
    if (!reference.basis.empty()) previous = reference.basis;
  }
}

TEST(SolverWarmStartTest, WarmPivotsSavedAccumulatesOnRepeatedShape) {
  // Re-solving the same program under one key must save pivots relative to
  // the recorded cold baseline (a cold solve pays full phase I).
  Solver solver;
  LpProblem problem = RandomLp(6, 7, 7);
  ASSERT_EQ(solver.SolveKeyed(problem, "repeat").status,
            SolveStatus::kOptimal);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(solver.SolveKeyed(problem, "repeat").status,
              SolveStatus::kOptimal);
  }
  EXPECT_EQ(solver.stats().warm_accepts, 3);
  EXPECT_GT(solver.stats().warm_pivots_saved, 0);
}

}  // namespace
}  // namespace bagcq::lp
