// Differential suite for the escalation-ladder exact simplex
// (lp/ladder_simplex.h): LadderSimplex must be bit-identical to the reference
// SimplexSolver<Rational> — statuses, objectives, values, duals, Farkas
// certificates, bases, and (under Bland) pivot counts — across feasible,
// infeasible, degenerate, rational-coefficient, free-variable, and
// near-overflow (INT64_MAX/2-scale) programs, and every certificate must pass
// the exact VerifyDuals/VerifyFarkas predicates in its own right.
#include "lp/ladder_simplex.h"

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "lp/lp_problem.h"
#include "lp/simplex.h"
#include "util/rational.h"

namespace bagcq::lp {
namespace {

using util::Rational;

using ReferenceSolver = SimplexSolver<util::Rational>;

Rational R(int64_t n, int64_t d = 1) { return Rational(n, d); }

// Full-solution parity, field by field. `same_pivots` is asserted for cold
// solves (where the scaling argument guarantees an identical Bland pivot
// sequence); warm installs may count eliminations differently on scaled rows.
void ExpectParity(const LpProblem& lp, const Solution<Rational>& ladder,
                  const Solution<Rational>& reference, bool same_pivots) {
  ASSERT_EQ(ladder.status, reference.status) << lp.ToString();
  EXPECT_EQ(ladder.values, reference.values) << lp.ToString();
  EXPECT_EQ(ladder.duals, reference.duals) << lp.ToString();
  EXPECT_EQ(ladder.farkas, reference.farkas) << lp.ToString();
  if (ladder.status == SolveStatus::kOptimal) {
    EXPECT_EQ(ladder.objective, reference.objective) << lp.ToString();
    EXPECT_TRUE(VerifyDuals(lp, ladder)) << lp.ToString();
  }
  if (ladder.status == SolveStatus::kInfeasible) {
    EXPECT_TRUE(VerifyFarkas(lp, ladder.farkas)) << lp.ToString();
  }
  ASSERT_EQ(ladder.basis.size(), reference.basis.size()) << lp.ToString();
  for (size_t i = 0; i < ladder.basis.size(); ++i) {
    EXPECT_EQ(ladder.basis[i].kind, reference.basis[i].kind);
    EXPECT_EQ(ladder.basis[i].index, reference.basis[i].index);
  }
  if (same_pivots) {
    EXPECT_EQ(ladder.pivots, reference.pivots) << lp.ToString();
  }
}

// Random LP in the decision pipeline's shape envelope. `rational_coeffs`
// exercises the integerization path (row lcm scaling, T*/t_i phase-I costs);
// integer coefficients take the direct word-tier fill.
LpProblem RandomLp(uint64_t seed, bool rational_coeffs) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> coeff(-6, 6);
  std::uniform_int_distribution<int> denom(1, 6);
  std::uniform_int_distribution<int> nvars(1, 6);
  std::uniform_int_distribution<int> nrows(1, 7);
  std::uniform_int_distribution<int> sense_pick(0, 2);
  std::uniform_int_distribution<int> free_pick(0, 4);

  LpProblem lp;
  const int n = nvars(rng);
  for (int j = 0; j < n; ++j) {
    if (free_pick(rng) == 0) {
      lp.AddFreeVariable();
    } else {
      lp.AddVariable();
    }
  }
  auto draw = [&] {
    return rational_coeffs ? R(coeff(rng), denom(rng)) : R(coeff(rng));
  };
  const int m = nrows(rng);
  for (int i = 0; i < m; ++i) {
    std::vector<Rational> row;
    for (int j = 0; j < n; ++j) row.push_back(draw());
    lp.AddConstraint(std::move(row), static_cast<Sense>(sense_pick(rng)),
                     draw());
  }
  std::vector<Rational> obj;
  for (int j = 0; j < n; ++j) obj.push_back(draw());
  lp.SetObjective(seed % 2 ? Objective::kMaximize : Objective::kMinimize,
                  std::move(obj));
  return lp;
}

class LadderDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(LadderDifferentialTest, IntegerProgramsMatchReference) {
  const LpProblem lp = RandomLp(GetParam(), /*rational_coeffs=*/false);
  LadderSimplex ladder;
  ReferenceSolver reference;
  const auto fast = ladder.Solve(lp);
  const auto slow = reference.Solve(lp);
  ExpectParity(lp, fast, slow, /*same_pivots=*/true);
  // Small integer input never leaves the word tier.
  EXPECT_EQ(fast.word_pivots, fast.pivots);
  EXPECT_EQ(fast.wide_pivots, 0);
  EXPECT_EQ(fast.bigint_promotions, 0);
}

TEST_P(LadderDifferentialTest, RationalProgramsMatchReference) {
  const LpProblem lp = RandomLp(GetParam(), /*rational_coeffs=*/true);
  LadderSimplex ladder;
  ReferenceSolver reference;
  ExpectParity(lp, ladder.Solve(lp), reference.Solve(lp),
               /*same_pivots=*/true);
}

TEST_P(LadderDifferentialTest, DantzigIntegerProgramsMatchReference) {
  // Dantzig magnitude comparisons are scale-sensitive, so sequence parity is
  // only promised on integer input (all row scales 1).
  SolverOptions options;
  options.pivot_rule = PivotRule::kDantzig;
  const LpProblem lp = RandomLp(GetParam(), /*rational_coeffs=*/false);
  LadderSimplex ladder(options);
  ReferenceSolver reference(options);
  ExpectParity(lp, ladder.Solve(lp), reference.Solve(lp),
               /*same_pivots=*/true);
}

TEST_P(LadderDifferentialTest, WarmStartMatchesReference) {
  // Solve cold, then resume both solvers from the cold basis on a same-shape
  // program with a perturbed rhs — the SolveKeyed traffic pattern.
  LpProblem lp = RandomLp(GetParam(), /*rational_coeffs=*/false);
  LadderSimplex ladder;
  ReferenceSolver reference;
  const auto cold = ladder.Solve(lp);
  ASSERT_EQ(cold.status, reference.Solve(lp).status);
  if (cold.basis.empty()) return;  // unbounded/capped: nothing to resume from

  std::mt19937_64 rng(GetParam() * 977);
  std::uniform_int_distribution<int> bump(-2, 2);
  LpProblem perturbed;
  for (int j = 0; j < lp.num_variables(); ++j) {
    if (lp.variable_is_free(j)) {
      perturbed.AddFreeVariable();
    } else {
      perturbed.AddVariable();
    }
  }
  for (const Constraint& row : lp.constraints()) {
    perturbed.AddConstraint(row.coeffs, row.sense, row.rhs + R(bump(rng)));
  }
  perturbed.SetObjective(lp.objective_sense(), lp.objective());
  const auto fast = ladder.SolveFrom(perturbed, cold.basis);
  const auto slow = reference.SolveFrom(perturbed, cold.basis);
  EXPECT_EQ(fast.warm_started, slow.warm_started);
  ExpectParity(perturbed, fast, slow, /*same_pivots=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LadderDifferentialTest,
                         ::testing::Range(1, 41));

// ------------------------------------------------------------ escalation

// Near-overflow coefficients (INT64_MAX/2 scale): the input still fits the
// word tier, but the first fraction-free cross-multiplication exceeds 63 bits
// and must escalate — losslessly — mid-pivot.
TEST(LadderEscalationTest, NearOverflowProgramsEscalateAndMatchReference) {
  const int64_t kHuge = INT64_MAX / 2;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int64_t> coeff(kHuge - 64, kHuge);
    std::uniform_int_distribution<int> sign(0, 1);
    std::uniform_int_distribution<int> sense_pick(0, 2);
    LpProblem lp;
    const int n = 4, m = 5;
    for (int j = 0; j < n; ++j) lp.AddVariable();
    for (int i = 0; i < m; ++i) {
      std::vector<Rational> row;
      for (int j = 0; j < n; ++j) {
        row.push_back(R(sign(rng) ? coeff(rng) : -coeff(rng)));
      }
      lp.AddConstraint(std::move(row), static_cast<Sense>(sense_pick(rng)),
                       R(coeff(rng)));
    }
    std::vector<Rational> obj;
    for (int j = 0; j < n; ++j) obj.push_back(R(sign(rng) ? 1 : -1));
    lp.SetObjective(Objective::kMinimize, std::move(obj));

    LadderSimplex ladder;
    ReferenceSolver reference;
    const auto fast = ladder.Solve(lp);
    const auto slow = reference.Solve(lp);
    ExpectParity(lp, fast, slow, /*same_pivots=*/true);
    if (fast.pivots > 0) {
      // 62-bit entries cannot complete a fraction-free pivot in int64.
      EXPECT_LT(fast.word_pivots, fast.pivots) << "seed " << seed;
    }
  }
}

TEST(LadderEscalationTest, DeepPivotingPromotesToBigInt) {
  // Dense 6×6 with ~2^61 entries: fraction-free subdeterminants blow past
  // 126 bits within a few pivots, forcing the BigInt rung. The result must
  // still match the reference exactly.
  const int64_t kHuge = INT64_MAX / 2;
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int64_t> coeff(kHuge / 2, kHuge);
  std::uniform_int_distribution<int> sign(0, 1);
  LpProblem lp;
  const int n = 6, m = 6;
  for (int j = 0; j < n; ++j) lp.AddVariable();
  for (int i = 0; i < m; ++i) {
    std::vector<Rational> row;
    for (int j = 0; j < n; ++j) {
      row.push_back(R(sign(rng) ? coeff(rng) : -coeff(rng)));
    }
    lp.AddConstraint(std::move(row), Sense::kLessEqual, R(coeff(rng)));
  }
  std::vector<Rational> obj(n, R(-1));
  lp.SetObjective(Objective::kMinimize, std::move(obj));

  LadderSimplex ladder;
  ReferenceSolver reference;
  const auto fast = ladder.Solve(lp);
  ExpectParity(lp, fast, reference.Solve(lp), /*same_pivots=*/true);
  if (kHasWideTier) {
    EXPECT_GE(fast.bigint_promotions + fast.wide_pivots, 1);
  } else {
    EXPECT_GE(fast.bigint_promotions, 1);
  }
}

TEST(LadderEscalationTest, PivotLimitFailsSoftLikeReference) {
  SolverOptions options;
  options.max_pivots = 1;
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddVariable("y");
  lp.AddConstraint({R(1), R(1)}, Sense::kGreaterEqual, R(4));
  lp.AddConstraint({R(1), R(3)}, Sense::kGreaterEqual, R(6));
  lp.SetObjective(Objective::kMinimize, {R(2), R(3)});
  const auto fast = LadderSimplex(options).Solve(lp);
  const auto slow = ReferenceSolver(options).Solve(lp);
  EXPECT_EQ(fast.status, SolveStatus::kPivotLimit);
  EXPECT_EQ(fast.status, slow.status);
  EXPECT_EQ(fast.pivots, slow.pivots);
}

// ------------------------------------------------------------ workspace

TEST(LadderWorkspaceTest, ArenaIsReusedAcrossSolvesAndReleased) {
  LadderSimplex session;
  for (int round = 0; round < 3; ++round) {
    const LpProblem lp = RandomLp(17, /*rational_coeffs=*/false);
    const auto sol = session.Solve(lp);
    const auto fresh = LadderSimplex().Solve(lp);
    EXPECT_EQ(sol.status, fresh.status);
    EXPECT_EQ(sol.values, fresh.values);
    EXPECT_EQ(sol.pivots, fresh.pivots);
  }
  EXPECT_GT(session.workspace().RetainedBytes(), 0u);
  session.Reset();
  EXPECT_EQ(session.workspace().RetainedBytes(), 0u);
  // A post-Reset solve starts cold and still answers correctly.
  const LpProblem lp = RandomLp(18, /*rational_coeffs=*/true);
  EXPECT_EQ(session.Solve(lp).status, ReferenceSolver().Solve(lp).status);
}

TEST(LadderDispatchTest, TierNamesAreStable) {
  EXPECT_STREQ(LadderTierToString(LadderTier::kWord), "word");
  EXPECT_STREQ(LadderTierToString(LadderTier::kWide), "wide");
  EXPECT_STREQ(LadderTierToString(LadderTier::kBig), "big");
}

}  // namespace
}  // namespace bagcq::lp
