// Differential suite for the escalation-ladder exact simplex
// (lp/ladder_simplex.h): LadderSimplex must be bit-identical to the reference
// SimplexSolver<Rational> — statuses, objectives, values, duals, Farkas
// certificates, bases, and pivot counts — across feasible, infeasible,
// degenerate, rational-coefficient, free-variable, near-overflow
// (INT64_MAX/2-scale) and wider-than-word programs, and every certificate
// must pass the exact VerifyDuals/VerifyFarkas predicates in its own right.
// Integer input (IntegerProgram) must match the reference on the equivalent
// LpProblem, on the decision procedure's own LPs included.
#include "lp/ladder_simplex.h"

#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/containment_inequality.h"
#include "cq/homomorphism.h"
#include "cq/transforms.h"
#include "cq/workload.h"
#include "entropy/elemental.h"
#include "entropy/max_ii.h"
#include "lp/lp_problem.h"
#include "lp/simplex.h"
#include "util/bigint.h"
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

// A feasible, bounded LP whose integerized data need about `rhs_bits` + 3
// bits: small positive rational coefficients (row scales at most 6) and
// right-hand sides near 2^rhs_bits. The >= row needs phase I; the positive
// objective is maximized, so the solve pivots. The coefficients keep every
// fraction-free product within ~20 bits of the rhs, so the solve finishes
// in the tier it starts in.
LpProblem WideRhsLp(uint64_t seed, uint64_t rhs_bits) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> coeff(1, 3);
  std::uniform_int_distribution<int> denom(1, 3);
  std::uniform_int_distribution<int64_t> jitter(0, int64_t{1} << 20);
  const int n = 3;
  auto row = [&] {
    std::vector<Rational> out;
    for (int j = 0; j < n; ++j) out.push_back(R(coeff(rng), denom(rng)));
    return out;
  };
  auto rhs = [&](uint64_t bits) {
    return Rational(util::BigInt::TwoToThe(bits) + util::BigInt(jitter(rng)),
                    util::BigInt(denom(rng)));
  };
  LpProblem lp;
  for (int j = 0; j < n; ++j) lp.AddVariable();
  // x = 2^(rhs_bits-5)·(1,1,1) is feasible: the >= row sums to at least
  // 2^(rhs_bits-5), the <= rows to at most 9·2^(rhs_bits-5) < 2^rhs_bits/3.
  lp.AddConstraint(row(), Sense::kGreaterEqual, rhs(rhs_bits - 6));
  lp.AddConstraint(row(), Sense::kLessEqual, rhs(rhs_bits));
  lp.AddConstraint(row(), Sense::kLessEqual, rhs(rhs_bits));
  lp.SetObjective(Objective::kMaximize, row());
  return lp;
}

// The staged fill starts a solve in the smallest tier that holds its
// integerized data. 63-126 bits start in the 128-bit tier (BigInt where
// there is none), so no pivot is tallied in the word tier.
TEST(LadderEscalationTest, WideDataStartInTheWideTier) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const LpProblem lp = WideRhsLp(seed, /*rhs_bits=*/80);
    LadderSimplex ladder;
    ReferenceSolver reference;
    const auto fast = ladder.Solve(lp);
    ExpectParity(lp, fast, reference.Solve(lp), /*same_pivots=*/true);
    EXPECT_EQ(fast.status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_GT(fast.pivots, 0) << "seed " << seed;
    EXPECT_EQ(fast.word_pivots, 0) << "seed " << seed;
    EXPECT_EQ(fast.bigint_promotions, 0) << "seed " << seed;
    if (kHasWideTier) {
      EXPECT_GE(fast.wide_pivots, fast.pivots) << "seed " << seed;
    } else {
      EXPECT_EQ(fast.wide_pivots, 0) << "seed " << seed;
    }
  }
}

// More than 126 bits start in BigInt: nothing is tallied in either machine
// tier, and nothing is promoted, because the solve is already at the top.
TEST(LadderEscalationTest, HugeDataStartInBigInt) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const LpProblem lp = WideRhsLp(seed, /*rhs_bits=*/140);
    LadderSimplex ladder;
    ReferenceSolver reference;
    const auto fast = ladder.Solve(lp);
    ExpectParity(lp, fast, reference.Solve(lp), /*same_pivots=*/true);
    EXPECT_EQ(fast.status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_GT(fast.pivots, 0) << "seed " << seed;
    EXPECT_EQ(fast.word_pivots, 0) << "seed " << seed;
    EXPECT_EQ(fast.wide_pivots, 0) << "seed " << seed;
    EXPECT_EQ(fast.bigint_promotions, 0) << "seed " << seed;
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

// ------------------------------------------------------- integer input

// The Eq. (8) branches of seeded generated pairs whose entropy space has n
// variables, reduced as the decider reduces them.
std::vector<std::vector<entropy::LinearExpr>> DecisionBranches(int n) {
  std::vector<std::vector<entropy::LinearExpr>> out;
  for (cq::ShapeRegime regime :
       {cq::ShapeRegime::kAcyclic, cq::ShapeRegime::kCyclic}) {
    if (regime == cq::ShapeRegime::kCyclic && n < 3) continue;
    cq::WorkloadOptions options;
    options.seed = 900 + n;
    options.min_vars = options.max_vars = n;
    options.contained_fraction = 0.75;
    options.regime = regime;
    cq::WorkloadGenerator generator(options);
    for (int tries = 0, taken = 0; taken < 4 && tries < 40; ++tries) {
      const cq::GeneratedPair g = generator.Next();
      cq::ConjunctiveQuery q1 = cq::RemoveDuplicateAtoms(g.pair.q1);
      cq::ConjunctiveQuery q2 = cq::RemoveDuplicateAtoms(g.pair.q2);
      if (!q1.IsBoolean()) std::tie(q1, q2) = cq::MakeBooleanPair(q1, q2);
      if (q1.num_vars() != n || cq::QueryHomomorphisms(q2, q1).empty()) {
        continue;
      }
      auto inequality = core::BuildContainmentInequality(q1, q2);
      if (!inequality.ok()) continue;
      out.push_back(std::move(inequality).ValueOrDie().branches);
      ++taken;
    }
  }
  return out;
}

// Ladder on `program` against the reference on the equivalent `lp`: cold,
// then warm from the previous basis of the same shape (`key`), both
// starting from that one basis.
void ExpectIntegerParity(const std::string& key, const IntegerProgram& program,
                         const LpProblem& lp,
                         std::map<std::string, std::vector<BasisEntry>>* bases,
                         int* warm_solves) {
  LadderSimplex ladder;
  ReferenceSolver reference;
  const auto cold = ladder.Solve(program);
  ExpectParity(lp, cold, reference.Solve(lp), /*same_pivots=*/true);
  // Decision LPs have entries of a few bits: they never leave the word tier.
  EXPECT_EQ(cold.wide_pivots, 0) << key;
  EXPECT_EQ(cold.bigint_promotions, 0) << key;
  auto it = bases->find(key);
  if (it != bases->end()) {
    const auto fast = ladder.SolveFrom(program, it->second);
    const auto slow = reference.SolveFrom(lp, it->second);
    EXPECT_EQ(fast.warm_started, slow.warm_started) << key;
    ExpectParity(lp, fast, slow, /*same_pivots=*/true);
    ++*warm_solves;
  }
  if (!cold.basis.empty()) (*bases)[key] = cold.basis;
}

class LadderIntegerProgramTest : public ::testing::TestWithParam<int> {};

// The Γn LP and the Nn/Mn generator LPs of real decisions, built by the
// entropy layer in both input forms: the ladder on the IntegerProgram must
// match the reference on the LpProblem, pivot counts included — on tableaux
// as large as Γ6's 64 rows, where most pivots are sparse unit pivots.
TEST_P(LadderIntegerProgramTest, DecisionLpsMatchReference) {
  const int n = GetParam();
  const std::vector<entropy::ElementalColumn> columns =
      entropy::ElementalColumns(n, entropy::ElementalInequalities(n));
  std::map<std::string, std::vector<BasisEntry>> bases;
  int solves = 0;
  int warm_solves = 0;
  for (const std::vector<entropy::LinearExpr>& branches : DecisionBranches(n)) {
    const std::string k = "/k=" + std::to_string(branches.size());
    const std::optional<IntegerProgram> gamma =
        entropy::GammaIntegerProgram(n, columns, branches);
    ASSERT_TRUE(gamma.has_value()) << "Eq. (8) branches are integral";
    ExpectIntegerParity("gamma" + k, *gamma,
                        entropy::GammaLpProblem(n, columns, branches), &bases,
                        &warm_solves);
    for (entropy::ConeKind kind :
         {entropy::ConeKind::kNormal, entropy::ConeKind::kModular}) {
      const std::optional<IntegerProgram> generators =
          entropy::GeneratorIntegerProgram(n, kind, branches);
      ASSERT_TRUE(generators.has_value());
      ExpectIntegerParity(
          std::string(entropy::ConeKindToString(kind)) + k, *generators,
          entropy::GeneratorLpProblem(n, kind, branches), &bases,
          &warm_solves);
    }
    solves += 3;
  }
  EXPECT_GE(solves, 12) << "too few generated pairs at n = " << n;
  EXPECT_GE(warm_solves, 1) << "no shape repeated at n = " << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, LadderIntegerProgramTest,
                         ::testing::Range(2, 7));

// The first pivot is a unit pivot (piv = d = 1) whose update of the cost
// row overflows int64 at the rhs column, its last support column: the
// promotion happens inside the sparse loop after four committed cells of
// that row, and the pivot resumes in the wide tier at the rhs. The cells
// before it include row 0's slack column, from which row 0's dual is read,
// so a resume that recomputed a committed cell would change the duals.
TEST(LadderIntegerProgramTest, UnitPivotPromotesMidRow) {
  const int64_t kHuge = (int64_t{1} << 60) + 3;
  IntegerProgram program;
  LpProblem lp;
  // x0 enters first (Bland: the first negative cost), and row 0
  // (x0 + x1 + x2 <= H, ratio H) beats row 1 (ratio 3H/2); row 2 has no
  // x0. So (0, x0) with entry 1 is the first pivot. The cost row's factor
  // is -H, and -H times row 0's rhs H overflows int64.
  const std::vector<std::vector<int64_t>> rows = {{1, 1, 1, 0},
                                                  {2, 2, kHuge, 1},
                                                  {0, 0, 1, 1}};
  const std::vector<int64_t> rhs = {kHuge, 3 * kHuge, 7};
  const std::vector<int64_t> cost = {-kHuge, -1, 0, -2};
  for (size_t i = 0; i < rows.size(); ++i) {
    program.AddRow(Sense::kLessEqual, rhs[i]);
  }
  for (size_t j = 0; j < cost.size(); ++j) {
    program.AddColumn(cost[j]);
    lp.AddVariable();
    for (size_t i = 0; i < rows.size(); ++i) {
      program.AddEntry(static_cast<int>(i), rows[i][j]);
    }
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    std::vector<Rational> coeffs;
    for (int64_t v : rows[i]) coeffs.push_back(R(v));
    lp.AddConstraint(std::move(coeffs), Sense::kLessEqual, R(rhs[i]));
  }
  std::vector<Rational> objective;
  for (int64_t c : cost) objective.push_back(R(c));
  lp.SetObjective(Objective::kMinimize, std::move(objective));

  LadderSimplex ladder;
  const auto fast = ladder.Solve(program);
  ExpectParity(lp, fast, ReferenceSolver().Solve(lp), /*same_pivots=*/true);
  ASSERT_GE(fast.pivots, 1);
  EXPECT_EQ(fast.word_pivots, 0) << "the first pivot must leave the word tier";
  // The same program as an LpProblem runs the staged fill and must agree.
  const auto staged = LadderSimplex().Solve(lp);
  ExpectParity(lp, staged, ReferenceSolver().Solve(lp), /*same_pivots=*/true);
  EXPECT_EQ(staged.word_pivots, fast.word_pivots);
  EXPECT_EQ(staged.wide_pivots, fast.wide_pivots);
  EXPECT_EQ(staged.bigint_promotions, fast.bigint_promotions);
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
