// Differential suite for the escalation-ladder exact simplex
// (lp/ladder_simplex.h): LadderSimplex must be bit-identical to the reference
// SimplexSolver — statuses, objectives, values, duals, Farkas certificates,
// bases, and pivot counts — across feasible, infeasible, unbounded,
// degenerate, rational-coefficient, near-overflow (INT64_MAX/2-scale) and
// wider-than-word programs, and every certificate must pass the exact
// VerifyDuals/VerifyFarkas predicates in its own right.
// Integer input (IntegerProgram) must match the reference on the equivalent
// LpProblem, on the decision procedure's own LPs included.
#include "lp/ladder_simplex.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
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

using ReferenceSolver = SimplexSolver;

Rational R(int64_t n, int64_t d = 1) { return Rational(n, d); }

// Full-solution parity, field by field. `same_pivots` is asserted for cold
// solves (where the scaling argument guarantees an identical Bland pivot
// sequence); warm installs may count eliminations differently on scaled rows.
void ExpectParity(const LpProblem& lp, const Solution& ladder,
                  const Solution& reference, bool same_pivots) {
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

  LpProblem lp;
  const int n = nvars(rng);
  for (int j = 0; j < n; ++j) lp.AddVariable();
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
  lp.SetObjective(std::move(obj));
  return lp;
}

constexpr int kFirstSeed = 1;
constexpr int kLastSeed = 40;

// The differential seeds draw optimal, infeasible and unbounded programs,
// in both coefficient modes, so parity covers every status.
TEST(LadderRandomLpTest, SeedsDrawEveryStatus) {
  for (bool rational_coeffs : {false, true}) {
    std::map<SolveStatus, int> count;
    for (int seed = kFirstSeed; seed <= kLastSeed; ++seed) {
      ++count[ReferenceSolver().Solve(RandomLp(seed, rational_coeffs)).status];
    }
    EXPECT_GT(count[SolveStatus::kOptimal], 0) << rational_coeffs;
    EXPECT_GT(count[SolveStatus::kInfeasible], 0) << rational_coeffs;
    EXPECT_GT(count[SolveStatus::kUnbounded], 0) << rational_coeffs;
  }
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
  for (int j = 0; j < lp.num_variables(); ++j) perturbed.AddVariable();
  for (const Constraint& row : lp.constraints()) {
    perturbed.AddConstraint(row.coeffs, row.sense, row.rhs + R(bump(rng)));
  }
  perturbed.SetObjective(lp.objective());
  const auto fast = ladder.SolveFrom(perturbed, cold.basis);
  const auto slow = reference.SolveFrom(perturbed, cold.basis);
  EXPECT_EQ(fast.warm_started, slow.warm_started);
  ExpectParity(perturbed, fast, slow, /*same_pivots=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LadderDifferentialTest,
                         ::testing::Range(kFirstSeed, kLastSeed + 1));

// ------------------------------------------------------------ warm install

// x + w ≤ 4,  y + w ≤ 4,  x + y + 2w ≤ 10: w's column is the sum of x's and
// y's, so the basis {x, y, w} is singular.
LpProblem DependentColumnLp(std::vector<Rational> objective) {
  LpProblem lp;
  lp.AddVariable("x");
  lp.AddVariable("y");
  lp.AddVariable("w");
  lp.AddConstraint({R(1), R(0), R(1)}, Sense::kLessEqual, R(4));
  lp.AddConstraint({R(0), R(1), R(1)}, Sense::kLessEqual, R(4));
  lp.AddConstraint({R(1), R(1), R(2)}, Sense::kLessEqual, R(10));
  lp.SetObjective(std::move(objective));
  return lp;
}

// x and y enter at their ratio-test rows 0 and 1. w is then zero on the one
// unassigned row, row 2, and its ratio-test row is assigned, so it is
// skipped and row 2 keeps its slack. With a zero objective the solution is
// that installed basis.
TEST(LadderWarmInstallTest, DependentHintColumnIsSkippedOnBothSimplexes) {
  const std::vector<BasisEntry> hint{{BasisKind::kStructural, 0},
                                     {BasisKind::kStructural, 1},
                                     {BasisKind::kStructural, 2}};
  const LpProblem lp = DependentColumnLp({R(0), R(0), R(0)});
  const auto fast = LadderSimplex().SolveFrom(lp, hint);
  const auto slow = ReferenceSolver().SolveFrom(lp, hint);
  ExpectParity(lp, fast, slow, /*same_pivots=*/true);
  EXPECT_TRUE(fast.warm_started);
  EXPECT_TRUE(slow.warm_started);
  EXPECT_EQ(fast.pivots, 2);
  EXPECT_EQ(fast.values, (std::vector<Rational>{R(4), R(4), R(0)}));
  ASSERT_EQ(fast.basis.size(), 3u);
  EXPECT_EQ(fast.basis[2].kind, BasisKind::kSlack);
  EXPECT_EQ(fast.basis[2].index, 2);

  const LpProblem costed = DependentColumnLp({R(-1), R(-1), R(-3)});
  const auto warm = LadderSimplex().SolveFrom(costed, hint);
  ExpectParity(costed, warm, ReferenceSolver().SolveFrom(costed, hint),
               /*same_pivots=*/true);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.objective, ReferenceSolver().Solve(costed).objective);
}

// A random hint for `lp`: usually one entry per row, each one of the
// program's own columns (a variable, the slack of an inequality row, the
// artificial of a row the layout gives one) or a repeat of an earlier
// entry; now and then a row too many or too few, or an entry from another
// shape (a variable or row the program lacks, the slack of an equality
// row), which the program cannot map.
std::vector<BasisEntry> RandomHint(const LpProblem& lp, std::mt19937_64& rng) {
  const int n = lp.num_variables();
  const int m = lp.num_constraints();
  std::vector<BasisEntry> own;
  for (int j = 0; j < n; ++j) own.push_back({BasisKind::kStructural, j});
  for (int i = 0; i < m; ++i) {
    const Constraint& row = lp.constraints()[i];
    if (row.sense != Sense::kEqual) own.push_back({BasisKind::kSlack, i});
    // A row gets an artificial unless its slack is +1 once rhs ≥ 0.
    const bool slack_is_unit = row.sense == Sense::kLessEqual
                                   ? row.rhs.sign() >= 0
                                   : row.sense == Sense::kGreaterEqual &&
                                         row.rhs.sign() < 0;
    if (!slack_is_unit) own.push_back({BasisKind::kArtificial, i});
  }
  std::uniform_int_distribution<int> pct(0, 99);
  const int size = std::max(0, m + (pct(rng) < 10 ? (pct(rng) < 50 ? -1 : 1)
                                                  : 0));
  std::vector<BasisEntry> hint;
  for (int c = 0; c < size; ++c) {
    const int roll = pct(rng);
    if (roll < 3) {
      hint.push_back({BasisKind::kStructural, n});
    } else if (roll < 6) {
      hint.push_back({BasisKind::kSlack, pct(rng) % (m + 1)});
    } else if (roll < 25 && !hint.empty()) {
      hint.push_back(hint[pct(rng) % hint.size()]);
    } else {
      hint.push_back(own[pct(rng) % own.size()]);
    }
  }
  return hint;
}

class LadderWarmInstallSweepTest : public ::testing::TestWithParam<int> {};

// Random programs × random hints, and the terminal basis of another
// program: whatever the hint, SolveFrom reaches Solve's status and
// objective with a certificate that verifies, and the ladder matches the
// reference pivot for pivot.
TEST_P(LadderWarmInstallSweepTest, RandomHintsMatchColdAndReference) {
  int warm_solves = 0;
  for (bool rational_coeffs : {false, true}) {
    const LpProblem lp = RandomLp(GetParam(), rational_coeffs);
    const Solution cold = ReferenceSolver().Solve(lp);
    std::mt19937_64 rng(GetParam() * 7919 + rational_coeffs);
    std::vector<std::vector<BasisEntry>> hints;
    for (int h = 0; h < 8; ++h) hints.push_back(RandomHint(lp, rng));
    hints.push_back(
        ReferenceSolver().Solve(RandomLp(GetParam() + 1000, false)).basis);
    for (const std::vector<BasisEntry>& hint : hints) {
      const Solution fast = LadderSimplex().SolveFrom(lp, hint);
      const Solution slow = ReferenceSolver().SolveFrom(lp, hint);
      EXPECT_EQ(fast.warm_started, slow.warm_started) << lp.ToString();
      ExpectParity(lp, fast, slow, /*same_pivots=*/true);
      EXPECT_EQ(slow.status, cold.status) << lp.ToString();
      if (cold.status == SolveStatus::kOptimal) {
        EXPECT_EQ(slow.objective, cold.objective) << lp.ToString();
      }
      warm_solves += slow.warm_started;
    }
  }
  EXPECT_GT(warm_solves, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LadderWarmInstallSweepTest,
                         ::testing::Range(kFirstSeed, kLastSeed + 1));

// ------------------------------------------------------------ escalation

// Near-overflow coefficients (INT64_MAX/2 scale): the input still fits the
// word tier, but the first fraction-free cross-multiplication exceeds 63 bits,
// so the word run is abandoned and the solve reruns from the start in BigInt.
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
    lp.SetObjective(std::move(obj));

    LadderSimplex ladder;
    ReferenceSolver reference;
    const auto fast = ladder.Solve(lp);
    const auto slow = reference.Solve(lp);
    ExpectParity(lp, fast, slow, /*same_pivots=*/true);
    if (fast.pivots > 0) {
      // 62-bit entries cannot complete a fraction-free pivot in int64.
      EXPECT_EQ(fast.word_pivots, 0) << "seed " << seed;
      EXPECT_EQ(fast.bigint_promotions, 1) << "seed " << seed;
    }
  }
}

TEST(LadderEscalationTest, DeepPivotingPromotesToBigInt) {
  // Dense 6×6 with ~2^61 entries: the input fits the word tier, but
  // fraction-free subdeterminants overflow int64 within a few pivots, and
  // the solve reruns in BigInt. The result must still match the reference
  // exactly.
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
  lp.SetObjective(std::move(obj));

  LadderSimplex ladder;
  ReferenceSolver reference;
  const auto fast = ladder.Solve(lp);
  ExpectParity(lp, fast, reference.Solve(lp), /*same_pivots=*/true);
  EXPECT_EQ(fast.bigint_promotions, 1);
}

// A feasible, bounded LP whose integerized data need about `rhs_bits` + 3
// bits: small positive rational coefficients (row scales at most 6) and
// right-hand sides near 2^rhs_bits. The >= row needs phase I; the objective
// has negative costs, so the solve pivots. The coefficients keep every
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
  std::vector<Rational> cost = row();
  for (Rational& c : cost) c = -c;
  lp.SetObjective(std::move(cost));
  return lp;
}

// The staged fill starts a solve in the word tier only when its integerized
// data fit 62 bits. Data of 63-126 bits (an rhs near 2^64 integerizes to at
// least 2^64/3, one near 2^120 to less than 2^123) start in BigInt with no
// int64 arena filled, so no pivot is tallied in the word tier and nothing
// is promoted: the solve is already at the top.
TEST(LadderEscalationTest, Data63To126BitsStartInBigInt) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (uint64_t rhs_bits : {64, 80, 120}) {
      const std::string what = "seed " + std::to_string(seed) + ", " +
                               std::to_string(rhs_bits) + " bits";
      const LpProblem lp = WideRhsLp(seed, rhs_bits);
      LadderSimplex ladder;
      ReferenceSolver reference;
      const auto fast = ladder.Solve(lp);
      ExpectParity(lp, fast, reference.Solve(lp), /*same_pivots=*/true);
      EXPECT_EQ(fast.status, SolveStatus::kOptimal) << what;
      EXPECT_GT(fast.pivots, 0) << what;
      EXPECT_EQ(fast.word_pivots, 0) << what;
      EXPECT_EQ(fast.bigint_promotions, 0) << what;
      EXPECT_TRUE(ladder.workspace().w64.block.empty()) << what;
    }
  }
}

// More than 126 bits start in BigInt too: nothing is tallied in the word
// tier, and nothing is promoted.
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
    EXPECT_EQ(fast.bigint_promotions, 0) << "seed " << seed;
  }
}

// A program with dense integer rows, as an IntegerProgram and as the
// equivalent LpProblem.
struct DenseTwin {
  IntegerProgram program;
  LpProblem lp;
};

DenseTwin MakeDenseTwin(const std::vector<std::vector<int64_t>>& rows,
                        const std::vector<Sense>& senses,
                        const std::vector<int64_t>& rhs,
                        const std::vector<int64_t>& cost) {
  DenseTwin twin;
  for (size_t i = 0; i < rows.size(); ++i) {
    twin.program.AddRow(senses[i], rhs[i]);
  }
  for (size_t j = 0; j < cost.size(); ++j) {
    twin.program.AddColumn(cost[j]);
    twin.lp.AddVariable();
    for (size_t i = 0; i < rows.size(); ++i) {
      twin.program.AddEntry(static_cast<int>(i), rows[i][j]);
    }
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    std::vector<Rational> coeffs;
    for (int64_t v : rows[i]) coeffs.push_back(R(v));
    twin.lp.AddConstraint(std::move(coeffs), senses[i], R(rhs[i]));
  }
  std::vector<Rational> objective;
  for (int64_t c : cost) objective.push_back(R(c));
  twin.lp.SetObjective(std::move(objective));
  return twin;
}

// A warm solve whose word run overflows reruns from the start in BigInt
// and installs the same hint again. In "install", x0 enters at row 0, the
// one row where it is positive, and row 1 + 5*row 0 overflows at x1
// (5H > 2^63). In "phase I", the install pivots x2 into row 2 and leaves
// row 0's artificial basic and positive; phase I's first pivot is on
// (1, x0) with entry H (ratio 1 against row 0's H), and row 0 becomes
// H*row 0 - row 1, where H*H overflows. For the IntegerProgram and its
// LpProblem twin, the warm start, pivots, values, certificates and basis
// are the reference's warm solve's, with no pivot tallied in the word
// tier. With the pivot cap at `overflow_cap` the solve stops right after
// the step that overflows, and has promoted; in "phase I", a cap one lower
// stops after the install, in the word tier.
TEST(LadderEscalationTest, WarmOverflowRerunsInBigIntWithTheSameHint) {
  const int64_t kHuge = (int64_t{1} << 61) + 1;
  struct Case {
    std::string what;
    DenseTwin twin;
    std::vector<BasisEntry> hint;
    int64_t overflow_cap;
  };
  const std::vector<Case> cases = {
      {"install",
       MakeDenseTwin({{1, kHuge}, {-5, 1}},
                     {Sense::kLessEqual, Sense::kLessEqual}, {kHuge, 7},
                     {-1, -1}),
       {{BasisKind::kStructural, 0}, {BasisKind::kSlack, 1}},
       /*overflow_cap=*/0},
      {"phase I",
       MakeDenseTwin({{1, kHuge, 0}, {kHuge, 1, 0}, {0, 0, 1}},
                     {Sense::kGreaterEqual, Sense::kLessEqual,
                      Sense::kLessEqual},
                     {kHuge, kHuge, 5}, {1, 1, -1}),
       {{BasisKind::kArtificial, 0},
        {BasisKind::kSlack, 1},
        {BasisKind::kStructural, 2}},
       /*overflow_cap=*/1},
  };
  for (const Case& c : cases) {
    const Solution slow = ReferenceSolver().SolveFrom(c.twin.lp, c.hint);
    ASSERT_TRUE(slow.warm_started) << c.what;
    for (const Solution& fast :
         {LadderSimplex().SolveFrom(c.twin.program, c.hint),
          LadderSimplex().SolveFrom(c.twin.lp, c.hint)}) {
      EXPECT_TRUE(fast.warm_started) << c.what;
      ExpectParity(c.twin.lp, fast, slow, /*same_pivots=*/true);
      EXPECT_EQ(fast.word_pivots, 0) << c.what;
      EXPECT_EQ(fast.bigint_promotions, 1) << c.what;
    }
    for (int64_t cap = std::max<int64_t>(0, c.overflow_cap - 1);
         cap <= c.overflow_cap; ++cap) {
      SolverOptions options;
      options.max_pivots = cap;
      const Solution capped =
          LadderSimplex(options).SolveFrom(c.twin.program, c.hint);
      EXPECT_EQ(capped.status, SolveStatus::kPivotLimit) << c.what;
      EXPECT_EQ(capped.bigint_promotions, cap == c.overflow_cap ? 1 : 0)
          << c.what << ", cap " << cap;
    }
  }
}

// A cold solve whose third pivot overflows int64: x0 and x1 enter first at
// their own rows, then x2 enters at row 3 (ratio 1 against row 2's C) with
// entry C, and row 2 becomes C*row 2 - row 3, where C*C = 2^80. Under every
// cap below the solve's pivot count the ladder stops with kPivotLimit at
// the reference's pivot count. Caps 0 and 1 stop in the word tier; every
// larger cap stops after the overflow, so the rerun neither counts the
// word run's two pivots again nor drops the cap.
TEST(LadderEscalationTest, OverflowUnderPivotCapStopsAtReferenceCount) {
  const int64_t kC = int64_t{1} << 40;
  const DenseTwin twin = MakeDenseTwin(
      {{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, kC}, {0, 0, kC, 1}},
      std::vector<Sense>(4, Sense::kLessEqual), {1, 1, kC, kC},
      {-1, -1, -1, 0});
  const Solution full = LadderSimplex().Solve(twin.program);
  ExpectParity(twin.lp, full, ReferenceSolver().Solve(twin.lp),
               /*same_pivots=*/true);
  ASSERT_GE(full.pivots, 3);
  ASSERT_EQ(full.bigint_promotions, 1);
  for (int64_t cap = 0; cap < full.pivots; ++cap) {
    SolverOptions options;
    options.max_pivots = cap;
    const Solution fast = LadderSimplex(options).Solve(twin.program);
    const Solution slow = ReferenceSolver(options).Solve(twin.lp);
    EXPECT_EQ(fast.status, SolveStatus::kPivotLimit) << "cap " << cap;
    EXPECT_EQ(slow.status, SolveStatus::kPivotLimit) << "cap " << cap;
    EXPECT_EQ(fast.pivots, slow.pivots) << "cap " << cap;
    EXPECT_EQ(fast.bigint_promotions, cap >= 2 ? 1 : 0) << "cap " << cap;
    EXPECT_EQ(fast.word_pivots, cap >= 2 ? 0 : cap + 1) << "cap " << cap;
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
  lp.SetObjective({R(2), R(3)});
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
// row overflows int64 at the rhs column, its last support column, after
// four cells of that row are written, row 0's slack column among them:
// the word run is abandoned with the cost row half updated, and the solve
// reruns from the program in BigInt. It must match the reference, row 0's
// dual (read from that slack column) included.
TEST(LadderIntegerProgramTest, UnitPivotOverflowRerunsInBigInt) {
  const int64_t kHuge = (int64_t{1} << 60) + 3;
  // x0 enters first (Bland: the first negative cost), and row 0
  // (x0 + x1 + x2 <= H, ratio H) beats row 1 (ratio 3H/2); row 2 has no
  // x0. So (0, x0) with entry 1 is the first pivot. The cost row's factor
  // is -H, and -H times row 0's rhs H overflows int64.
  const DenseTwin twin = MakeDenseTwin(
      {{1, 1, 1, 0}, {2, 2, kHuge, 1}, {0, 0, 1, 1}},
      std::vector<Sense>(3, Sense::kLessEqual), {kHuge, 3 * kHuge, 7},
      {-kHuge, -1, 0, -2});
  const LpProblem& lp = twin.lp;

  LadderSimplex ladder;
  const auto fast = ladder.Solve(twin.program);
  ExpectParity(lp, fast, ReferenceSolver().Solve(lp), /*same_pivots=*/true);
  ASSERT_GE(fast.pivots, 1);
  EXPECT_EQ(fast.word_pivots, 0) << "the first pivot must leave the word tier";
  EXPECT_EQ(fast.bigint_promotions, 1) << "it promotes straight to BigInt";
  // The same program as an LpProblem runs the staged fill and must agree.
  const auto staged = LadderSimplex().Solve(lp);
  ExpectParity(lp, staged, ReferenceSolver().Solve(lp), /*same_pivots=*/true);
  EXPECT_EQ(staged.word_pivots, 0);
  EXPECT_EQ(staged.bigint_promotions, 1);
}

// A non-unit pivot (a = 4, b = -3) whose update of the cost row overflows
// int64 at the rhs column, the objective's cell, after the cost row's
// structural and slack cells are written. The first pivot is on (0, x0)
// with entry 4 (x0 enters first, and only row 0 holds it); rows 1 and 2
// have no x0 and stay as they are. The cost row becomes 4*C + 3*row_0,
// and 3 times row 0's rhs H overflows int64, so the word run is abandoned
// with the cost row half updated. The BigInt rerun makes the same pivot
// with both factors and must match the reference: the objective, the
// later entering choices (pivot count) and row 0's dual.
TEST(LadderIntegerProgramTest, NonUnitPivotOverflowRerunsInBigInt) {
  const int64_t kHuge = (int64_t{1} << 62) - 1;
  const DenseTwin twin =
      MakeDenseTwin({{4, 1, 0}, {0, 1, 1}, {0, 2, 3}},
                    std::vector<Sense>(3, Sense::kLessEqual), {kHuge, 5, 7},
                    {-3, -1, -2});
  const LpProblem& lp = twin.lp;

  const auto fast = LadderSimplex().Solve(twin.program);
  ExpectParity(lp, fast, ReferenceSolver().Solve(lp), /*same_pivots=*/true);
  ASSERT_GE(fast.pivots, 2);
  EXPECT_EQ(fast.word_pivots, 0) << "the first pivot must leave the word tier";
  EXPECT_EQ(fast.bigint_promotions, 1) << "it promotes straight to BigInt";
  const auto staged = LadderSimplex().Solve(lp);
  ExpectParity(lp, staged, ReferenceSolver().Solve(lp), /*same_pivots=*/true);
  EXPECT_EQ(staged.word_pivots, 0);
  EXPECT_EQ(staged.bigint_promotions, 1);
}

// ------------------------------------------------------------ row scales

// The initial tableau the ladder works from, rebuilt from the program
// alone, in BigInt: row i of an LpProblem times t_i (the lcm of its
// denominators), every row times its sign (-1 when its rhs is negative),
// one column per tableau column of the workspace's layout: the program's
// variables, then each inequality's slack (+1 for <=, -1 for >=), then the
// artificials (+1).
struct InitialTableau {
  std::vector<std::vector<util::BigInt>> a;  // m rows of ncols entries
  std::vector<util::BigInt> b;
};

InitialTableau InitialOf(const std::vector<Constraint>& rows, int n,
                         const LadderWorkspace& ws) {
  InitialTableau out;
  out.a.assign(rows.size(), std::vector<util::BigInt>(ws.col_entry.size()));
  out.b.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Constraint& row = rows[i];
    util::BigInt t(1);
    for (const Rational& c : row.coeffs) t = util::BigInt::Lcm(t, c.den());
    t = util::BigInt::Lcm(t, row.rhs.den());
    const util::BigInt sign(row.rhs.sign() < 0 ? -1 : 1);
    auto scaled = [&](const Rational& v) {
      return (t / v.den()) * v.num() * sign;
    };
    for (int j = 0; j < n; ++j) out.a[i][j] = scaled(row.coeffs[j]);
    out.b[i] = scaled(row.rhs);
  }
  for (size_t j = n; j < ws.col_entry.size(); ++j) {
    const BasisEntry& e = ws.col_entry[j];
    const Constraint& row = rows[e.index];
    out.a[e.index][j] =
        e.kind == BasisKind::kArtificial
            ? util::BigInt(1)
            : util::BigInt((row.sense == Sense::kLessEqual ? 1 : -1) *
                           (row.rhs.sign() < 0 ? -1 : 1));
  }
  return out;
}

InitialTableau InitialOf(const LpProblem& lp, const LadderWorkspace& ws) {
  return InitialOf(lp.constraints(), lp.num_variables(), ws);
}

InitialTableau InitialOf(const IntegerProgram& program,
                         const LadderWorkspace& ws) {
  std::vector<Constraint> rows(program.num_rows());
  for (int i = 0; i < program.num_rows(); ++i) {
    rows[i].coeffs.assign(program.num_columns(), Rational());
    rows[i].sense = program.sense(i);
    rows[i].rhs = R(program.rhs(i));
  }
  for (int j = 0; j < program.num_columns(); ++j) {
    for (const IntegerProgram::Entry& e : program.column(j)) {
      rows[e.row].coeffs[j] = R(e.value);
    }
  }
  return InitialOf(rows, program.num_columns(), ws);
}

// The full tableau of a solve, rebuilt from the stored block of `arena`
// and the initial tableau: constraint row i is sum_q U[i][q] * (initial row
// q), and the cost row is C[j] = s*c_j + sum_q y_q * a_qj over its scale s,
// with the phase costs c the arena holds (U[i][q], y_q: the row's stored
// cell q). Each row comes in the full layout, ncols entries and then the
// rhs, the constraint rows first; `scales` holds each row's stored scale.
// The rebuilt rhs must equal the stored one.
struct FullTableau {
  std::vector<std::vector<util::BigInt>> rows;
  std::vector<util::BigInt> scales;
};

template <typename T>
FullTableau Rebuild(const LadderWorkspace& ws, const LadderArena<T>& arena,
                    const InitialTableau& init, const std::string& what) {
  const size_t m = ws.basis.size();
  const size_t ncols = ws.col_entry.size();
  const size_t width = m + 2;
  FullTableau out;
  EXPECT_EQ(arena.block.size(), (m + 1) * width) << what;
  if (arena.block.size() != (m + 1) * width) return out;
  auto cell = [&](size_t i, size_t k) {
    return util::BigInt(arena.block[i * width + k]);
  };
  for (size_t i = 0; i <= m; ++i) {
    const util::BigInt s = cell(i, m + 1);
    std::vector<util::BigInt> row(ncols + 1);
    util::BigInt rhs;
    for (size_t q = 0; q < m; ++q) {
      const util::BigInt u = cell(i, q);
      for (size_t j = 0; j < ncols; ++j) row[j] += u * init.a[q][j];
      rhs += u * init.b[q];
    }
    if (i == m) {
      for (size_t j = 0; j < ncols; ++j) {
        row[j] += s * util::BigInt(arena.cost[j]);
      }
    }
    EXPECT_EQ(rhs, cell(i, m)) << what << ", the stored rhs of row " << i;
    row[ncols] = cell(i, m);
    out.rows.push_back(std::move(row));
    out.scales.push_back(s);
  }
  return out;
}

// A pivot rewrites only the rows whose pivot-column entry is nonzero. With
// the pivot cap at 0 the solve stops after its first pivot, on (0, x0) with
// entry 2, and leaves that tableau's stored block in the word-tier arena.
// Row 2 has no x0 and keeps its input integers (a tableau over one shared
// denominator would hold twice them). Rows 1 and 3 and the cost row become
// a*row_i - b*row_0 with g = gcd(2, M[i][x0]), a = 2/g, b = M[i][x0]/g,
// each primitive; the cost row's scale becomes a.
TEST(LadderRowScaleTest, ZeroFactorRowsAreUntouched) {
  // Columns: x0..x2, the slacks of rows 0..3, the rhs.
  const std::vector<std::vector<int64_t>> input = {
      {2, 1, 0, 1, 0, 0, 0, 4},
      {3, 1, 1, 0, 1, 0, 0, 9},
      {0, 5, 3, 0, 0, 1, 0, 7},
      {-4, 2, 6, 0, 0, 0, 1, 10}};
  IntegerProgram program;
  for (const std::vector<int64_t>& row : input) {
    program.AddRow(Sense::kLessEqual, row.back());
  }
  for (int j = 0; j < 3; ++j) {
    program.AddColumn(j == 0 ? -1 : 0);
    for (int i = 0; i < 4; ++i) program.AddEntry(i, input[i][j]);
  }
  SolverOptions options;
  options.max_pivots = 0;
  LadderSimplex ladder(options);
  const Solution capped = ladder.Solve(program);
  ASSERT_EQ(capped.status, SolveStatus::kPivotLimit);
  ASSERT_EQ(capped.pivots, 1);
  ASSERT_EQ(capped.word_pivots, 1);

  // The stored block: 5 rows of the 4 slack entries, the rhs and the scale.
  const LadderWorkspace& ws = ladder.workspace();
  ASSERT_EQ(ws.w64.block.size(), 5u * 6u);
  const FullTableau full =
      Rebuild(ws, ws.w64, InitialOf(program, ws), "capped");
  ASSERT_EQ(full.rows.size(), 5u);
  auto row = [&](size_t i) {
    std::vector<int64_t> out;
    for (const util::BigInt& v : full.rows[i]) out.push_back(v.ToInt64());
    return out;
  };
  EXPECT_EQ(row(0), input[0]) << "the pivot row is left as it is";
  EXPECT_EQ(row(2), input[2]) << "a zero factor leaves the row untouched";
  // Row 1: g = 1, a = 2, b = 3.
  EXPECT_EQ(row(1), (std::vector<int64_t>{0, -1, 2, -3, 2, 0, 0, 6}));
  // Row 3: g = 2, a = 1, b = -2.
  EXPECT_EQ(row(3), (std::vector<int64_t>{0, 4, 6, 2, 0, 0, 1, 18}));
  // The cost row (-1, 0, ..., 0) over scale 1: g = 1, a = 2, b = -1.
  EXPECT_EQ(row(4), (std::vector<int64_t>{0, 1, 0, 1, 0, 0, 0, 4}));
  EXPECT_EQ(full.scales[4], util::BigInt(2));
  EXPECT_EQ(ws.basis, (std::vector<int>{0, 4, 5, 6}));

  // Uncapped, the same program matches the reference.
  LpProblem lp;
  for (int j = 0; j < 3; ++j) lp.AddVariable();
  for (const std::vector<int64_t>& r : input) {
    std::vector<Rational> coeffs;
    for (int j = 0; j < 3; ++j) coeffs.push_back(R(r[j]));
    lp.AddConstraint(std::move(coeffs), Sense::kLessEqual, R(r.back()));
  }
  lp.SetObjective({R(-1), R(0), R(0)});
  ExpectParity(lp, LadderSimplex().Solve(program), ReferenceSolver().Solve(lp),
               /*same_pivots=*/true);
}

// The invariants of the tableau a solve left in `arena`, on the rows
// rebuilt from its stored block: every constraint row is primitive (its
// entries have gcd 1) with a positive scale; the cost row together with
// its scale is primitive, and that scale is positive; and every basic
// column rebuilds to a unit column, its row's scale at its row and 0 in
// every other row, the cost row included. That last is what the revised
// form stands on: the stored cells of row i are its entries in the basis
// of the initial tableau's identity columns.
template <typename T>
void ExpectPrimitiveRows(const LadderWorkspace& ws,
                         const LadderArena<T>& arena,
                         const InitialTableau& init, const std::string& what) {
  const FullTableau full = Rebuild(ws, arena, init, what);
  const size_t m = ws.basis.size();
  ASSERT_EQ(full.rows.size(), m + 1) << what;
  for (size_t i = 0; i <= m; ++i) {
    util::BigInt g = i < m ? util::BigInt() : full.scales[m];
    for (const util::BigInt& v : full.rows[i]) g = util::BigInt::Gcd(g, v);
    EXPECT_EQ(g, util::BigInt(1)) << what << ", row " << i;
    EXPECT_GT(full.scales[i].sign(), 0) << what << ", row " << i;
  }
  for (size_t k = 0; k < m; ++k) {
    const int col = ws.basis[k];
    for (size_t i = 0; i <= m; ++i) {
      EXPECT_EQ(full.rows[i][col], i == k ? full.scales[k] : util::BigInt())
          << what << ", basic column " << col << ", row " << i;
    }
  }
}

// A solve that stayed in the word tier, checked there.
template <typename Program>
void ExpectPrimitiveWordRows(const LadderWorkspace& ws,
                             const Solution& solution, const Program& program,
                             const std::string& what) {
  ASSERT_EQ(solution.bigint_promotions, 0) << what;
  ExpectPrimitiveRows(ws, ws.w64, InitialOf(program, ws), what);
}

TEST(LadderRowScaleTest, RandomLpRowsStayPrimitive) {
  for (bool rational_coeffs : {false, true}) {
    for (int seed = kFirstSeed; seed <= kLastSeed; ++seed) {
      const std::string what = "seed " + std::to_string(seed) +
                               (rational_coeffs ? " rational" : " integer");
      const LpProblem lp = RandomLp(seed, rational_coeffs);
      LadderSimplex ladder;
      const Solution cold = ladder.Solve(lp);
      ExpectPrimitiveWordRows(ladder.workspace(), cold, lp, what + " cold");
      if (cold.basis.empty()) continue;
      const Solution warm = ladder.SolveFrom(lp, cold.basis);
      ExpectPrimitiveWordRows(ladder.workspace(), warm, lp, what + " warm");
    }
  }
}

// A solve whose data started in the BigInt tier, checked there.
void ExpectPrimitiveBigRows(const LadderWorkspace& ws, const Solution& solution,
                            const LpProblem& lp, const std::string& what) {
  ASSERT_EQ(solution.word_pivots, 0) << what;
  ASSERT_EQ(solution.bigint_promotions, 0) << what;
  ExpectPrimitiveRows(ws, ws.wbig, InitialOf(lp, ws), what);
}

// The same invariants in the BigInt tier, on programs of both sizes whose
// integerized data start there (see Data63To126BitsStartInBigInt and
// HugeDataStartInBigInt).
TEST(LadderRowScaleTest, WideAndBigRowsStayPrimitive) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (uint64_t rhs_bits : {80, 140}) {
      const std::string what = "seed " + std::to_string(seed) + ", " +
                               std::to_string(rhs_bits) + " bits";
      const LpProblem lp = WideRhsLp(seed, rhs_bits);
      LadderSimplex ladder;
      const Solution cold = ladder.Solve(lp);
      ExpectPrimitiveBigRows(ladder.workspace(), cold, lp, what + " cold");
      const Solution warm = ladder.SolveFrom(lp, cold.basis);
      ExpectPrimitiveBigRows(ladder.workspace(), warm, lp, what + " warm");
    }
  }
}

// `lp` with its last row (coefficients and rhs) times 2^64: the same
// program, whose integerized data no longer fit the word tier.
LpProblem WithLastRowScaled(const LpProblem& lp) {
  const Rational factor(util::BigInt::TwoToThe(64), util::BigInt(1));
  LpProblem out;
  for (int j = 0; j < lp.num_variables(); ++j) out.AddVariable();
  for (size_t i = 0; i < lp.constraints().size(); ++i) {
    Constraint row = lp.constraints()[i];
    if (i + 1 == lp.constraints().size()) {
      for (Rational& c : row.coeffs) c = c * factor;
      row.rhs = row.rhs * factor;
    }
    out.AddConstraint(std::move(row.coeffs), row.sense, std::move(row.rhs));
  }
  out.SetObjective(lp.objective());
  return out;
}

class LadderRowScaleDecisionTest : public ::testing::TestWithParam<int> {};

// The decision LPs of LadderIntegerProgramTest, cold and warm from their
// own optimal or Farkas basis: as IntegerPrograms in the word tier, and as
// their LpProblem twins with the last row scaled past the word tier's
// input bound in the BigInt tier.
TEST_P(LadderRowScaleDecisionTest, DecisionLpRowsStayPrimitive) {
  const int n = GetParam();
  const std::vector<entropy::ElementalColumn> columns =
      entropy::ElementalColumns(n, entropy::ElementalInequalities(n));
  int solves = 0;
  for (const std::vector<entropy::LinearExpr>& branches : DecisionBranches(n)) {
    std::vector<IntegerProgram> programs;
    std::vector<LpProblem> lps;
    programs.push_back(*entropy::GammaIntegerProgram(n, columns, branches));
    lps.push_back(entropy::GammaLpProblem(n, columns, branches));
    for (entropy::ConeKind kind :
         {entropy::ConeKind::kNormal, entropy::ConeKind::kModular}) {
      programs.push_back(*entropy::GeneratorIntegerProgram(n, kind, branches));
      lps.push_back(entropy::GeneratorLpProblem(n, kind, branches));
    }
    for (size_t p = 0; p < programs.size(); ++p) {
      const std::string what = "n=" + std::to_string(n) + " lp " +
                               std::to_string(solves++);
      LadderSimplex ladder;
      const Solution cold = ladder.Solve(programs[p]);
      ExpectPrimitiveWordRows(ladder.workspace(), cold, programs[p],
                              what + " cold");
      const LpProblem big = WithLastRowScaled(lps[p]);
      LadderSimplex big_ladder;
      const Solution big_cold = big_ladder.Solve(big);
      ExpectPrimitiveBigRows(big_ladder.workspace(), big_cold, big,
                             what + " big cold");
      if (cold.basis.empty()) continue;
      const Solution warm = ladder.SolveFrom(programs[p], cold.basis);
      ExpectPrimitiveWordRows(ladder.workspace(), warm, programs[p],
                              what + " warm");
      const Solution big_warm = big_ladder.SolveFrom(big, big_cold.basis);
      ExpectPrimitiveBigRows(big_ladder.workspace(), big_warm, big,
                             what + " big warm");
    }
  }
  EXPECT_GE(solves, 12) << "too few generated pairs at n = " << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, LadderRowScaleDecisionTest,
                         ::testing::Range(2, 7));

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

// A Γ6 LP has 64 rows and about 310 columns. Its stored block is 65 rows
// of 66 cells, and everything the workspace retains after a cold and a
// warm solve stays under 48 KiB; a full-width tableau alone took about
// 160 KiB.
TEST(LadderWorkspaceTest, GammaSixWorkspaceStaysSmall) {
  const int n = 6;
  const std::vector<std::vector<entropy::LinearExpr>> branches =
      DecisionBranches(n);
  ASSERT_FALSE(branches.empty());
  const IntegerProgram program = *entropy::GammaIntegerProgram(
      n, entropy::ElementalColumns(n, entropy::ElementalInequalities(n)),
      branches.front());
  ASSERT_EQ(program.num_rows(), 64);
  LadderSimplex ladder;
  const Solution cold = ladder.Solve(program);
  ASSERT_FALSE(cold.basis.empty());
  const Solution warm = ladder.SolveFrom(program, cold.basis);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.status, cold.status);
  EXPECT_EQ(ladder.workspace().w64.block.size(), 65u * 66u);
  EXPECT_LT(ladder.workspace().RetainedBytes(), 48u * 1024u);
}

}  // namespace
}  // namespace bagcq::lp
