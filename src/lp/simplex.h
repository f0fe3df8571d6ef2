// Two-phase tableau simplex over a vector-of-Rational tableau.
//
// SimplexSolver is the reference implementation: the production solver
// (lp::Solver, over the escalation-ladder LadderSimplex) is tested for pivot
// parity against it, warm starts included, and the two share no tableau
// code. This header also holds the contract both follow — Solution,
// SolverOptions, and the exact certificate checks — for programs of the
// lp_problem.h form: nonnegative variables, an objective to minimize.
//
// The solver reports, besides the primal solution:
//   * dual values (one per constraint) satisfying strong duality and the sign
//     conventions documented at VerifyDuals() — these become the lambda
//     weights of Theorem 6.1 and the Shannon-proof coefficients;
//   * a Farkas infeasibility certificate (one multiplier per constraint)
//     when the program is infeasible — this becomes the counterexample
//     polymatroid in the entropy layer.
//
// Pivoting: Bland's rule (lowest-index entering column, lowest-basis-column
// ties on the ratio test), which cannot cycle, so every solve terminates.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/lp_problem.h"
#include "util/rational.h"

namespace bagcq::lp {

/// kPivotLimit is a soft failure: the pivot cap was hit (a cap set too low
/// for the program; Bland's rule does not cycle) and the reported solution
/// carries no certificate. With exact arithmetic the cap is unreachable at
/// the default setting.
enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kPivotLimit };

const char* SolveStatusToString(SolveStatus status);

/// What occupies one basis slot at termination, in *problem* terms (not
/// internal tableau columns): a structural variable, the slack/surplus of a
/// constraint, or a phase-I artificial. This is the warm-start hint
/// SolveFrom consumes.
enum class BasisKind : uint8_t {
  kStructural,  // index = variable j
  kSlack,       // index = constraint i (slack or surplus column)
  kArtificial,  // index = constraint i (phase-I artificial)
};

struct BasisEntry {
  BasisKind kind = BasisKind::kStructural;
  int index = 0;
};

struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  /// The minimum objective value (valid when kOptimal).
  util::Rational objective;
  /// One value per variable (valid when kOptimal).
  std::vector<util::Rational> values;
  /// One dual per constraint (valid when kOptimal); see VerifyDuals.
  std::vector<util::Rational> duals;
  /// One multiplier per constraint (valid when kInfeasible); see VerifyFarkas.
  std::vector<util::Rational> farkas;
  /// The terminal basis, one entry per constraint row. Populated on kOptimal
  /// (phase-II basis) and kInfeasible (phase-I basis — the Farkas basis);
  /// empty on kUnbounded/kPivotLimit.
  std::vector<BasisEntry> basis;
  /// Total pivot count across both phases (for a warm start, including the
  /// basis-installation pivots).
  int64_t pivots = 0;
  /// True when a SolveFrom hint mapped onto the program (one entry per row,
  /// each naming a column the program has), so the solve started from its
  /// install. False on a cold solve and for a hint that does not map.
  bool warm_started = false;
  /// Escalation-ladder accounting (LadderSimplex only; zero elsewhere):
  /// pivots completed entirely in the overflow-checked int64 tier, pivots
  /// completed in the 128-bit tier, and whether this solve's tableau ever
  /// promoted all the way to BigInt arithmetic (0 or 1). The two pivot
  /// tallies also count the pivots that move basic artificials out after
  /// phase I, which `pivots` does not count, and leave out pivots completed
  /// in BigInt; they are not a split of `pivots`.
  int64_t word_pivots = 0;
  int64_t wide_pivots = 0;
  int64_t bigint_promotions = 0;
};

struct SolverOptions {
  /// Cap on pivots, a bound on work rather than a guard against cycling
  /// (Bland's rule does not cycle). The solve fails soft with
  /// SolveStatus::kPivotLimit when the cap is hit.
  /// Warm-start installation pivots count toward the cap.
  int64_t max_pivots = 1'000'000;
  /// Consumed by lp::Solver (not by the simplexes themselves): gates the
  /// keyed warm-start slots behind Solver::SolveKeyed. Off, every keyed
  /// solve runs cold — the ablation switch for warm-vs-cold benches.
  bool warm_starts = true;
};

class SimplexSolver {
 public:
  explicit SimplexSolver(SolverOptions options = {}) : options_(options) {}

  /// Solves the program on a tableau allocated for this call. Hitting the
  /// pivot cap reports SolveStatus::kPivotLimit (it cannot happen with
  /// Bland's rule and exact arithmetic at the default cap).
  Solution Solve(const LpProblem& problem) const;

  /// Warm start: installs `basis` (one entry per constraint row, typically
  /// the terminal basis of a previous Solve of an equal-shaped program,
  /// possibly with different rhs/objective data) and resumes pivoting from
  /// it. The install never lets a basic value go negative. Each hint
  /// column, in hint order, enters at the first unassigned row where it is
  /// nonzero and the basic value is 0 (a degenerate pivot); else at the
  /// ratio-test row (Bland ties), if that row is unassigned and its value
  /// positive; else it is skipped, and the row keeps the column already
  /// basic there. So a singular column set or one whose Gauss-Jordan
  /// solution is negative is installed in part. If the installed basis
  /// still carries an artificial at a nonzero value (a Farkas basis, or an
  /// artificial no hint column replaced), *phase I* resumes from it;
  /// otherwise phase I is skipped. A hint that does not map onto the
  /// program (wrong row count, or a column the program lacks) is ignored
  /// before any pivot and the solve runs cold; Solution::warm_started
  /// reports which happened. Install pivots count toward `pivots` and the
  /// pivot cap.
  Solution SolveFrom(const LpProblem& problem,
                     const std::vector<BasisEntry>& basis) const;

 private:
  SolverOptions options_;
};

/// Exact verification that `solution.duals` is a certificate of optimality:
///   * primal feasible (x ≥ 0 and every row holds), and c.x == objective ==
///     b.y;
///   * ≤-rows have y ≤ 0, ≥-rows have y ≥ 0, =-rows are free, and for every
///     variable j: sum_i y_i A_ij ≤ c_j.
bool VerifyDuals(const LpProblem& problem, const Solution& solution);

/// Exact verification that `farkas` proves infeasibility:
///   y.b > 0; ≤-rows have y ≤ 0, ≥-rows y ≥ 0; and for every variable j,
///   sum_i y_i A_ij ≤ 0.
bool VerifyFarkas(const LpProblem& problem,
                  const std::vector<util::Rational>& farkas);

}  // namespace bagcq::lp
