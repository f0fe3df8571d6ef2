// Two-phase tableau simplex over a vector-of-Rational tableau.
//
// SimplexSolver is the reference implementation: the production solver
// (lp::Solver, over the escalation-ladder LadderSimplex) is tested for pivot
// parity against it, warm starts included, and the two share no tableau
// code. Both follow the contract of lp_problem.h (Solution, SolverOptions;
// nonnegative variables, an objective to minimize). This header also holds
// the exact certificate checks, which tests and benches run; nothing served
// includes it.
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
