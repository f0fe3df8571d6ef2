// Two-phase tableau simplex over a vector-of-Rational tableau.
//
// SimplexSolver<util::Rational> is the reference implementation: the
// production solver (lp::Solver, over the escalation-ladder LadderSimplex) is
// tested for pivot parity against it. This header also holds the contract
// both share — Solution, SolverOptions, and the exact certificate checks.
//
// The solver reports, besides the primal solution:
//   * dual values (one per constraint) satisfying strong duality and the sign
//     conventions documented at VerifyDuals() — these become the lambda
//     weights of Theorem 6.1 and the Shannon-proof coefficients;
//   * a Farkas infeasibility certificate (one multiplier per constraint)
//     when the program is infeasible — this becomes the counterexample
//     polymatroid in the entropy layer.
//
// Anti-cycling: Bland's rule (the default) guarantees termination; Dantzig's
// rule is available for the pivoting ablation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lp/lp_problem.h"
#include "util/rational.h"

namespace bagcq::lp {

/// kPivotLimit is a soft failure: the pivot cap was hit (cycling, or a cap
/// deliberately set low) and the reported solution carries no certificate. With Bland's rule and exact arithmetic the cap is
/// unreachable at the default setting.
enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kPivotLimit };
enum class PivotRule { kBland, kDantzig };

const char* SolveStatusToString(SolveStatus status);

/// What occupies one basis slot at termination, in *problem* terms (not
/// internal tableau columns): the positive or negative half of a structural
/// variable, the slack/surplus of a constraint, or a phase-I artificial.
/// This is the warm-start hint SolveFrom consumes.
enum class BasisKind : uint8_t {
  kStructural,     // index = variable j (its nonnegative / positive half)
  kNegStructural,  // index = variable j (negative half of a free variable)
  kSlack,          // index = constraint i (slack or surplus column)
  kArtificial,     // index = constraint i (phase-I artificial)
};

struct BasisEntry {
  BasisKind kind = BasisKind::kStructural;
  int index = 0;
};

template <typename Scalar>
struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  /// Objective value in the problem's own sense (valid when kOptimal).
  Scalar objective{};
  /// One value per original variable (valid when kOptimal).
  std::vector<Scalar> values;
  /// One dual per constraint (valid when kOptimal); see VerifyDuals.
  std::vector<Scalar> duals;
  /// One multiplier per constraint (valid when kInfeasible); see VerifyFarkas.
  std::vector<Scalar> farkas;
  /// The terminal basis, one entry per constraint row. Populated on kOptimal
  /// (phase-II basis) and kInfeasible (phase-I basis — the Farkas basis);
  /// empty on kUnbounded/kPivotLimit.
  std::vector<BasisEntry> basis;
  /// Total pivot count across both phases (for a warm start, including the
  /// basis-installation eliminations).
  int64_t pivots = 0;
  /// True when the solve resumed from a caller-supplied starting basis
  /// (SolveFrom) instead of running phase I from scratch. False on a cold
  /// solve or when the hint was rejected (singular / stale / infeasible).
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
  PivotRule pivot_rule = PivotRule::kBland;
  /// Cap on pivots (guards a cycling pivot rule). The solve fails soft with
  /// SolveStatus::kPivotLimit when the cap is hit.
  /// Warm-start installation eliminations count toward the cap.
  int64_t max_pivots = 1'000'000;
  /// Consumed by lp::Solver (not by the simplexes themselves): gates the
  /// keyed warm-start slots behind Solver::SolveKeyed. Off, every keyed
  /// solve runs cold — the ablation switch for warm-vs-cold benches.
  bool warm_starts = true;
};

/// Persistent tableau storage. Kept inside the solver across Solve() calls so
/// that repeated solves of similarly-sized programs (the Engine batch path)
/// reuse vector capacity instead of reallocating rows, costs, and rhs each
/// time. All members are rebuilt (capacity-preserving `assign`/`resize`) at
/// the start of every solve; none carry semantic state between calls.
template <typename Scalar>
struct SimplexWorkspace {
  std::vector<int> col_of_var;
  std::vector<int> neg_col_of_var;
  std::vector<Scalar> structural_cost;
  std::vector<Scalar> current_cost;
  std::vector<std::vector<Scalar>> rows;
  std::vector<Scalar> rhs;
  std::vector<Scalar> cost_row;
  std::vector<int> basis;
  std::vector<int> row_sign;
  std::vector<int> identity_col;
  std::vector<int> slack_col_of_row;
  std::vector<int> art_col_of_row;
  std::vector<int> artificials;
  std::vector<BasisEntry> col_entry;

  /// Releases all held memory (capacity included).
  void Release();
  /// Bytes of tableau capacity currently retained (rows only; a proxy for
  /// the reuse benefit, reported by benches).
  size_t RetainedRowCapacity() const;
};

template <typename Scalar>
class SimplexSolver {
 public:
  explicit SimplexSolver(SolverOptions options = {}) : options_(options) {}

  /// Solves the program. Hitting the pivot cap reports
  /// SolveStatus::kPivotLimit (it cannot happen with Bland's rule and exact
  /// arithmetic at the default cap). Non-const: the call reuses (and regrows)
  /// the solver's persistent tableau workspace, so a long-lived solver
  /// amortizes allocation across a batch of solves.
  Solution<Scalar> Solve(const LpProblem& problem);

  /// Warm start: re-factorizes `basis` (one entry per constraint row —
  /// typically the terminal basis of a previous Solve of an equal-shaped
  /// program, possibly with different rhs/objective data) by exact
  /// Gauss-Jordan elimination and resumes pivoting from it. A hint whose
  /// basis still carries artificials at nonzero values (a Farkas basis)
  /// resumes *phase I* from that basis; a feasible hint skips phase I
  /// entirely. Hints that do not apply — wrong row count, columns this
  /// program lacks, a singular column set, or negative basic values — are
  /// rejected and the solve falls back to the cold two-phase path;
  /// Solution::warm_started reports which happened. On an accepted hint the
  /// installation eliminations count toward `pivots` and the pivot cap, so
  /// warm-vs-cold pivot counts stay comparable; a rejected hint's wasted
  /// eliminations are forgotten, so the fallback behaves exactly like
  /// Solve() (same result, same cap semantics).
  Solution<Scalar> SolveFrom(const LpProblem& problem,
                             const std::vector<BasisEntry>& basis);

  /// Drops the persistent workspace memory. Subsequent solves start cold.
  void Reset() { workspace_.Release(); }

  /// Number of Solve() calls served by this solver instance.
  int64_t solves() const { return solves_; }
  const SimplexWorkspace<Scalar>& workspace() const { return workspace_; }

 private:
  SolverOptions options_;
  SimplexWorkspace<Scalar> workspace_;
  int64_t solves_ = 0;
};

/// Exact verification that `solution.duals` is a certificate of optimality:
///   * primal feasible, and c.x == objective == b.y;
///   * minimize: ≤-rows have y ≤ 0, ≥-rows have y ≥ 0, =-rows free, and for
///     every variable j: sum_i y_i A_ij ≤ c_j (== for free variables);
///   * maximize: all the above inequalities reversed.
bool VerifyDuals(const LpProblem& problem, const Solution<util::Rational>& solution);

/// Exact verification that `farkas` proves infeasibility:
///   y.b > 0; ≤-rows have y ≤ 0, ≥-rows y ≥ 0; and for every variable j,
///   sum_i y_i A_ij ≤ 0 (== 0 for free variables).
bool VerifyFarkas(const LpProblem& problem, const std::vector<util::Rational>& farkas);

extern template struct SimplexWorkspace<util::Rational>;
extern template class SimplexSolver<util::Rational>;

}  // namespace bagcq::lp
