// Linear program descriptions, in two input forms with one contract: every
// variable is nonnegative and the objective is minimized. Every LP the
// decision procedure solves has that shape (the Γn and Nn/Mn LPs, the
// Shannon prover, the AGM edge cover), so there are no free variables and
// no maximize sense to carry. The Solution both exact simplexes return for
// such a program, and the SolverOptions they take, are declared here too.
//
// LpProblem: exact rational coefficients in dense rows, named variables.
//
// IntegerProgram: sparse int64 columns, int64 right-hand sides, no names.
// The elemental columns of Γn have at most four nonzeros, each ±1, so the
// program stays small where dense rational rows would not, and the ladder
// (ladder_simplex.h) fills its int64 arena from it without integerizing
// anything.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/rational.h"

namespace bagcq::lp {

enum class Sense { kLessEqual, kGreaterEqual, kEqual };

/// Returns "<=", ">=", or "=".
const char* SenseToString(Sense sense);

/// One linear constraint  sum_j coeffs[j] * x_j  (sense)  rhs.
struct Constraint {
  std::vector<util::Rational> coeffs;  // dense, one per variable
  Sense sense = Sense::kLessEqual;
  util::Rational rhs;
  std::string name;  // optional, for diagnostics
};

/// A linear program built incrementally: minimize Σ_j c_j x_j subject to
/// the constraints, x ≥ 0.
class LpProblem {
 public:
  /// Adds a variable with lower bound 0; returns its index.
  int AddVariable(std::string name = "");

  /// Adds a constraint. `coeffs` may be shorter than the number of variables
  /// (missing entries are zero) but not longer.
  void AddConstraint(std::vector<util::Rational> coeffs, Sense sense,
                     util::Rational rhs, std::string name = "");

  /// Sets the objective to minimize (zero until set). `coeffs` may be
  /// shorter than the variable count.
  void SetObjective(std::vector<util::Rational> coeffs);

  int num_variables() const { return static_cast<int>(names_.size()); }
  int num_constraints() const { return static_cast<int>(constraints_.size()); }
  const std::string& variable_name(int j) const { return names_[j]; }
  const std::vector<Constraint>& constraints() const { return constraints_; }
  const std::vector<util::Rational>& objective() const { return objective_; }
  /// Objective coefficient of variable j (0 if beyond the stored prefix).
  util::Rational objective_coeff(int j) const;

  /// Multi-line human-readable rendering (for logs and error messages).
  std::string ToString() const;

 private:
  std::vector<std::string> names_;
  std::vector<Constraint> constraints_;
  std::vector<util::Rational> objective_;
};

/// A linear program with integer data: minimize Σ_j cost_j x_j subject to
/// one constraint Σ_j a_ij x_j (sense_i) rhs_i per row, x ≥ 0. Built row
/// headers first, then column by column. Every coefficient, rhs and cost
/// has magnitude below 2^kMaxBits (CHECK-enforced), the input bound of the
/// ladder's int64 tier, so a solve starts in that tier with no staging.
class IntegerProgram {
 public:
  struct Entry {
    int row;
    int64_t value;
  };

  /// The magnitude bound of every datum, in bits: |v| < 2^62. It is also
  /// the bound below which the ladder (ladder_simplex.h) starts a staged
  /// LpProblem in its int64 tier.
  static constexpr size_t kMaxBits = 62;

  /// True iff |v| < 2^kMaxBits.
  static bool Fits(int64_t v) {
    constexpr int64_t kBound = int64_t{1} << kMaxBits;
    return v > -kBound && v < kBound;
  }
  /// Sets *out to v and returns true iff v is an integer that Fits.
  static bool FromRational(const util::Rational& v, int64_t* out);

  /// Adds a constraint row with right-hand side `rhs`; returns its index.
  int AddRow(Sense sense, int64_t rhs);
  /// Adds a nonnegative variable with objective coefficient `cost`; returns
  /// its index. AddEntry fills this newest column.
  int AddColumn(int64_t cost = 0);
  /// Sets the newest column's coefficient on `row` (each row at most once
  /// per column). Zeros are not stored.
  void AddEntry(int row, int64_t value);

  int num_rows() const { return static_cast<int>(rhs_.size()); }
  int num_columns() const { return static_cast<int>(cost_.size()); }
  Sense sense(int i) const { return sense_[i]; }
  int64_t rhs(int i) const { return rhs_[i]; }
  int64_t cost(int j) const { return cost_[j]; }
  /// The nonzero entries of column j.
  std::span<const Entry> column(int j) const {
    const size_t begin = j == 0 ? 0 : column_end_[j - 1];
    return {entries_.data() + begin, column_end_[j] - begin};
  }

 private:
  std::vector<Sense> sense_;
  std::vector<int64_t> rhs_;
  std::vector<int64_t> cost_;
  std::vector<size_t> column_end_;
  std::vector<Entry> entries_;
};

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
  /// One dual per constraint (valid when kOptimal); see VerifyDuals
  /// (simplex.h).
  std::vector<util::Rational> duals;
  /// One multiplier per constraint (valid when kInfeasible); see
  /// VerifyFarkas (simplex.h).
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
  /// Escalation-ladder accounting (LadderSimplex only; zero elsewhere). A
  /// solve runs in one tier: word_pivots is its pivot count when it ran in
  /// the overflow-checked int64 tier from start to finish, else 0, and
  /// bigint_promotions is 1 when its int64 run overflowed and it ran again
  /// from the start in BigInt, else 0. word_pivots also counts the pivots
  /// that move basic artificials out after phase I, which `pivots` does
  /// not count, so it is not a part of `pivots`.
  int64_t word_pivots = 0;
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
  /// solve runs cold, so pivots, λ and certificates depend only on the
  /// program: `bagcq_server --cold` turns it off for deterministic replies,
  /// and warm-vs-cold benches use it as their ablation switch.
  bool warm_starts = true;
};

}  // namespace bagcq::lp
