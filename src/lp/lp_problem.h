// Linear program descriptions, in two input forms with one contract: every
// variable is nonnegative and the objective is minimized. Every LP the
// decision procedure solves has that shape (the Γn and Nn/Mn LPs, the
// Shannon prover, the AGM edge cover), so there are no free variables and
// no maximize sense to carry.
//
// LpProblem: exact rational coefficients in dense rows, named variables.
//
// IntegerProgram: sparse int64 columns, int64 right-hand sides, no names.
// The elemental columns of Γn have at most four nonzeros, each ±1, so the
// program stays small where dense rational rows would not, and the ladder
// (ladder_simplex.h) fills its int64 arena from it without integerizing
// anything.
#pragma once

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
/// has magnitude below 2^62 (CHECK-enforced), the bound of the ladder's
/// int64 tier, so a solve starts in that tier with no staging.
class IntegerProgram {
 public:
  struct Entry {
    int row;
    int64_t value;
  };

  /// True iff |v| < 2^62, the magnitude bound of every datum.
  static bool Fits(int64_t v) {
    constexpr int64_t kBound = int64_t{1} << 62;
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

}  // namespace bagcq::lp
