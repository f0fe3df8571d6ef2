// Linear program description.
//
// Coefficients are exact rationals.
// Variables are nonnegative by default; free variables are supported (the
// solver splits them internally).
#pragma once

#include <string>
#include <vector>

#include "util/rational.h"

namespace bagcq::lp {

enum class Sense { kLessEqual, kGreaterEqual, kEqual };
enum class Objective { kMinimize, kMaximize };

/// Returns "<=", ">=", or "=".
const char* SenseToString(Sense sense);

/// One linear constraint  sum_j coeffs[j] * x_j  (sense)  rhs.
struct Constraint {
  std::vector<util::Rational> coeffs;  // dense, one per variable
  Sense sense = Sense::kLessEqual;
  util::Rational rhs;
  std::string name;  // optional, for diagnostics
};

/// A linear program built incrementally.
class LpProblem {
 public:
  /// Adds a variable with lower bound 0; returns its index.
  int AddVariable(std::string name = "");
  /// Adds a variable unrestricted in sign; returns its index.
  int AddFreeVariable(std::string name = "");

  /// Adds a constraint. `coeffs` may be shorter than the number of variables
  /// (missing entries are zero) but not longer.
  void AddConstraint(std::vector<util::Rational> coeffs, Sense sense,
                     util::Rational rhs, std::string name = "");

  /// Sets the objective. `coeffs` may be shorter than the variable count.
  void SetObjective(Objective direction, std::vector<util::Rational> coeffs);

  int num_variables() const { return static_cast<int>(free_.size()); }
  int num_constraints() const { return static_cast<int>(constraints_.size()); }
  bool variable_is_free(int j) const { return free_[j]; }
  const std::string& variable_name(int j) const { return names_[j]; }
  const std::vector<Constraint>& constraints() const { return constraints_; }
  Objective objective_sense() const { return objective_sense_; }
  const std::vector<util::Rational>& objective() const { return objective_; }
  /// Objective coefficient of variable j (0 if beyond the stored prefix).
  util::Rational objective_coeff(int j) const;

  /// Multi-line human-readable rendering (for logs and error messages).
  std::string ToString() const;

 private:
  std::vector<bool> free_;
  std::vector<std::string> names_;
  std::vector<Constraint> constraints_;
  Objective objective_sense_ = Objective::kMinimize;
  std::vector<util::Rational> objective_;
};

}  // namespace bagcq::lp
