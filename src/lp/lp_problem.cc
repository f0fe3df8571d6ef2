#include "lp/lp_problem.h"

#include <sstream>

#include "util/check.h"

namespace bagcq::lp {

const char* SenseToString(Sense sense) {
  switch (sense) {
    case Sense::kLessEqual:
      return "<=";
    case Sense::kGreaterEqual:
      return ">=";
    case Sense::kEqual:
      return "=";
  }
  return "?";
}

const char* SolveStatusToString(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "Optimal";
    case SolveStatus::kInfeasible:
      return "Infeasible";
    case SolveStatus::kUnbounded:
      return "Unbounded";
    case SolveStatus::kPivotLimit:
      return "PivotLimit";
  }
  return "?";
}

int LpProblem::AddVariable(std::string name) {
  if (name.empty()) name = "x" + std::to_string(names_.size());
  names_.push_back(std::move(name));
  return num_variables() - 1;
}

void LpProblem::AddConstraint(std::vector<util::Rational> coeffs, Sense sense,
                              util::Rational rhs, std::string name) {
  BAGCQ_CHECK_LE(coeffs.size(), names_.size())
      << "constraint has more coefficients than variables";
  coeffs.resize(names_.size());
  constraints_.push_back(
      Constraint{std::move(coeffs), sense, std::move(rhs), std::move(name)});
}

void LpProblem::SetObjective(std::vector<util::Rational> coeffs) {
  BAGCQ_CHECK_LE(coeffs.size(), names_.size());
  objective_ = std::move(coeffs);
}

util::Rational LpProblem::objective_coeff(int j) const {
  if (j < static_cast<int>(objective_.size())) return objective_[j];
  return util::Rational(0);
}

std::string LpProblem::ToString() const {
  std::ostringstream os;
  os << "minimize";
  for (int j = 0; j < num_variables(); ++j) {
    util::Rational c = objective_coeff(j);
    if (!c.is_zero()) os << " + (" << c << ")*" << names_[j];
  }
  os << "\nsubject to\n";
  for (const Constraint& row : constraints_) {
    os << "  ";
    bool any = false;
    for (size_t j = 0; j < row.coeffs.size(); ++j) {
      if (!row.coeffs[j].is_zero()) {
        os << (any ? " + (" : "(") << row.coeffs[j] << ")*" << names_[j];
        any = true;
      }
    }
    if (!any) os << "0";
    os << " " << SenseToString(row.sense) << " " << row.rhs;
    if (!row.name.empty()) os << "   [" << row.name << "]";
    os << "\n";
  }
  for (const std::string& name : names_) os << "  " << name << " >= 0\n";
  return os.str();
}

bool IntegerProgram::FromRational(const util::Rational& v, int64_t* out) {
  if (!v.is_integer() || v.num().BitLength() > kMaxBits) return false;
  *out = v.num().ToInt64();
  return true;
}

int IntegerProgram::AddRow(Sense sense, int64_t rhs) {
  BAGCQ_CHECK(Fits(rhs)) << "rhs " << rhs << " exceeds " << kMaxBits
                         << " bits";
  sense_.push_back(sense);
  rhs_.push_back(rhs);
  return num_rows() - 1;
}

int IntegerProgram::AddColumn(int64_t cost) {
  BAGCQ_CHECK(Fits(cost)) << "cost " << cost << " exceeds " << kMaxBits
                          << " bits";
  cost_.push_back(cost);
  column_end_.push_back(entries_.size());
  return num_columns() - 1;
}

void IntegerProgram::AddEntry(int row, int64_t value) {
  BAGCQ_CHECK(!cost_.empty()) << "AddEntry before the first AddColumn";
  BAGCQ_CHECK(row >= 0 && row < num_rows()) << "row " << row;
  BAGCQ_CHECK(Fits(value)) << "coefficient " << value << " exceeds "
                           << kMaxBits << " bits";
  if (value == 0) return;
  entries_.push_back({row, value});
  ++column_end_.back();
}

}  // namespace bagcq::lp
