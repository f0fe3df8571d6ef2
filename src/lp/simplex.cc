#include "lp/simplex.h"

#include "util/check.h"

namespace bagcq::lp {

namespace {

using util::Rational;

// Internal tableau, allocated per solve. Columns: the program's variables
// (program column j is tableau column j), then slacks/surpluses, then
// artificials; one rhs column. The cost row is maintained incrementally as
// d_j = c_j - z_j.
class Tableau {
 public:
  Tableau(const LpProblem& problem, const SolverOptions& options)
      : problem_(problem), options_(options) {}

  Solution Run(const std::vector<BasisEntry>* hint) {
    Build();
    Solution out;

    // Warm start: install the hinted basis in place. A hint that maps onto
    // this program is always used, its install pivots counted toward the
    // cap; one that does not is ignored before any pivot.
    out.warm_started = hint != nullptr && Install(*hint, &out.pivots);
    if (out.pivots > options_.max_pivots) {
      out.status = SolveStatus::kPivotLimit;
      return out;
    }

    // Phase I: minimize the sum of artificial variables. Needed cold
    // whenever artificials exist; a warm start needs it only when the
    // installed basis still carries an artificial at a nonzero value (a
    // Farkas basis, or an artificial no hint column replaced).
    const bool has_artificials = art_begin_ < num_columns_;
    const bool need_phase_one =
        out.warm_started ? InstalledBasisNeedsPhaseOne() : has_artificials;
    if (need_phase_one) {
      SetPhaseCosts(/*phase_one=*/true);
      SolveStatus status = Iterate(/*phase_one=*/true, &out.pivots);
      BAGCQ_CHECK(status != SolveStatus::kUnbounded)
          << "phase I cannot be unbounded";
      if (status == SolveStatus::kPivotLimit) {
        out.status = SolveStatus::kPivotLimit;
        return out;
      }
      if (objective_value_.sign() > 0) {
        out.status = SolveStatus::kInfeasible;
        out.farkas = ExtractRowMultipliers(/*phase_one=*/true);
        out.basis = ExtractBasis();
        return out;
      }
      PivotOutBasicArtificials();
    } else if (out.warm_started && has_artificials) {
      // The hint parked artificials at zero (redundant rows); mirror the
      // cold path so as few as possible stay basic. The cost row is still
      // the all-zero Build() state here, so these pivots touch only rows.
      PivotOutBasicArtificials();
    }

    // Phase II: original objective.
    SetPhaseCosts(/*phase_one=*/false);
    SolveStatus status = Iterate(/*phase_one=*/false, &out.pivots);
    if (status == SolveStatus::kUnbounded || status == SolveStatus::kPivotLimit) {
      out.status = status;
      return out;
    }

    out.status = SolveStatus::kOptimal;
    out.objective = objective_value_;
    out.values = ExtractPrimal();
    out.duals = ExtractRowMultipliers(/*phase_one=*/false);
    out.basis = ExtractBasis();
    return out;
  }

 private:
  void Build() {
    const int n = problem_.num_variables();
    const int m = problem_.num_constraints();
    num_columns_ = n;
    col_entry_.clear();
    cost_.clear();
    for (int j = 0; j < n; ++j) {
      col_entry_.push_back({BasisKind::kStructural, j});
      cost_.push_back(problem_.objective_coeff(j));
    }
    rows_.assign(m, {});
    rhs_.assign(m, Rational());
    row_sign_.assign(m, 1);
    identity_col_.assign(m, -1);
    slack_col_of_row_.assign(m, -1);
    art_col_of_row_.assign(m, -1);
    basis_.assign(m, -1);

    // First pass: structural part and row normalization (rhs >= 0).
    for (int i = 0; i < m; ++i) {
      const Constraint& row = problem_.constraints()[i];
      rows_[i] = row.coeffs;
      rhs_[i] = row.rhs;
      if (rhs_[i].sign() < 0) {
        row_sign_[i] = -1;
        for (Rational& a : rows_[i]) a = -a;
        rhs_[i] = -rhs_[i];
      }
    }

    // Second pass: slack/surplus columns.
    for (int i = 0; i < m; ++i) {
      const Constraint& row = problem_.constraints()[i];
      if (row.sense == Sense::kEqual) continue;
      // Slack (+1 for <=) or surplus (-1 for >=), then the row-sign flip.
      int coeff = (row.sense == Sense::kLessEqual ? 1 : -1) * row_sign_[i];
      int slack_col = AddColumn({BasisKind::kSlack, i});
      slack_col_of_row_[i] = slack_col;
      rows_[i][slack_col] = Rational(coeff);
      if (coeff == 1) {
        identity_col_[i] = slack_col;
        basis_[i] = slack_col;
      }
    }

    // Third pass: artificials for rows without a natural basic column. They
    // come last, so "is artificial" is a range check.
    art_begin_ = num_columns_;
    for (int i = 0; i < m; ++i) {
      if (basis_[i] >= 0) continue;
      int art_col = AddColumn({BasisKind::kArtificial, i});
      art_col_of_row_[i] = art_col;
      rows_[i][art_col] = Rational(1);
      identity_col_[i] = art_col;
      basis_[i] = art_col;
    }

    cost_row_.assign(num_columns_, Rational());
    objective_value_ = Rational();
  }

  int AddColumn(BasisEntry entry) {
    for (auto& row : rows_) row.emplace_back();
    cost_.emplace_back();  // slack/artificial phase-II cost 0
    col_entry_.push_back(entry);
    return num_columns_++;
  }

  bool IsArtificial(int col) const { return col >= art_begin_; }

  // Recomputes the cost row d_j = c_j - z_j and the objective for the phase.
  void SetPhaseCosts(bool phase_one) {
    std::vector<Rational> phase_cost(num_columns_);
    for (int j = 0; j < num_columns_; ++j) {
      phase_cost[j] = phase_one ? Rational(IsArtificial(j) ? 1 : 0) : cost_[j];
    }
    cost_row_ = phase_cost;
    objective_value_ = Rational();
    for (int i = 0; i < static_cast<int>(rows_.size()); ++i) {
      const Rational& cb = phase_cost[basis_[i]];
      if (cb.is_zero()) continue;
      for (int j = 0; j < num_columns_; ++j) {
        cost_row_[j] = cost_row_[j] - cb * rows_[i][j];
      }
      objective_value_ = objective_value_ + cb * rhs_[i];
    }
  }

  // Leaving row for column `enter`: minimum ratio over positive pivot
  // entries, Bland ties broken by smallest basis column; -1 if none.
  int SelectLeave(int enter) const {
    int leave = -1;
    for (int i = 0; i < static_cast<int>(rows_.size()); ++i) {
      if (rows_[i][enter].sign() <= 0) continue;
      if (leave == -1) {
        leave = i;
        continue;
      }
      // Compare rhs_[i]/rows_[i][enter] vs rhs_[leave]/rows_[leave][enter]
      // without division: cross-multiply (both pivots positive).
      Rational lhs = rhs_[i] * rows_[leave][enter];
      Rational rhs = rhs_[leave] * rows_[i][enter];
      if (lhs < rhs || (!(rhs < lhs) && basis_[i] < basis_[leave])) {
        leave = i;
      }
    }
    return leave;
  }

  // Runs pivots until optimal/unbounded. In phase II artificial columns may
  // not enter the basis (they stay parked at zero, preserving B^-1 columns
  // for dual extraction).
  SolveStatus Iterate(bool phase_one, int64_t* pivots) {
    const int end = phase_one ? num_columns_ : art_begin_;
    while (true) {
      // Entering column: Bland's rule, the first negative reduced cost.
      int enter = -1;
      for (int j = 0; j < end; ++j) {
        if (cost_row_[j].sign() < 0) {
          enter = j;
          break;
        }
      }
      if (enter == -1) return SolveStatus::kOptimal;

      const int leave = SelectLeave(enter);
      if (leave == -1) return SolveStatus::kUnbounded;

      Pivot(leave, enter);
      ++*pivots;
      // A solve needing exactly max_pivots still completes; only the pivot
      // after the cap fails (matching the pre-kPivotLimit CHECK semantics).
      if (*pivots > options_.max_pivots) return SolveStatus::kPivotLimit;
    }
  }

  // The row operations of a pivot, without the cost-row upkeep and without
  // the positivity requirement: a degenerate install pivot may be on a
  // negative entry, and the cost row is rebuilt after the install.
  void RawPivot(int leave, int enter) {
    std::vector<Rational>& prow = rows_[leave];
    Rational pivot = prow[enter];
    BAGCQ_DCHECK(!pivot.is_zero());
    for (Rational& a : prow) a = a / pivot;
    rhs_[leave] = rhs_[leave] / pivot;
    prow[enter] = Rational(1);

    for (int i = 0; i < static_cast<int>(rows_.size()); ++i) {
      if (i == leave) continue;
      Rational factor = rows_[i][enter];
      if (factor.is_zero()) continue;
      for (int j = 0; j < num_columns_; ++j) {
        rows_[i][j] = rows_[i][j] - factor * prow[j];
      }
      rows_[i][enter] = Rational();
      rhs_[i] = rhs_[i] - factor * rhs_[leave];
    }
    basis_[leave] = enter;
  }

  void Pivot(int leave, int enter) {
    BAGCQ_DCHECK(rows_[leave][enter].sign() > 0);
    Rational cfactor = cost_row_[enter];
    RawPivot(leave, enter);
    if (!cfactor.is_zero()) {
      const std::vector<Rational>& prow = rows_[leave];
      for (int j = 0; j < num_columns_; ++j) {
        cost_row_[j] = cost_row_[j] - cfactor * prow[j];
      }
      cost_row_[enter] = Rational();
      objective_value_ = objective_value_ + cfactor * rhs_[leave];
    }
  }

  // Maps one problem-space basis entry to its tableau column, or -1 when
  // this program has no such column (stale hint).
  int ColumnOfEntry(const BasisEntry& entry) const {
    const int n = problem_.num_variables();
    const int m = static_cast<int>(rows_.size());
    switch (entry.kind) {
      case BasisKind::kStructural:
        return entry.index >= 0 && entry.index < n ? entry.index : -1;
      case BasisKind::kSlack:
        return entry.index >= 0 && entry.index < m
                   ? slack_col_of_row_[entry.index]
                   : -1;
      case BasisKind::kArtificial:
        return entry.index >= 0 && entry.index < m
                   ? art_col_of_row_[entry.index]
                   : -1;
    }
    return -1;
  }

  bool ValuesNonnegative() const {
    for (const Rational& v : rhs_) {
      if (v.sign() < 0) return false;
    }
    return true;
  }

  // Installs the hint on the freshly built tableau, whose basic values are
  // all nonnegative, and keeps them so. False, before any pivot, iff the
  // hint does not map onto this program (wrong row count, or a column it
  // lacks). Each hint column, in hint order, enters at the first unassigned
  // row where it is nonzero and the basic value is 0 (a degenerate pivot,
  // which moves no value); else at the ratio-test row, if that row is
  // unassigned and its value positive; else it is skipped. A row no hint
  // column enters keeps its basic identity column: every install pivot is
  // on another row, where that column is 0, so it stays a unit column. A
  // column already basic at the row it would enter (a unit column there)
  // takes no pivot; a column basic at an assigned row, such as a
  // duplicate's twin, is zero on every unassigned row and is skipped.
  bool Install(const std::vector<BasisEntry>& hint, int64_t* pivots) {
    const int m = static_cast<int>(rows_.size());
    if (static_cast<int>(hint.size()) != m) return false;
    for (const BasisEntry& entry : hint) {
      if (ColumnOfEntry(entry) < 0) return false;
    }

    std::vector<char> assigned(m, 0);
    for (const BasisEntry& entry : hint) {
      const int col = ColumnOfEntry(entry);
      int r = -1;
      for (int i = 0; i < m; ++i) {
        if (!assigned[i] && rhs_[i].is_zero() && !rows_[i][col].is_zero()) {
          r = i;
          break;
        }
      }
      if (r < 0) {
        const int leave = SelectLeave(col);
        if (leave < 0 || assigned[leave] || rhs_[leave].sign() <= 0) continue;
        r = leave;
      }
      if (basis_[r] != col) {
        RawPivot(r, col);
        ++*pivots;
        BAGCQ_DCHECK(ValuesNonnegative());
      }
      assigned[r] = 1;
    }
    return true;
  }

  bool InstalledBasisNeedsPhaseOne() const {
    for (int i = 0; i < static_cast<int>(rows_.size()); ++i) {
      if (IsArtificial(basis_[i]) && rhs_[i].sign() > 0) return true;
    }
    return false;
  }

  // After phase I, basic artificials sit at value zero; pivot them out on any
  // nonzero non-artificial entry (degenerate pivots). Rows that are entirely
  // zero outside artificial columns are redundant and stay parked.
  void PivotOutBasicArtificials() {
    for (int i = 0; i < static_cast<int>(rows_.size()); ++i) {
      if (!IsArtificial(basis_[i])) continue;
      for (int j = 0; j < art_begin_; ++j) {
        if (!rows_[i][j].is_zero()) {
          // Direct elementary pivot (ratio irrelevant: rhs is zero).
          if (rows_[i][j].sign() < 0) {
            for (Rational& a : rows_[i]) a = -a;
            rhs_[i] = -rhs_[i];
          }
          Pivot(i, j);
          break;
        }
      }
    }
  }

  std::vector<BasisEntry> ExtractBasis() const {
    std::vector<BasisEntry> out;
    out.reserve(rows_.size());
    for (int col : basis_) out.push_back(col_entry_[col]);
    return out;
  }

  std::vector<Rational> ExtractPrimal() const {
    std::vector<Rational> out(problem_.num_variables());
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (basis_[i] < static_cast<int>(out.size())) out[basis_[i]] = rhs_[i];
    }
    return out;
  }

  // Row multipliers y_i = c_identity - d_identity, un-normalized by the row
  // sign. In phase I these are the Farkas certificate; in phase II the duals.
  std::vector<Rational> ExtractRowMultipliers(bool phase_one) const {
    const int m = static_cast<int>(rows_.size());
    std::vector<Rational> out(m);
    for (int i = 0; i < m; ++i) {
      int col = identity_col_[i];
      BAGCQ_CHECK_GE(col, 0) << "row without identity column";
      Rational cost = phase_one ? Rational(IsArtificial(col) ? 1 : 0) : cost_[col];
      Rational y = cost - cost_row_[col];
      if (row_sign_[i] < 0) y = -y;
      out[i] = y;
    }
    return out;
  }

  const LpProblem& problem_;
  const SolverOptions& options_;

  int num_columns_ = 0;
  int art_begin_ = 0;
  std::vector<BasisEntry> col_entry_;
  std::vector<Rational> cost_;  // phase-II cost per column
  std::vector<std::vector<Rational>> rows_;
  std::vector<Rational> rhs_;
  std::vector<Rational> cost_row_;
  std::vector<int> basis_;
  std::vector<int> row_sign_;
  std::vector<int> identity_col_;
  std::vector<int> slack_col_of_row_;
  std::vector<int> art_col_of_row_;
  Rational objective_value_;
};

}  // namespace

Solution SimplexSolver::Solve(const LpProblem& problem) const {
  return Tableau(problem, options_).Run(nullptr);
}

Solution SimplexSolver::SolveFrom(const LpProblem& problem,
                                  const std::vector<BasisEntry>& basis) const {
  return Tableau(problem, options_).Run(&basis);
}

bool VerifyDuals(const LpProblem& problem, const Solution& solution) {
  if (solution.status != SolveStatus::kOptimal) return false;
  const int n = problem.num_variables();
  const int m = problem.num_constraints();
  if (static_cast<int>(solution.values.size()) != n) return false;
  if (static_cast<int>(solution.duals.size()) != m) return false;

  // Primal feasibility and objective.
  Rational primal_obj;
  for (int j = 0; j < n; ++j) {
    primal_obj += problem.objective_coeff(j) * solution.values[j];
    if (solution.values[j].sign() < 0) return false;
  }
  if (primal_obj != solution.objective) return false;
  Rational dual_obj;
  for (int i = 0; i < m; ++i) {
    const Constraint& row = problem.constraints()[i];
    Rational lhs;
    for (int j = 0; j < n; ++j) lhs += row.coeffs[j] * solution.values[j];
    switch (row.sense) {
      case Sense::kLessEqual:
        if (lhs > row.rhs) return false;
        break;
      case Sense::kGreaterEqual:
        if (lhs < row.rhs) return false;
        break;
      case Sense::kEqual:
        if (lhs != row.rhs) return false;
        break;
    }
    // Dual sign conventions of a minimization.
    const Rational& y = solution.duals[i];
    if (row.sense == Sense::kLessEqual && y.sign() > 0) return false;
    if (row.sense == Sense::kGreaterEqual && y.sign() < 0) return false;
    dual_obj += y * row.rhs;
  }
  if (dual_obj != solution.objective) return false;

  // Dual feasibility per variable.
  for (int j = 0; j < n; ++j) {
    Rational s;
    for (int i = 0; i < m; ++i) {
      s += solution.duals[i] * problem.constraints()[i].coeffs[j];
    }
    if (s > problem.objective_coeff(j)) return false;
  }
  return true;
}

bool VerifyFarkas(const LpProblem& problem,
                  const std::vector<Rational>& farkas) {
  const int n = problem.num_variables();
  const int m = problem.num_constraints();
  if (static_cast<int>(farkas.size()) != m) return false;
  Rational yb;
  for (int i = 0; i < m; ++i) {
    const Constraint& row = problem.constraints()[i];
    if (row.sense == Sense::kLessEqual && farkas[i].sign() > 0) return false;
    if (row.sense == Sense::kGreaterEqual && farkas[i].sign() < 0) return false;
    yb += farkas[i] * row.rhs;
  }
  if (yb.sign() <= 0) return false;
  for (int j = 0; j < n; ++j) {
    Rational s;
    for (int i = 0; i < m; ++i) {
      s += farkas[i] * problem.constraints()[i].coeffs[j];
    }
    if (s.sign() > 0) return false;
  }
  return true;
}

}  // namespace bagcq::lp
