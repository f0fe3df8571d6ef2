#include "lp/simplex.h"

#include <algorithm>

#include "util/check.h"

namespace bagcq::lp {

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

namespace {

// Scalar abstraction: the exact comparisons the tableau pivots on.
template <typename Scalar>
struct Field;

template <>
struct Field<util::Rational> {
  static util::Rational FromRational(const util::Rational& r) { return r; }
  static bool IsZero(const util::Rational& v) { return v.is_zero(); }
  static bool IsNegative(const util::Rational& v) { return v.sign() < 0; }
  static bool IsPositive(const util::Rational& v) { return v.sign() > 0; }
  static bool Less(const util::Rational& a, const util::Rational& b) {
    return a < b;
  }
};

// Internal tableau. Columns: structural (original variables, free ones
// split into x+ - x-), then slacks/surpluses, then artificials; one rhs
// column. The cost row is maintained incrementally as d_j = c_j - z_j.
// All storage lives in the caller's SimplexWorkspace and is rebuilt with
// capacity-preserving assigns, so back-to-back solves do not reallocate.
template <typename Scalar>
class Tableau {
 public:
  using F = Field<Scalar>;

  Tableau(const LpProblem& problem, const SolverOptions& options,
          SimplexWorkspace<Scalar>& workspace)
      : problem_(problem), options_(options), ws_(workspace) {}

  Solution<Scalar> Run(const std::vector<BasisEntry>* hint) {
    Build();
    Solution<Scalar> out;

    // Warm start: re-factorize the hinted basis in place. A failed install
    // may have half-transformed the tableau, so the cold path rebuilds — and
    // forgets the wasted eliminations, so a rejected hint leaves the pivot
    // count (and the cap) exactly where a cold Solve() would put them.
    bool installed = false;
    if (hint != nullptr) {
      installed = TryInstall(*hint, &out.pivots);
      if (!installed) {
        Build();
        out.pivots = 0;
      }
    }
    out.warm_started = installed;
    if (out.pivots > options_.max_pivots) {
      out.status = SolveStatus::kPivotLimit;
      return out;
    }

    // Phase I: minimize the sum of artificial variables. Needed cold
    // whenever artificials exist; a warm start needs it only when the
    // installed basis still carries an artificial at a nonzero value (an
    // infeasibility hint — e.g. the Farkas basis of a previous solve).
    const bool need_phase_one =
        installed ? InstalledBasisNeedsPhaseOne() : !ws_.artificials.empty();
    if (need_phase_one) {
      SetPhaseCosts(/*phase_one=*/true);
      SolveStatus status = Iterate(/*phase_one=*/true, &out.pivots);
      BAGCQ_CHECK(status != SolveStatus::kUnbounded)
          << "phase I cannot be unbounded";
      if (status == SolveStatus::kPivotLimit) {
        out.status = SolveStatus::kPivotLimit;
        return out;
      }
      if (F::IsPositive(objective_value_)) {
        out.status = SolveStatus::kInfeasible;
        out.farkas = ExtractRowMultipliers(/*phase_one=*/true);
        out.basis = ExtractBasis();
        return out;
      }
      PivotOutBasicArtificials();
    } else if (installed && !ws_.artificials.empty()) {
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
    // objective_value_ tracks the minimized internal objective.
    out.objective = maximize_ ? Scalar{} - objective_value_ : objective_value_;
    out.values = ExtractPrimal();
    out.duals = ExtractRowMultipliers(/*phase_one=*/false);
    out.basis = ExtractBasis();
    if (maximize_) {
      for (Scalar& y : out.duals) y = Scalar{} - y;
    }
    return out;
  }

 private:
  void Build() {
    maximize_ = problem_.objective_sense() == Objective::kMaximize;
    const int n = problem_.num_variables();
    const int m = problem_.num_constraints();

    // Column layout for structural variables.
    ws_.col_of_var.resize(n);
    ws_.neg_col_of_var.assign(n, -1);
    ws_.col_entry.clear();
    int col = 0;
    for (int j = 0; j < n; ++j) {
      ws_.col_of_var[j] = col++;
      ws_.col_entry.push_back({BasisKind::kStructural, j});
      if (problem_.variable_is_free(j)) {
        ws_.neg_col_of_var[j] = col++;
        ws_.col_entry.push_back({BasisKind::kNegStructural, j});
      }
    }
    num_structural_ = col;
    num_columns_ = num_structural_;

    // Internal (minimization) costs for structural columns.
    ws_.structural_cost.assign(num_structural_, Scalar{});
    for (int j = 0; j < n; ++j) {
      util::Rational c = problem_.objective_coeff(j);
      if (maximize_) c = -c;
      ws_.structural_cost[ws_.col_of_var[j]] = F::FromRational(c);
      if (ws_.neg_col_of_var[j] >= 0) {
        ws_.structural_cost[ws_.neg_col_of_var[j]] = F::FromRational(-c);
      }
    }

    // Resize the row list without discarding inner-vector capacity: assign()
    // with a prototype would replace every row by a fresh empty vector.
    if (static_cast<int>(ws_.rows.size()) > m) ws_.rows.resize(m);
    while (static_cast<int>(ws_.rows.size()) < m) ws_.rows.emplace_back();
    ws_.rhs.assign(m, Scalar{});
    ws_.row_sign.assign(m, 1);
    ws_.identity_col.assign(m, -1);
    ws_.slack_col_of_row.assign(m, -1);
    ws_.art_col_of_row.assign(m, -1);
    ws_.basis.assign(m, -1);
    ws_.artificials.clear();

    // First pass: structural part and row normalization (rhs >= 0).
    for (int i = 0; i < m; ++i) {
      const Constraint& row = problem_.constraints()[i];
      ws_.rows[i].assign(num_structural_, Scalar{});
      for (int j = 0; j < n; ++j) {
        Scalar a = F::FromRational(row.coeffs[j]);
        ws_.rows[i][ws_.col_of_var[j]] = a;
        if (ws_.neg_col_of_var[j] >= 0) ws_.rows[i][ws_.neg_col_of_var[j]] = Scalar{} - a;
      }
      ws_.rhs[i] = F::FromRational(row.rhs);
      if (F::IsNegative(ws_.rhs[i])) {
        ws_.row_sign[i] = -1;
        for (Scalar& a : ws_.rows[i]) a = Scalar{} - a;
        ws_.rhs[i] = Scalar{} - ws_.rhs[i];
      }
    }

    // Second pass: slack/surplus columns.
    for (int i = 0; i < m; ++i) {
      const Constraint& row = problem_.constraints()[i];
      if (row.sense == Sense::kEqual) continue;
      // Slack (+1 for <=) or surplus (-1 for >=), then the row-sign flip.
      int coeff = (row.sense == Sense::kLessEqual ? 1 : -1) * ws_.row_sign[i];
      int slack_col = AddColumn({BasisKind::kSlack, i});
      ws_.slack_col_of_row[i] = slack_col;
      ws_.rows[i][slack_col] = coeff == 1 ? Scalar{1} : Scalar{} - Scalar{1};
      if (coeff == 1) {
        ws_.identity_col[i] = slack_col;
        ws_.basis[i] = slack_col;
      }
    }

    // Third pass: artificials for rows without a natural basic column.
    for (int i = 0; i < m; ++i) {
      if (ws_.basis[i] >= 0) continue;
      int art_col = AddColumn({BasisKind::kArtificial, i});
      ws_.art_col_of_row[i] = art_col;
      ws_.rows[i][art_col] = Scalar{1};
      ws_.identity_col[i] = art_col;
      ws_.basis[i] = art_col;
      ws_.artificials.push_back(art_col);
    }

    ws_.cost_row.assign(num_columns_, Scalar{});
    objective_value_ = Scalar{};
  }

  int AddColumn(BasisEntry entry) {
    for (auto& row : ws_.rows) row.push_back(Scalar{});
    ws_.structural_cost.push_back(Scalar{});  // slack/artificial phase-II cost 0
    ws_.col_entry.push_back(entry);
    return num_columns_++;
  }

  bool IsArtificial(int col) const {
    return std::find(ws_.artificials.begin(), ws_.artificials.end(), col) !=
           ws_.artificials.end();
  }

  // Recomputes the cost row d_j = c_j - z_j and the objective for the phase.
  void SetPhaseCosts(bool phase_one) {
    ws_.current_cost.assign(num_columns_, Scalar{});
    if (phase_one) {
      for (int col : ws_.artificials) ws_.current_cost[col] = Scalar{1};
    } else {
      for (int j = 0; j < num_columns_; ++j) ws_.current_cost[j] = ws_.structural_cost[j];
    }
    for (int j = 0; j < num_columns_; ++j) ws_.cost_row[j] = ws_.current_cost[j];
    objective_value_ = Scalar{};
    for (int i = 0; i < static_cast<int>(ws_.rows.size()); ++i) {
      const Scalar& cb = ws_.current_cost[ws_.basis[i]];
      if (F::IsZero(cb)) continue;
      for (int j = 0; j < num_columns_; ++j) {
        ws_.cost_row[j] = ws_.cost_row[j] - cb * ws_.rows[i][j];
      }
      objective_value_ = objective_value_ + cb * ws_.rhs[i];
    }
  }

  // Runs pivots until optimal/unbounded. In phase II artificial columns may
  // not enter the basis (they stay parked at zero, preserving B^-1 columns
  // for dual extraction).
  SolveStatus Iterate(bool phase_one, int64_t* pivots) {
    const int m = static_cast<int>(ws_.rows.size());
    while (true) {
      // Entering column: Bland's rule, the first negative reduced cost.
      int enter = -1;
      for (int j = 0; j < num_columns_; ++j) {
        if (!phase_one && IsArtificial(j)) continue;
        if (F::IsNegative(ws_.cost_row[j])) {
          enter = j;
          break;
        }
      }
      if (enter == -1) return SolveStatus::kOptimal;

      // Leaving row: minimum ratio over positive pivot entries; Bland ties
      // broken by smallest basis column.
      int leave = -1;
      for (int i = 0; i < m; ++i) {
        if (!F::IsPositive(ws_.rows[i][enter])) continue;
        if (leave == -1) {
          leave = i;
          continue;
        }
        // Compare ws_.rhs[i]/ws_.rows[i][enter] vs ws_.rhs[leave]/ws_.rows[leave][enter]
        // without division: cross-multiply (both pivots positive).
        Scalar lhs = ws_.rhs[i] * ws_.rows[leave][enter];
        Scalar rhs = ws_.rhs[leave] * ws_.rows[i][enter];
        if (F::Less(lhs, rhs) ||
            (!F::Less(rhs, lhs) && ws_.basis[i] < ws_.basis[leave])) {
          leave = i;
        }
      }
      if (leave == -1) return SolveStatus::kUnbounded;

      Pivot(leave, enter);
      ++*pivots;
      // A solve needing exactly max_pivots still completes; only the pivot
      // after the cap fails (matching the pre-kPivotLimit CHECK semantics).
      if (*pivots > options_.max_pivots) return SolveStatus::kPivotLimit;
    }
  }

  // The row operations of a pivot, without the cost-row upkeep and without
  // the positivity requirement — basis installation pivots on whatever
  // nonzero entry it finds and rebuilds the cost row afterwards.
  void RawPivot(int leave, int enter) {
    std::vector<Scalar>& prow = ws_.rows[leave];
    Scalar pivot = prow[enter];
    BAGCQ_DCHECK(!F::IsZero(pivot));
    for (Scalar& a : prow) a = a / pivot;
    ws_.rhs[leave] = ws_.rhs[leave] / pivot;
    prow[enter] = Scalar{1};

    for (int i = 0; i < static_cast<int>(ws_.rows.size()); ++i) {
      if (i == leave) continue;
      Scalar factor = ws_.rows[i][enter];
      if (F::IsZero(factor)) continue;
      for (int j = 0; j < num_columns_; ++j) {
        ws_.rows[i][j] = ws_.rows[i][j] - factor * prow[j];
      }
      ws_.rows[i][enter] = Scalar{};
      ws_.rhs[i] = ws_.rhs[i] - factor * ws_.rhs[leave];
    }
    ws_.basis[leave] = enter;
  }

  void Pivot(int leave, int enter) {
    BAGCQ_DCHECK(F::IsPositive(ws_.rows[leave][enter]));
    Scalar cfactor = ws_.cost_row[enter];
    RawPivot(leave, enter);
    if (!F::IsZero(cfactor)) {
      const std::vector<Scalar>& prow = ws_.rows[leave];
      for (int j = 0; j < num_columns_; ++j) {
        ws_.cost_row[j] = ws_.cost_row[j] - cfactor * prow[j];
      }
      ws_.cost_row[enter] = Scalar{};
      objective_value_ = objective_value_ + cfactor * ws_.rhs[leave];
    }
  }

  // Maps one problem-space basis entry to its tableau column, or -1 when
  // this program has no such column (stale hint).
  int ColumnOfEntry(const BasisEntry& entry) const {
    const int n = problem_.num_variables();
    const int m = static_cast<int>(ws_.rows.size());
    switch (entry.kind) {
      case BasisKind::kStructural:
        return entry.index >= 0 && entry.index < n
                   ? ws_.col_of_var[entry.index]
                   : -1;
      case BasisKind::kNegStructural:
        return entry.index >= 0 && entry.index < n
                   ? ws_.neg_col_of_var[entry.index]
                   : -1;
      case BasisKind::kSlack:
        return entry.index >= 0 && entry.index < m
                   ? ws_.slack_col_of_row[entry.index]
                   : -1;
      case BasisKind::kArtificial:
        return entry.index >= 0 && entry.index < m
                   ? ws_.art_col_of_row[entry.index]
                   : -1;
    }
    return -1;
  }

  bool IsUnitColumnAt(int col, int r) const {
    for (int i = 0; i < static_cast<int>(ws_.rows.size()); ++i) {
      const Scalar diff =
          i == r ? ws_.rows[i][col] - Scalar{1} : ws_.rows[i][col];
      if (!F::IsZero(diff)) return false;
    }
    return true;
  }

  // Gauss-Jordan the freshly built tableau onto the hinted basis. True iff
  // the hint applies: every entry maps to an existing column, the column set
  // is nonsingular (duplicates die naturally — once a column is a unit
  // vector, no unassigned row has a nonzero entry in its twin), and the
  // resulting basic values are all nonnegative. On false the tableau may be
  // half-transformed and the caller must rebuild.
  bool TryInstall(const std::vector<BasisEntry>& hint, int64_t* pivots) {
    const int m = static_cast<int>(ws_.rows.size());
    if (static_cast<int>(hint.size()) != m) return false;
    std::vector<int> cols(m, -1);
    for (int c = 0; c < m; ++c) {
      cols[c] = ColumnOfEntry(hint[c]);
      if (cols[c] < 0) return false;
    }

    std::vector<char> row_done(m, 0);
    for (int col : cols) {
      int r = -1;
      for (int i = 0; i < m; ++i) {
        if (!row_done[i] && !F::IsZero(ws_.rows[i][col])) {
          r = i;
          break;
        }
      }
      if (r < 0) return false;  // singular (or duplicated) column set
      if (ws_.basis[r] != col || !IsUnitColumnAt(col, r)) {
        RawPivot(r, col);
        ++*pivots;
      }
      ws_.basis[r] = col;
      row_done[r] = 1;
    }

    // The installed basis must be primal feasible — for phase II directly,
    // or for a phase-I resume when artificials stayed basic. Negative basic
    // values would need the dual simplex this solver does not have.
    for (int i = 0; i < m; ++i) {
      if (F::IsNegative(ws_.rhs[i])) return false;
    }
    return true;
  }

  bool InstalledBasisNeedsPhaseOne() const {
    for (int i = 0; i < static_cast<int>(ws_.rows.size()); ++i) {
      if (ws_.col_entry[ws_.basis[i]].kind == BasisKind::kArtificial &&
          F::IsPositive(ws_.rhs[i])) {
        return true;
      }
    }
    return false;
  }

  // After phase I, basic artificials sit at value zero; pivot them out on any
  // nonzero non-artificial entry (degenerate pivots). Rows that are entirely
  // zero outside artificial columns are redundant and stay parked.
  void PivotOutBasicArtificials() {
    for (int i = 0; i < static_cast<int>(ws_.rows.size()); ++i) {
      if (!IsArtificial(ws_.basis[i])) continue;
      for (int j = 0; j < num_columns_; ++j) {
        if (IsArtificial(j)) continue;
        if (!F::IsZero(ws_.rows[i][j])) {
          // Direct elementary pivot (ratio irrelevant: rhs is zero).
          if (F::IsNegative(ws_.rows[i][j])) {
            for (Scalar& a : ws_.rows[i]) a = Scalar{} - a;
            ws_.rhs[i] = Scalar{} - ws_.rhs[i];
          }
          Pivot(i, j);
          break;
        }
      }
    }
  }

  std::vector<BasisEntry> ExtractBasis() const {
    std::vector<BasisEntry> out;
    out.reserve(ws_.rows.size());
    for (size_t i = 0; i < ws_.rows.size(); ++i) {
      out.push_back(ws_.col_entry[ws_.basis[i]]);
    }
    return out;
  }

  std::vector<Scalar> ExtractPrimal() const {
    std::vector<Scalar> internal(num_columns_, Scalar{});
    for (int i = 0; i < static_cast<int>(ws_.rows.size()); ++i) {
      internal[ws_.basis[i]] = ws_.rhs[i];
    }
    const int n = problem_.num_variables();
    std::vector<Scalar> out(n, Scalar{});
    for (int j = 0; j < n; ++j) {
      out[j] = internal[ws_.col_of_var[j]];
      if (ws_.neg_col_of_var[j] >= 0) {
        out[j] = out[j] - internal[ws_.neg_col_of_var[j]];
      }
    }
    return out;
  }

  // Row multipliers y_i = c_identity - d_identity, un-normalized by the row
  // sign. In phase I these are the Farkas certificate; in phase II the duals.
  std::vector<Scalar> ExtractRowMultipliers(bool phase_one) const {
    const int m = static_cast<int>(ws_.rows.size());
    std::vector<Scalar> out(m, Scalar{});
    for (int i = 0; i < m; ++i) {
      int col = ws_.identity_col[i];
      BAGCQ_CHECK_GE(col, 0) << "row without identity column";
      Scalar cost = phase_one ? (IsArtificial(col) ? Scalar{1} : Scalar{})
                              : ws_.structural_cost[col];
      Scalar y = cost - ws_.cost_row[col];
      if (ws_.row_sign[i] < 0) y = Scalar{} - y;
      out[i] = y;
    }
    return out;
  }

  const LpProblem& problem_;
  SolverOptions options_;
  SimplexWorkspace<Scalar>& ws_;

  bool maximize_ = false;
  int num_structural_ = 0;
  int num_columns_ = 0;
  Scalar objective_value_{};
};

}  // namespace

template <typename Scalar>
void SimplexWorkspace<Scalar>::Release() {
  *this = SimplexWorkspace<Scalar>();
}

template <typename Scalar>
size_t SimplexWorkspace<Scalar>::RetainedRowCapacity() const {
  size_t bytes = rows.capacity() * sizeof(std::vector<Scalar>);
  for (const auto& row : rows) bytes += row.capacity() * sizeof(Scalar);
  return bytes;
}

template <typename Scalar>
Solution<Scalar> SimplexSolver<Scalar>::Solve(const LpProblem& problem) {
  ++solves_;
  Tableau<Scalar> tableau(problem, options_, workspace_);
  return tableau.Run(nullptr);
}

template <typename Scalar>
Solution<Scalar> SimplexSolver<Scalar>::SolveFrom(
    const LpProblem& problem, const std::vector<BasisEntry>& basis) {
  ++solves_;
  Tableau<Scalar> tableau(problem, options_, workspace_);
  return tableau.Run(&basis);
}

bool VerifyDuals(const LpProblem& problem,
                 const Solution<util::Rational>& solution) {
  using util::Rational;
  if (solution.status != SolveStatus::kOptimal) return false;
  const int n = problem.num_variables();
  const int m = problem.num_constraints();
  if (static_cast<int>(solution.values.size()) != n) return false;
  if (static_cast<int>(solution.duals.size()) != m) return false;
  const bool maximize = problem.objective_sense() == Objective::kMaximize;

  // Primal feasibility and objective.
  Rational primal_obj;
  for (int j = 0; j < n; ++j) {
    primal_obj += problem.objective_coeff(j) * solution.values[j];
    if (!problem.variable_is_free(j) && solution.values[j].sign() < 0) {
      return false;
    }
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
    // Dual sign conventions (min; flipped for max).
    const Rational& y = solution.duals[i];
    int sign = y.sign();
    if (maximize) sign = -sign;
    if (row.sense == Sense::kLessEqual && sign > 0) return false;
    if (row.sense == Sense::kGreaterEqual && sign < 0) return false;
    dual_obj += y * row.rhs;
  }
  if (dual_obj != solution.objective) return false;

  // Dual feasibility per variable.
  for (int j = 0; j < n; ++j) {
    Rational s;
    for (int i = 0; i < m; ++i) {
      s += solution.duals[i] * problem.constraints()[i].coeffs[j];
    }
    Rational c = problem.objective_coeff(j);
    if (problem.variable_is_free(j)) {
      if (s != c) return false;
    } else if (!maximize && s > c) {
      return false;
    } else if (maximize && s < c) {
      return false;
    }
  }
  return true;
}

bool VerifyFarkas(const LpProblem& problem,
                  const std::vector<util::Rational>& farkas) {
  using util::Rational;
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
    if (problem.variable_is_free(j)) {
      if (!s.is_zero()) return false;
    } else if (s.sign() > 0) {
      return false;
    }
  }
  return true;
}

template struct SimplexWorkspace<util::Rational>;
template class SimplexSolver<util::Rational>;

}  // namespace bagcq::lp
