#include "entropy/shannon.h"

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>

#include "entropy/dense_check.h"
#include "lp/lp_problem.h"
#include "lp/solver.h"
#include "util/check.h"

namespace bagcq::entropy {

bool ShannonCertificate::Verify(std::span<const LinearExpr> branches,
                                std::span<const Rational> lambda) const {
  return dense::EqualsElementalSum(branches, lambda, combination);
}

std::string ShannonCertificate::ToString(
    int n, const std::vector<std::string>& names) const {
  std::ostringstream os;
  for (const auto& [elemental, weight] : combination) {
    os << "  " << weight << "  *  [" << elemental.ToString(n, names) << "]\n";
  }
  return os.str();
}

ShannonProver::ShannonProver(int n)
    : n_(n),
      elementals_(ElementalInequalities(n)),
      columns_(ElementalColumns(n, elementals_)) {}

namespace {

// The LP of Prove: find y ≥ 0 with Σ_t y_t · elemental_t = E, one equality
// row per nonempty subset (row s − 1 for mask s), one column per elemental.
// The integer form exists when every coefficient of E is an integer that
// fits; the LpProblem form takes any E.
std::optional<lp::IntegerProgram> ProofIntegerProgram(
    int n, const std::vector<ElementalColumn>& columns, const LinearExpr& e) {
  const uint32_t num_sets = (1u << n) - 1;
  std::vector<int64_t> rhs(num_sets, 0);
  for (const auto& [x, c] : e.terms()) {
    if (!lp::IntegerProgram::FromRational(c, &rhs[x.mask() - 1])) {
      return std::nullopt;
    }
  }
  lp::IntegerProgram program;
  for (int64_t b : rhs) program.AddRow(lp::Sense::kEqual, b);
  for (const ElementalColumn& column : columns) {
    program.AddColumn();
    for (int q = 0; q < column.size; ++q) {
      program.AddEntry(static_cast<int>(column.row[q]), column.coeff[q]);
    }
  }
  return program;
}

lp::LpProblem ProofLpProblem(int n,
                             const std::vector<ElementalColumn>& columns,
                             const LinearExpr& e) {
  const uint32_t num_sets = (1u << n) - 1;
  lp::LpProblem problem;
  for (size_t t = 0; t < columns.size(); ++t) problem.AddVariable();
  std::vector<std::vector<Rational>> rows(
      num_sets, std::vector<Rational>(columns.size()));
  for (size_t t = 0; t < columns.size(); ++t) {
    for (int q = 0; q < columns[t].size; ++q) {
      rows[columns[t].row[q]][t] = Rational(columns[t].coeff[q]);
    }
  }
  for (uint32_t s = 1; s <= num_sets; ++s) {
    problem.AddConstraint(std::move(rows[s - 1]), lp::Sense::kEqual,
                          e.Coeff(VarSet(s)));
  }
  return problem;
}

}  // namespace

IIResult ShannonProver::Prove(const LinearExpr& e, lp::Solver* solver) const {
  BAGCQ_CHECK_EQ(e.num_vars(), n_);
  // Dual-cone form (the Theorem F.1 / Appendix F argument, specialized to a
  // single expression): E is valid on Γn iff E lies in the dual cone of Γn,
  // which by Yeung's elemental theorem is exactly
  //     cone{ elemental_t : t }.
  // Feasibility LP:  find y ≥ 0 with  Σ_t y_t · elemental_t = E
  // (one equality row per nonempty subset X ⊆ V).
  //   feasible   → y is the Shannon proof;
  //   infeasible → the Farkas vector f has elemental_t(f) ≤ 0 and E(f) > 0,
  //                so h = -f (grounded) is a polymatroid with E(h) < 0.
  const uint32_t num_sets = (1u << n_) - 1;  // nonempty subsets
  // The LP shape depends only on n, so a session solver warm-starts each
  // proof from the previous one's terminal basis (for a feasibility LP a
  // re-installed feasible basis is immediately optimal; infeasibility hints
  // resume phase I from the previous Farkas basis).
  const std::string key = "shannon/prove/n=" + std::to_string(n_);
  auto solve = [solver, &key](const auto& program) {
    return solver != nullptr ? solver->SolveKeyed(program, key)
                             : lp::Solver().Solve(program);
  };
  const std::optional<lp::IntegerProgram> program =
      ProofIntegerProgram(n_, columns_, e);
  const lp::Solution solution =
      program.has_value() ? solve(*program)
                          : solve(ProofLpProblem(n_, columns_, e));
  IIResult out;
  out.lp_pivots = solution.pivots;

  if (solution.status == lp::SolveStatus::kOptimal) {
    out.valid = true;
    ShannonCertificate cert;
    for (size_t t = 0; t < elementals_.size(); ++t) {
      const Rational& y = solution.values[t];
      BAGCQ_CHECK(y.sign() >= 0);
      if (!y.is_zero()) cert.combination.push_back({elementals_[t], y});
    }
    const Rational one(1);
    BAGCQ_CHECK(cert.Verify({&e, 1}, {&one, 1}))
        << "certificate failed exact verification for " << e.ToString();
    out.certificate = std::move(cert);
    return out;
  }

  BAGCQ_CHECK(solution.status == lp::SolveStatus::kInfeasible);
  SetFunction h(n_);
  for (uint32_t s = 1; s <= num_sets; ++s) {
    h[VarSet(s)] = -solution.farkas[s - 1];
  }
  // Normalize to h(V) = 1 for readability (any positive scaling works).
  const Rational& top = h[VarSet::Full(n_)];
  BAGCQ_CHECK(top.sign() > 0) << "degenerate counterexample";
  h = h * top.Inverse();
  BAGCQ_CHECK(h.IsPolymatroid()) << "LP counterexample is not a polymatroid";
  out.valid = false;
  out.violation = e.Evaluate(h);
  BAGCQ_CHECK(out.violation.sign() < 0);
  out.counterexample = std::move(h);
  return out;
}

}  // namespace bagcq::entropy
