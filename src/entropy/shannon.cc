#include "entropy/shannon.h"

#include <sstream>

#include "lp/lp_problem.h"
#include "lp/solver.h"
#include "util/check.h"

namespace bagcq::entropy {

bool ShannonCertificate::Verify(const LinearExpr& target) const {
  LinearExpr sum(target.num_vars());
  for (const auto& [elemental, weight] : combination) {
    if (weight.sign() < 0) return false;
    sum = sum + elemental.ToExpr(target.num_vars()) * weight;
  }
  return sum == target;
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
    : n_(n), elementals_(ElementalInequalities(n)) {
  // Dense subset-row × elemental-column skeleton, built once per n. Eager
  // (not lazy) because provers are shared read-only across batch workers.
  const uint32_t num_sets = (1u << n_) - 1;
  skeleton_.assign(num_sets, std::vector<Rational>(elementals_.size()));
  for (size_t t = 0; t < elementals_.size(); ++t) {
    const LinearExpr expr = elementals_[t].ToExpr(n_);
    for (const auto& [x, c] : expr.terms()) {
      skeleton_[x.mask() - 1][t] = c;
    }
  }
}

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
  lp::LpProblem problem;
  for (size_t t = 0; t < elementals_.size(); ++t) {
    problem.AddVariable("y" + std::to_string(t));
  }
  const uint32_t num_sets = (1u << n_) - 1;  // nonempty subsets
  // Rows indexed by subset mask; columns by elemental — copied straight out
  // of the precomputed skeleton.
  for (uint32_t s = 1; s <= num_sets; ++s) {
    problem.AddConstraint(std::vector<Rational>(skeleton_[s - 1]),
                          lp::Sense::kEqual, e.Coeff(VarSet(s)));
  }
  problem.SetObjective(lp::Objective::kMinimize, {});

  // The LP shape depends only on n, so a session solver warm-starts each
  // proof from the previous one's terminal basis (for a feasibility LP a
  // re-installed feasible basis is immediately optimal; infeasibility hints
  // resume phase I from the previous Farkas basis).
  auto solution =
      solver != nullptr
          ? solver->SolveKeyed(problem,
                               "shannon/prove/n=" + std::to_string(n_))
          : lp::Solver().Solve(problem);
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
    BAGCQ_CHECK(cert.Verify(e))
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
