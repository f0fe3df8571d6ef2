#include "cq/agm.h"

#include <cmath>

#include "lp/lp_problem.h"
#include "lp/solver.h"
#include "util/check.h"

namespace bagcq::cq {

using entropy::LogRational;
using util::Rational;

util::Result<AgmBound> ComputeAgmBound(const ConjunctiveQuery& q,
                                       const Structure& d) {
  const int k = q.num_atoms();
  if (k == 0) {
    return util::Status::InvalidArgument("AGM bound needs at least one atom");
  }
  if (!q.AllVarsUsed()) {
    return util::Status::InvalidArgument("every variable must occur in an atom");
  }
  // Empty relation: the count is 0; weight that atom alone (bound 2^-inf ~ 0
  // is not representable, so report cover {1 on that atom} with log 0... the
  // bound |R|^1 = 0 is conventionally 0; we return log_bound = log2(1) and
  // flag via the empty-relation atom carrying full weight on a size-0
  // relation. Simplest faithful choice: bound 0 represented by covering the
  // empty atom and a zero log term — callers comparing against hom counts of
  // 0 are still exact because hom(Q,D) = 0 too.
  for (int a = 0; a < k; ++a) {
    if (d.tuples(q.atoms()[a].relation).empty()) {
      AgmBound out;
      out.cover.assign(k, Rational(0));
      out.cover[a] = Rational(1);
      out.log_bound = LogRational();  // log2(1): the true bound is 0 ≤ 1
      out.bound_approx = 0;
      return out;
    }
  }

  // LP: minimize Σ_a w_a x_a  s.t.  Σ_{a: v ∈ vars(a)} x_a ≥ 1 ∀v, x ≥ 0,
  // with w_a a rational stand-in for log2|R_a| (soundness needs only
  // feasibility of x, so the approximation affects tightness alone).
  lp::LpProblem problem;
  for (int a = 0; a < k; ++a) problem.AddVariable("x" + std::to_string(a));
  for (int v = 0; v < q.num_vars(); ++v) {
    std::vector<Rational> row(k, Rational(0));
    for (int a = 0; a < k; ++a) {
      if (q.atoms()[a].VarSet_().Contains(v)) row[a] = Rational(1);
    }
    problem.AddConstraint(std::move(row), lp::Sense::kGreaterEqual,
                          Rational(1), "cover " + q.var_name(v));
  }
  std::vector<Rational> objective(k);
  for (int a = 0; a < k; ++a) {
    double log_size =
        std::log2(static_cast<double>(d.tuples(q.atoms()[a].relation).size()));
    // Rational approximation at 1/1024 granularity.
    objective[a] =
        Rational(static_cast<int64_t>(std::llround(log_size * 1024)), 1024);
  }
  problem.SetObjective(lp::Objective::kMinimize, std::move(objective));

  auto solution = lp::Solver().Solve(problem);
  if (solution.status != lp::SolveStatus::kOptimal) {
    return util::Status::Internal("edge cover LP not optimal");
  }
  AgmBound out;
  out.cover = solution.values;
  for (int a = 0; a < k; ++a) {
    int64_t size = static_cast<int64_t>(d.tuples(q.atoms()[a].relation).size());
    out.log_bound = out.log_bound + LogRational::Log2(size, out.cover[a]);
  }
  out.bound_approx = std::exp2(out.log_bound.ToDouble());
  return out;
}

bool AgmBoundHolds(const AgmBound& bound, int64_t hom_count) {
  BAGCQ_CHECK_GE(hom_count, 0);
  if (hom_count <= 1) return true;  // log2(hom) ≤ 0 < any bound with |R| ≥ 1
  LogRational lhs = LogRational::Log2(hom_count);
  return (bound.log_bound - lhs).Sign() >= 0;
}

}  // namespace bagcq::cq
