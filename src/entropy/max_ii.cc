#include "entropy/max_ii.h"

#include <string>

#include "entropy/functions.h"
#include "entropy/mobius.h"
#include "lp/lp_problem.h"
#include "lp/simplex.h"
#include "util/check.h"

namespace bagcq::entropy {

const char* ConeKindToString(ConeKind kind) {
  switch (kind) {
    case ConeKind::kPolymatroid:
      return "Gamma_n (polymatroids)";
    case ConeKind::kNormal:
      return "N_n (normal functions)";
    case ConeKind::kModular:
      return "M_n (modular functions)";
  }
  return "?";
}

std::vector<SetFunction> ConeGenerators(int n, ConeKind kind) {
  std::vector<SetFunction> out;
  VarSet full = VarSet::Full(n);
  switch (kind) {
    case ConeKind::kPolymatroid:
      BAGCQ_CHECK(false) << "Gamma_n is constraint-generated, not generator-form";
      break;
    case ConeKind::kNormal:
      // All step functions h_W for W a proper subset of V.
      ForEachSubset(full, [&](VarSet w) {
        if (w != full) out.push_back(StepFunction(n, w));
      });
      break;
    case ConeKind::kModular:
      // h_{V - {i}}(X) = [i ∈ X]: the unit masses.
      for (int i = 0; i < n; ++i) {
        out.push_back(StepFunction(n, full.Without(i)));
      }
      break;
  }
  return out;
}

MaxIIOracle::MaxIIOracle(int n, ConeKind kind) : n_(n), kind_(kind) {}

MaxIIOracle::MaxIIOracle(int n, ConeKind kind, const ShannonProver* prover,
                         lp::Solver* solver)
    : n_(n), kind_(kind), prover_(prover), solver_(solver) {
  BAGCQ_CHECK(prover == nullptr || prover->num_vars() == n)
      << "cached prover variable count mismatch";
}

lp::Solution<Rational> MaxIIOracle::RunSimplex(
    const lp::LpProblem& problem, const std::string& warm_key) const {
  // Keys encode (form, cone, n, branch count), so equal keys mean equal LP
  // shape and the session solver can chain terminal bases across branch LPs.
  if (solver_ != nullptr) return solver_->SolveKeyed(problem, warm_key);
  return lp::Solver().Solve(problem);
}

MaxIIResult MaxIIOracle::Check(const std::vector<LinearExpr>& branches) const {
  BAGCQ_CHECK(!branches.empty()) << "max over the empty set is -infinity";
  for (const LinearExpr& e : branches) BAGCQ_CHECK_EQ(e.num_vars(), n_);
  MaxIIResult result = kind_ == ConeKind::kPolymatroid
                           ? CheckConstraintForm(branches)
                           : CheckGeneratorForm(branches);
  // Post-verification common to both paths.
  if (result.valid) {
    BAGCQ_CHECK_EQ(result.lambda.size(), branches.size());
    Rational total;
    for (const Rational& l : result.lambda) {
      BAGCQ_CHECK(l.sign() >= 0);
      total += l;
    }
    BAGCQ_CHECK_EQ(total, Rational(1));
  } else {
    BAGCQ_CHECK(result.counterexample.has_value());
    const SetFunction& h = *result.counterexample;
    Rational max = branches[0].Evaluate(h);
    for (const LinearExpr& e : branches) {
      Rational v = e.Evaluate(h);
      if (v > max) max = v;
    }
    BAGCQ_CHECK(max.sign() < 0) << "counterexample does not violate";
    result.max_at_counterexample = max;
  }
  return result;
}

// Γn path: feasibility of
//   Σ_ℓ λ_ℓ E_ℓ(X) - Σ_t y_t elemental_t(X) = 0   for every nonempty X,
//   Σ_ℓ λ_ℓ = 1,   λ, y ≥ 0.
// Feasible → valid with proof; the Farkas vector of the infeasible case is a
// polymatroid h with max_ℓ E_ℓ(h) ≤ -g < 0.
MaxIIResult MaxIIOracle::CheckConstraintForm(
    const std::vector<LinearExpr>& branches) const {
  // Cached elemental system when a session prover is attached; otherwise a
  // per-call build (standalone use).
  std::vector<ElementalInequality> local_elementals;
  if (prover_ == nullptr) local_elementals = ElementalInequalities(n_);
  const std::vector<ElementalInequality>& elementals =
      prover_ != nullptr ? prover_->elementals() : local_elementals;
  const size_t k = branches.size();
  const size_t m = elementals.size();
  const uint32_t num_sets = (1u << n_) - 1;

  lp::LpProblem problem;
  for (size_t l = 0; l < k; ++l) problem.AddVariable("lambda" + std::to_string(l));
  for (size_t t = 0; t < m; ++t) problem.AddVariable("y" + std::to_string(t));

  std::vector<std::vector<Rational>> rows(num_sets);
  for (uint32_t s = 0; s < num_sets; ++s) {
    rows[s].assign(k + m, Rational(0));
  }
  for (size_t l = 0; l < k; ++l) {
    for (const auto& [x, c] : branches[l].terms()) rows[x.mask() - 1][l] = c;
  }
  if (prover_ != nullptr) {
    // The negated elemental block comes straight from the prover's
    // precomputed skeleton — the shared spine of every Γn LP this decision
    // (and session) builds.
    const auto& skeleton = prover_->constraint_skeleton();
    for (uint32_t s = 0; s < num_sets; ++s) {
      for (size_t t = 0; t < m; ++t) {
        if (!skeleton[s][t].is_zero()) rows[s][k + t] = -skeleton[s][t];
      }
    }
  } else {
    for (size_t t = 0; t < m; ++t) {
      const LinearExpr expr = elementals[t].ToExpr(n_);
      for (const auto& [x, c] : expr.terms()) {
        rows[x.mask() - 1][k + t] = -c;
      }
    }
  }
  for (uint32_t s = 0; s < num_sets; ++s) {
    problem.AddConstraint(std::move(rows[s]), lp::Sense::kEqual, Rational(0));
  }
  std::vector<Rational> convex(k, Rational(1));
  problem.AddConstraint(std::move(convex), lp::Sense::kEqual, Rational(1),
                        "convexity");
  problem.SetObjective(lp::Objective::kMinimize, {});

  auto solution = RunSimplex(problem, "maxii/gamma/n=" + std::to_string(n_) +
                                          "/k=" + std::to_string(k));
  MaxIIResult out;
  out.lp_pivots = solution.pivots;

  if (solution.status == lp::SolveStatus::kOptimal) {
    out.valid = true;
    out.lambda.assign(solution.values.begin(), solution.values.begin() + k);
    // The y block certifies Σ λ E = Σ y elemental exactly.
    LinearExpr combined(n_);
    for (size_t l = 0; l < k; ++l) combined = combined + branches[l] * out.lambda[l];
    ShannonCertificate cert;
    for (size_t t = 0; t < m; ++t) {
      const Rational& y = solution.values[k + t];
      if (!y.is_zero()) cert.combination.push_back({elementals[t], y});
    }
    BAGCQ_CHECK(cert.Verify(combined))
        << "Max-II certificate failed exact verification";
    out.certificate = std::move(cert);
    return out;
  }

  BAGCQ_CHECK(solution.status == lp::SolveStatus::kInfeasible);
  SetFunction h(n_);
  for (uint32_t s = 1; s <= num_sets; ++s) {
    h[VarSet(s)] = solution.farkas[s - 1];
  }
  const Rational& top = h[VarSet::Full(n_)];
  BAGCQ_CHECK(top.sign() > 0) << "degenerate Max-II counterexample";
  h = h * top.Inverse();
  BAGCQ_CHECK(h.IsPolymatroid()) << "counterexample is not a polymatroid";
  out.valid = false;
  out.counterexample = std::move(h);
  return out;
}

// Generator path (Nn, Mn): phrase everything as the *violation* LP, which
// has only k rows (one per branch) and one column per generator:
//
//   minimize Σ_W c_W   s.t.   Σ_W c_W · E_ℓ(g_W) ≤ −1  ∀ℓ,   c ≥ 0.
//
//   optimal    → h = Σ c_W g_W is a (size-minimal, which keeps witness
//                databases small) member of the cone violating every branch;
//   infeasible → the max-inequality is valid, and the Farkas multipliers
//                y ≤ 0 normalize to the convex λ of Theorem 6.1:
//                Σ_ℓ λ_ℓ E_ℓ(g_W) ≥ 0 for every generator.
MaxIIResult MaxIIOracle::CheckGeneratorForm(
    const std::vector<LinearExpr>& branches) const {
  // Generator index sets W, never materialized as dense vectors:
  // E_ℓ(h_W) comes from LinearExpr::EvaluateOnStep in O(#terms).
  std::vector<VarSet> generator_sets;
  VarSet full = VarSet::Full(n_);
  if (kind_ == ConeKind::kNormal) {
    ForEachSubset(full, [&](VarSet w) {
      if (w != full) generator_sets.push_back(w);
    });
  } else {
    for (int i = 0; i < n_; ++i) generator_sets.push_back(full.Without(i));
  }
  const size_t k = branches.size();
  const size_t num_gens = generator_sets.size();

  lp::LpProblem problem;
  for (size_t w = 0; w < num_gens; ++w) {
    problem.AddVariable("c" + std::to_string(w));
  }
  for (size_t l = 0; l < k; ++l) {
    std::vector<Rational> row(num_gens);
    for (size_t w = 0; w < num_gens; ++w) {
      row[w] = branches[l].EvaluateOnStep(generator_sets[w]);
    }
    problem.AddConstraint(std::move(row), lp::Sense::kLessEqual, Rational(-1));
  }
  problem.SetObjective(lp::Objective::kMinimize,
                       std::vector<Rational>(num_gens, Rational(1)));

  auto solution = RunSimplex(
      problem, std::string("maxii/gen/") +
                   (kind_ == ConeKind::kNormal ? "normal" : "modular") +
                   "/n=" + std::to_string(n_) + "/k=" + std::to_string(k));
  MaxIIResult out;
  out.lp_pivots = solution.pivots;

  if (solution.status == lp::SolveStatus::kInfeasible) {
    out.valid = true;
    Rational total;
    for (const Rational& y : solution.farkas) {
      BAGCQ_CHECK(y.sign() <= 0) << "Farkas sign on a <= row";
      total -= y;
    }
    BAGCQ_CHECK(total.sign() > 0);
    out.lambda.reserve(k);
    for (const Rational& y : solution.farkas) out.lambda.push_back(-y / total);
    // Exact λ verification: the combination is nonnegative on every
    // generator, hence on the whole cone.
    LinearExpr combined(n_);
    for (size_t l = 0; l < k; ++l) {
      combined = combined + branches[l] * out.lambda[l];
    }
    for (VarSet w : generator_sets) {
      BAGCQ_CHECK(combined.EvaluateOnStep(w).sign() >= 0)
          << "lambda combination negative on a generator";
    }
    return out;
  }

  BAGCQ_CHECK(solution.status == lp::SolveStatus::kOptimal)
      << "violation LP cannot be unbounded below (objective is Σ c_W ≥ 0)";
  SetFunction h(n_);
  for (size_t w = 0; w < num_gens; ++w) {
    const Rational& f = solution.values[w];
    BAGCQ_CHECK(f.sign() >= 0);
    if (!f.is_zero()) h = h + StepFunction(n_, generator_sets[w]) * f;
  }
  if (kind_ == ConeKind::kNormal) {
    BAGCQ_CHECK(IsNormal(h)) << "counterexample is not normal";
  } else {
    BAGCQ_CHECK(h.IsModular()) << "counterexample is not modular";
  }
  out.valid = false;
  out.counterexample = std::move(h);
  return out;
}

std::vector<LinearExpr> BranchesForBoundedForm(
    int n, const Rational& q, const std::vector<LinearExpr>& exprs) {
  std::vector<LinearExpr> out;
  out.reserve(exprs.size());
  LinearExpr qv = LinearExpr::H(n, VarSet::Full(n)) * q;
  for (const LinearExpr& e : exprs) out.push_back(e - qv);
  return out;
}

}  // namespace bagcq::entropy
