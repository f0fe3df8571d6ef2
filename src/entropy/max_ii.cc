#include "entropy/max_ii.h"

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "entropy/dense_check.h"
#include "entropy/functions.h"
#include "lp/lp_problem.h"
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

namespace {

// The generators' index sets W: every proper subset for Nn (the step
// functions h_W), the co-singletons V − {i} for Mn (h_{V−{i}}(X) = [i ∈ X],
// the unit masses). The LPs use W itself; a generator is never
// materialized as a dense vector there.
std::vector<VarSet> GeneratorSets(int n, ConeKind kind) {
  std::vector<VarSet> out;
  const VarSet full = VarSet::Full(n);
  if (kind == ConeKind::kNormal) {
    ForEachSubset(full, [&](VarSet w) {
      if (w != full) out.push_back(w);
    });
  } else {
    for (int i = 0; i < n; ++i) out.push_back(full.Without(i));
  }
  return out;
}

}  // namespace

std::vector<SetFunction> ConeGenerators(int n, ConeKind kind) {
  BAGCQ_CHECK(kind != ConeKind::kPolymatroid)
      << "Gamma_n is constraint-generated, not generator-form";
  std::vector<SetFunction> out;
  for (VarSet w : GeneratorSets(n, kind)) out.push_back(StepFunction(n, w));
  return out;
}

MaxIIOracle::MaxIIOracle(int n, ConeKind kind) : n_(n), kind_(kind) {}

MaxIIOracle::MaxIIOracle(int n, ConeKind kind, const ShannonProver* prover,
                         lp::Solver* solver)
    : n_(n), kind_(kind), prover_(prover), solver_(solver) {
  BAGCQ_CHECK(prover == nullptr || prover->num_vars() == n)
      << "cached prover variable count mismatch";
}

template <typename Program>
lp::Solution MaxIIOracle::RunSimplex(const Program& program,
                                     const std::string& warm_key) const {
  // Keys encode (form, cone, n, branch count), so equal keys mean equal LP
  // shape and the session solver can chain terminal bases across branch LPs.
  if (solver_ != nullptr) return solver_->SolveKeyed(program, warm_key);
  return lp::Solver().Solve(program);
}

std::optional<lp::IntegerProgram> GammaIntegerProgram(
    int n, const std::vector<ElementalColumn>& columns,
    const std::vector<LinearExpr>& branches) {
  const uint32_t num_sets = (1u << n) - 1;
  lp::IntegerProgram program;
  for (uint32_t s = 0; s < num_sets; ++s) program.AddRow(lp::Sense::kEqual, 0);
  const int convexity = program.AddRow(lp::Sense::kEqual, 1);
  for (const LinearExpr& e : branches) {
    program.AddColumn();
    for (const auto& [x, c] : e.terms()) {
      int64_t v = 0;
      if (!lp::IntegerProgram::FromRational(c, &v)) return std::nullopt;
      program.AddEntry(static_cast<int>(x.mask() - 1), v);
    }
    program.AddEntry(convexity, 1);
  }
  for (const ElementalColumn& column : columns) {
    program.AddColumn();
    for (int q = 0; q < column.size; ++q) {
      program.AddEntry(static_cast<int>(column.row[q]), -column.coeff[q]);
    }
  }
  return program;
}

lp::LpProblem GammaLpProblem(int n,
                             const std::vector<ElementalColumn>& columns,
                             const std::vector<LinearExpr>& branches) {
  const size_t k = branches.size();
  const size_t m = columns.size();
  const uint32_t num_sets = (1u << n) - 1;
  lp::LpProblem problem;
  for (size_t j = 0; j < k + m; ++j) problem.AddVariable();
  std::vector<std::vector<Rational>> rows(num_sets,
                                          std::vector<Rational>(k + m));
  for (size_t l = 0; l < k; ++l) {
    for (const auto& [x, c] : branches[l].terms()) rows[x.mask() - 1][l] = c;
  }
  for (size_t t = 0; t < m; ++t) {
    for (int q = 0; q < columns[t].size; ++q) {
      rows[columns[t].row[q]][k + t] = Rational(-columns[t].coeff[q]);
    }
  }
  for (std::vector<Rational>& row : rows) {
    problem.AddConstraint(std::move(row), lp::Sense::kEqual, Rational(0));
  }
  problem.AddConstraint(std::vector<Rational>(k, Rational(1)),
                        lp::Sense::kEqual, Rational(1), "convexity");
  return problem;
}

std::optional<lp::IntegerProgram> GeneratorIntegerProgram(
    int n, ConeKind kind, const std::vector<LinearExpr>& branches) {
  // Each branch's terms as int64; E_ℓ(h_W) = Σ_{X ⊄ W} c_X is then summed
  // with checked adds.
  std::vector<std::vector<std::pair<VarSet, int64_t>>> terms(branches.size());
  for (size_t l = 0; l < branches.size(); ++l) {
    for (const auto& [x, c] : branches[l].terms()) {
      int64_t v = 0;
      if (!lp::IntegerProgram::FromRational(c, &v)) return std::nullopt;
      terms[l].push_back({x, v});
    }
  }
  lp::IntegerProgram program;
  for (size_t l = 0; l < branches.size(); ++l) {
    program.AddRow(lp::Sense::kLessEqual, -1);
  }
  for (VarSet w : GeneratorSets(n, kind)) {
    program.AddColumn(/*cost=*/1);
    for (size_t l = 0; l < terms.size(); ++l) {
      int64_t value = 0;
      for (const auto& [x, c] : terms[l]) {
        if (!x.IsSubsetOf(w) && __builtin_add_overflow(value, c, &value)) {
          return std::nullopt;
        }
      }
      if (!lp::IntegerProgram::Fits(value)) return std::nullopt;
      program.AddEntry(static_cast<int>(l), value);
    }
  }
  return program;
}

lp::LpProblem GeneratorLpProblem(int n, ConeKind kind,
                                 const std::vector<LinearExpr>& branches) {
  const std::vector<VarSet> generator_sets = GeneratorSets(n, kind);
  const size_t num_gens = generator_sets.size();
  lp::LpProblem problem;
  for (size_t w = 0; w < num_gens; ++w) problem.AddVariable();
  for (const LinearExpr& e : branches) {
    std::vector<Rational> row(num_gens);
    for (size_t w = 0; w < num_gens; ++w) {
      row[w] = e.EvaluateOnStep(generator_sets[w]);
    }
    problem.AddConstraint(std::move(row), lp::Sense::kLessEqual, Rational(-1));
  }
  problem.SetObjective(std::vector<Rational>(num_gens, Rational(1)));
  return problem;
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
  // The session's cached elemental system, or a per-call build
  // (standalone use).
  std::optional<ShannonProver> local;
  if (prover_ == nullptr) local.emplace(n_);
  const ShannonProver& prover = prover_ != nullptr ? *prover_ : *local;
  const std::vector<ElementalInequality>& elementals = prover.elementals();
  const std::vector<ElementalColumn>& columns = prover.columns();
  const size_t k = branches.size();
  const size_t m = elementals.size();
  const uint32_t num_sets = (1u << n_) - 1;

  const std::string key =
      "maxii/gamma/n=" + std::to_string(n_) + "/k=" + std::to_string(k);
  const std::optional<lp::IntegerProgram> program =
      GammaIntegerProgram(n_, columns, branches);
  const lp::Solution solution =
      program.has_value()
          ? RunSimplex(*program, key)
          : RunSimplex(GammaLpProblem(n_, columns, branches), key);
  MaxIIResult out;
  out.lp_pivots = solution.pivots;

  if (solution.status == lp::SolveStatus::kOptimal) {
    out.valid = true;
    out.lambda.assign(solution.values.begin(), solution.values.begin() + k);
    // The y block certifies Σ λ E = Σ y elemental exactly.
    ShannonCertificate cert;
    for (size_t t = 0; t < m; ++t) {
      const Rational& y = solution.values[k + t];
      if (!y.is_zero()) cert.combination.push_back({elementals[t], y});
    }
    BAGCQ_CHECK(cert.Verify(branches, out.lambda))
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
  const size_t k = branches.size();

  const std::string key =
      std::string("maxii/gen/") +
      (kind_ == ConeKind::kNormal ? "normal" : "modular") +
      "/n=" + std::to_string(n_) + "/k=" + std::to_string(k);
  const std::optional<lp::IntegerProgram> program =
      GeneratorIntegerProgram(n_, kind_, branches);
  const lp::Solution solution =
      program.has_value()
          ? RunSimplex(*program, key)
          : RunSimplex(GeneratorLpProblem(n_, kind_, branches), key);
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
    BAGCQ_CHECK(dense::NonnegativeOnSteps(branches, out.lambda,
                                          kind_ == ConeKind::kModular))
        << "lambda combination negative on a generator";
    return out;
  }

  BAGCQ_CHECK(solution.status == lp::SolveStatus::kOptimal)
      << "violation LP cannot be unbounded below (objective is Σ c_W ≥ 0)";
  // Σ c_W h_W is in the cone by construction: every W is a generator and
  // every c_W is nonnegative.
  const std::vector<VarSet> generator_sets = GeneratorSets(n_, kind_);
  for (size_t w = 0; w < generator_sets.size(); ++w) {
    const Rational& c = solution.values[w];
    BAGCQ_CHECK(c.sign() >= 0);
    if (!c.is_zero()) out.decomposition.emplace(generator_sets[w], c);
  }
  out.valid = false;
  out.counterexample = NormalFunction(n_, out.decomposition);
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
