// E8 — Theorem 6.1 / F.1: a max-linear inequality is valid iff some convex
// combination Σ λ_ℓ E_ℓ is a single valid linear inequality. The oracle's
// LP dual produces the λ; this experiment re-verifies the conclusion with
// an independent ShannonProver run on the combination, for a batch of valid
// Max-IIs.
#include <cstdio>

#include <random>

#include "api/engine.h"

using namespace bagcq::entropy;
using bagcq::Engine;
using bagcq::util::Rational;
using bagcq::util::VarSet;

int main() {
  std::printf("E8 / Theorem 6.1: lambda certificates for valid Max-IIs\n");
  Engine engine;
  int failures = 0;
  int verified = 0;

  // Batch: Example 3.8 plus randomly generated valid instances (built as
  // max(E, something) where E is itself valid, so validity is guaranteed).
  std::vector<std::vector<LinearExpr>> instances;
  {
    const int n = 3;
    VarSet x1 = VarSet::Of({0}), x2 = VarSet::Of({1}), x3 = VarSet::Of({2});
    std::vector<LinearExpr> exprs;
    exprs.push_back(LinearExpr::H(n, x1.Union(x2)) +
                    LinearExpr::HCond(n, x2, x1));
    exprs.push_back(LinearExpr::H(n, x2.Union(x3)) +
                    LinearExpr::HCond(n, x3, x2));
    exprs.push_back(LinearExpr::H(n, x1.Union(x3)) +
                    LinearExpr::HCond(n, x1, x3));
    instances.push_back(BranchesForBoundedForm(n, Rational(1), exprs));
  }
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<uint32_t> submask(1, 7);
  for (int t = 0; t < 8; ++t) {
    // max( I(a;b|c) + junk, -junk ) with junk arbitrary: always valid since
    // the branches sum to a Shannon expression (λ = 1/2,1/2 works).
    const int n = 3;
    LinearExpr junk(n);
    junk.Add(VarSet(submask(rng)), Rational(1 + static_cast<int>(rng() % 3)));
    junk.Add(VarSet(submask(rng)), Rational(-2));
    LinearExpr shannon = LinearExpr::MI(n, VarSet::Of({0}), VarSet::Of({1}),
                                        VarSet::Of({2}));
    instances.push_back({shannon + junk, shannon - junk});
  }

  for (size_t i = 0; i < instances.size(); ++i) {
    const auto& branches = instances[i];
    const int n = branches[0].num_vars();
    auto result = engine.CheckMaxInequality(branches, ConeKind::kPolymatroid)
                      .ValueOrDie();
    if (!result.valid) {
      std::printf("  instance %zu unexpectedly invalid FAIL\n", i);
      ++failures;
      continue;
    }
    // Rebuild Σ λ E and prove it independently.
    LinearExpr combined(n);
    Rational total;
    for (size_t l = 0; l < branches.size(); ++l) {
      combined = combined + branches[l] * result.lambda[l];
      total += result.lambda[l];
    }
    bool convex = total == Rational(1);
    auto proof = engine.ProveInequality(combined).ValueOrDie();
    bool ok = convex && proof.valid &&
              proof.certificate->Verify(branches, result.lambda);
    std::printf("  instance %zu: k=%zu, lambda convex: %s, Σλ·E Shannon: %s "
                "%s\n",
                i, branches.size(), convex ? "yes" : "no",
                proof.valid ? "yes" : "no", ok ? "OK" : "FAIL");
    if (ok) {
      ++verified;
    } else {
      ++failures;
    }
  }

  std::printf("%d/%zu certificates independently verified\n", verified,
              instances.size());
  std::printf("%s (%d failures)\n",
              failures == 0 ? "THEOREM 6.1 REPRODUCED" : "MISMATCH", failures);
  return failures == 0 ? 0 : 1;
}
