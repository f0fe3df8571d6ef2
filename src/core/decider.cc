#include "core/decider.h"

#include <sstream>
#include <utility>

#include "cq/homomorphism.h"
#include "cq/transforms.h"
#include "util/check.h"

namespace bagcq::core {

using entropy::ConeKind;
using entropy::MaxIIOracle;
using entropy::MaxIIResult;

const char* VerdictToString(Verdict v) {
  switch (v) {
    case Verdict::kContained:
      return "Contained";
    case Verdict::kNotContained:
      return "NotContained";
    case Verdict::kUnknown:
      return "Unknown";
  }
  return "?";
}

util::Result<Decision> DecideBagContainmentWithContext(
    const cq::ConjunctiveQuery& q1_in, const cq::ConjunctiveQuery& q2_in,
    const DeciderOptions& options, const DeciderContext& context) {
  if (!(q1_in.vocab() == q2_in.vocab())) {
    return util::Status::InvalidArgument("queries must share a vocabulary");
  }
  if (q1_in.head().size() != q2_in.head().size()) {
    return util::Status::InvalidArgument(
        "containment requires equal head arities");
  }
  // Variable-free queries are degenerate constants; the junction-tree and
  // entropy machinery needs at least one variable per side.
  if (q1_in.num_vars() == 0 || q2_in.num_vars() == 0) {
    return util::Status::InvalidArgument(
        "queries must mention at least one variable");
  }
  // Lemma A.1 + duplicate-atom removal (Section 2.2).
  cq::ConjunctiveQuery q1 = cq::RemoveDuplicateAtoms(q1_in);
  cq::ConjunctiveQuery q2 = cq::RemoveDuplicateAtoms(q2_in);
  if (!q1.IsBoolean()) {
    auto pair = cq::MakeBooleanPair(q1, q2);
    q1 = std::move(pair.first);
    q2 = std::move(pair.second);
  }

  Decision decision;
  decision.analysis = AnalyzeQ2(q2);

  // No homomorphism Q2 -> Q1: the canonical database of Q1 refutes
  // containment outright (|hom(Q1, can(Q1))| >= 1 > 0 = |hom(Q2, can(Q1))|).
  std::vector<cq::VarMap> homs = cq::QueryHomomorphisms(q2, q1);
  if (homs.empty()) {
    decision.verdict = Verdict::kNotContained;
    decision.method = "hom(Q2,Q1) empty; canonical database refutes";
    Witness w;
    entropy::Relation identity(q1.num_vars());
    entropy::Relation::Tuple t(q1.num_vars());
    for (int v = 0; v < q1.num_vars(); ++v) t[v] = v;
    identity.AddTuple(std::move(t));
    w.database = InduceDatabase(q1, identity);
    w.relation = std::move(identity);
    w.hom_q1 = cq::CountHomomorphisms(q1, w.database);
    w.hom_q2 = cq::CountHomomorphisms(q2, w.database);
    w.counts_verified = w.hom_q1 > w.hom_q2;
    BAGCQ_CHECK(w.counts_verified);
    w.symbolic_certificate_holds = true;
    decision.witness = std::move(w);
    return decision;
  }

  BAGCQ_ASSIGN_OR_RETURN(ContainmentInequality inequality,
                         BuildContainmentInequality(q1, q2));
  const int n = q1.num_vars();
  // Session state: the reusable LP workspace, and — fetched lazily, since
  // only the Γn (kPolymatroid) route consumes it — the cached elemental
  // system, built once per n and shared across every decision of the batch.
  lp::Solver* solver = context.solver;
  auto gamma_prover = [&context, n]() -> const entropy::ShannonProver* {
    return context.provers != nullptr ? &context.provers->Get(n) : nullptr;
  };
  const bool necessity_applies =
      decision.analysis.decidable() ||
      (decision.analysis.acyclic && !inequality.branches.empty());

  // Theorem 3.6 route. For a *totally disconnected* junction tree the
  // branches are unconditioned, so the modular cone decides (Theorem 3.6(i))
  // and counterexamples are product relations — Theorem 3.4(i). Otherwise
  // the (still cheap) Nn oracle: for simple junction trees it fully decides
  // (Theorem 3.6(ii)); its counterexamples are normal, hence entropic,
  // hence conclusive whenever the necessity theorems apply.
  const bool totally_disconnected =
      inequality.decomposition.IsTotallyDisconnected();
  MaxIIOracle normal_oracle(
      n, totally_disconnected ? ConeKind::kModular : ConeKind::kNormal,
      /*prover=*/nullptr, solver);
  MaxIIResult over_normal = normal_oracle.Check(inequality.branches);
  decision.lp_pivots += over_normal.lp_pivots;

  if (!over_normal.valid) {
    decision.counterexample = std::move(over_normal.counterexample);
    if (necessity_applies) {
      auto witness = BuildWitnessFromNormal(q1, q2, inequality,
                                            over_normal.decomposition,
                                            options.witness);
      if (witness.ok()) {
        decision.verdict = Verdict::kNotContained;
        decision.method =
            totally_disconnected
                ? "Theorem 3.4(i): modular counterexample + product witness"
                : (decision.analysis.decidable()
                       ? "Theorem 3.1: Nn counterexample + Lemma E.1 witness"
                       : "Theorem 4.4 (acyclic Q2): normal counterexample + "
                         "witness");
        decision.witness = std::move(witness).ValueOrDie();
        BAGCQ_CHECK(!options.witness.verify_counts ||
                    decision.witness->counts_verified)
            << "witness failed verification — theory violation";
      } else {
        // The counterexample stands (entropic violation of a necessary
        // condition) even if materialization is too large.
        decision.verdict = Verdict::kNotContained;
        decision.method =
            "normal entropic counterexample (witness too large to "
            "materialize: " +
            witness.status().ToString() + ")";
      }
    } else {
      decision.verdict = Verdict::kUnknown;
      decision.method =
          "Eq. (8) fails even entropically, but Q2 is outside the decidable "
          "classes (sufficiency-only)";
    }
    decision.inequality = std::move(inequality);
    return decision;
  }

  // Nn says valid. With a simple junction tree that settles it
  // (Theorem 3.6(ii)); otherwise soundness needs the full Γn check.
  if (inequality.simple && decision.analysis.decidable()) {
    decision.verdict = Verdict::kContained;
    decision.method =
        totally_disconnected
            ? "Theorem 3.1 + 3.6(i): valid over Mn = Γn = Γ*n (totally "
              "disconnected junction tree)"
            : "Theorem 3.1: valid over Nn = Γn = Γ*n (simple junction tree)";
    decision.validity = std::move(over_normal);
    if (options.want_shannon_certificate) {
      MaxIIResult over_gamma = MaxIIOracle(n, ConeKind::kPolymatroid,
                                           gamma_prover(), solver)
                                   .Check(inequality.branches);
      decision.lp_pivots += over_gamma.lp_pivots;
      BAGCQ_CHECK(over_gamma.valid) << "Theorem 3.6 equivalence violated";
      decision.validity = std::move(over_gamma);
    }
    decision.inequality = std::move(inequality);
    return decision;
  }

  MaxIIResult over_gamma =
      MaxIIOracle(n, ConeKind::kPolymatroid, gamma_prover(), solver)
          .Check(inequality.branches);
  decision.lp_pivots += over_gamma.lp_pivots;
  if (over_gamma.valid) {
    decision.verdict = Verdict::kContained;
    decision.method = "Theorem 4.2: Eq. (8) valid over Gamma_n (sufficient)";
    decision.validity = std::move(over_gamma);
  } else {
    decision.verdict = Verdict::kUnknown;
    decision.counterexample = std::move(over_gamma.counterexample);
    decision.method =
        "valid over Nn but fails over Gamma_n; the entropic status of "
        "Eq. (8) is open here (non-simple branches)";
  }
  decision.inequality = std::move(inequality);
  return decision;
}

util::Result<Decision> DecideBagBagContainmentWithContext(
    const cq::ConjunctiveQuery& q1, const cq::ConjunctiveQuery& q2,
    const DeciderOptions& options, const DeciderContext& context) {
  if (!(q1.vocab() == q2.vocab())) {
    return util::Status::InvalidArgument("queries must share a vocabulary");
  }
  // The transform rebuilds the vocabulary with +1 arities; both sides must
  // use the *same* rebuilt vocabulary object for the decider.
  cq::ConjunctiveQuery t1 = cq::BagBagToBagSet(q1);
  cq::ConjunctiveQuery t2 = cq::BagBagToBagSet(q2);
  return DecideBagContainmentWithContext(t1, t2, options, context);
}

std::string Decision::ToString() const {
  std::ostringstream os;
  os << VerdictToString(verdict) << " [" << method << "]";
  os << " (Q2: acyclic=" << (analysis.acyclic ? "yes" : "no")
     << ", chordal=" << (analysis.chordal ? "yes" : "no")
     << ", simple-JT=" << (analysis.simple_junction_tree ? "yes" : "no") << ")";
  return os.str();
}

}  // namespace bagcq::core
