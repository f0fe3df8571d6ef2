#include "core/witness.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "cq/homomorphism.h"
#include "entropy/mobius.h"
#include "util/bigint.h"
#include "util/check.h"

namespace bagcq::core {

using entropy::Relation;
using entropy::SetFunction;
using util::BigInt;
using util::Rational;
using util::VarSet;

cq::Structure InduceDatabase(const cq::ConjunctiveQuery& q1, const Relation& p,
                             bool annotate) {
  BAGCQ_CHECK_EQ(p.num_vars(), q1.num_vars());
  // Annotation stride: larger than any raw value in P.
  int64_t stride = 1;
  for (const Relation::Tuple& t : p.tuples()) {
    for (int v : t) stride = std::max<int64_t>(stride, v + 1);
  }
  // Each relation's distinct rows from all of its atoms, kept flat: a row
  // is appended, then dropped again if the hash set already holds it. Only
  // distinct rows become tuples, and they go in with one sort-and-merge.
  cq::Structure d(q1.vocab());
  for (int r = 0; r < q1.vocab().size(); ++r) {
    const size_t arity = static_cast<size_t>(q1.vocab().arity(r));
    std::vector<int> flat;
    auto row = [&](size_t i) { return flat.begin() + i * arity; };
    auto hash = [&](size_t i) {
      uint64_t h = 0;
      for (auto it = row(i); it != row(i) + arity; ++it) {
        h = (h ^ static_cast<uint32_t>(*it)) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 32;
      }
      return static_cast<size_t>(h);
    };
    auto equal = [&](size_t a, size_t b) {
      return std::equal(row(a), row(a) + arity, row(b));
    };
    std::unordered_set<size_t, decltype(hash), decltype(equal)> seen(
        0, hash, equal);
    for (const cq::Atom& atom : q1.atoms()) {
      if (atom.relation != r) continue;
      for (const Relation::Tuple& t : p.tuples()) {
        for (int var : atom.vars) {
          int64_t value = annotate
                              ? static_cast<int64_t>(var) * stride + t[var]
                              : t[var];
          BAGCQ_CHECK(value <= INT32_MAX) << "annotated value overflow";
          flat.push_back(static_cast<int>(value));
        }
        if (!seen.insert(seen.size()).second) flat.resize(flat.size() - arity);
      }
    }
    std::vector<cq::Structure::Tuple> distinct;
    distinct.reserve(seen.size());
    for (size_t i = 0; i < seen.size(); ++i) {
      distinct.emplace_back(row(i), row(i) + arity);
    }
    d.AddTuples(r, std::move(distinct));
  }
  return d;
}

util::Result<Witness> BuildWitnessFromNormal(
    const cq::ConjunctiveQuery& q1, const cq::ConjunctiveQuery& q2,
    const ContainmentInequality& inequality,
    const std::map<VarSet, Rational>& coeffs,
    const WitnessOptions& options) {
  const int n = q1.num_vars();
  const VarSet full = VarSet::Full(n);
  // h(V) = Σ_W c_W, since every step function is 1 on V. Scale factor k
  // (Lemma 4.8): k·c_W all integers and k·gap > log2 #homs.
  Rational hv;
  BigInt k(1);
  for (const auto& [w, c] : coeffs) {
    BAGCQ_CHECK(w.IsSubsetOf(full) && w != full && c.sign() > 0)
        << "witness construction requires c_W > 0 on proper subsets W";
    hv += c;
    k = BigInt::Lcm(k, c.den());
  }

  // Branch values E_φ(h) - h(V) = Σ_W c_W·(E_φ - h(V))(h_W), all negative;
  // the violation gap is h(V) - max_φ E_φ(h) > 0.
  std::vector<Rational> values;
  for (const entropy::LinearExpr& branch : inequality.branches) {
    Rational& value = values.emplace_back();
    for (const auto& [w, c] : coeffs) value += c * branch.EvaluateOnStep(w);
    BAGCQ_CHECK(value.sign() < 0) << "normal function does not violate Eq. (8)";
  }
  BAGCQ_CHECK(!values.empty());
  const Rational gap = -*std::max_element(values.begin(), values.end());

  // BitLength(m) > log2(m) for every m ≥ 1, so k·gap ≥ hom_bits gives the
  // strict Lemma 4.8 gap ∆ > log2|hom(Q2,Q1)|.
  int64_t hom_bits =
      static_cast<int64_t>(BigInt(static_cast<int64_t>(inequality.homs.size()))
                               .BitLength());
  Rational scaled_gap = gap * Rational(k);
  Rational needed = Rational(hom_bits) / scaled_gap;
  BigInt multiplier = needed.Ceil();
  if (multiplier < BigInt(1)) multiplier = BigInt(1);
  k = k * multiplier;

  // Factor levels 2^{k·c_W}; guard total size 2^{k·h(V)}.
  const Rational k_rat = Rational(k);
  Rational scaled_total = hv * k_rat;
  BAGCQ_CHECK(scaled_total.is_integer());
  if (scaled_total > Rational(62) ||
      BigInt::TwoToThe(static_cast<uint64_t>(scaled_total.num().ToInt64())) >
          BigInt(options.max_tuples)) {
    return util::Status::ResourceExhausted(
        "witness relation would have 2^" + scaled_total.ToString() +
        " tuples (limit " + std::to_string(options.max_tuples) + ")");
  }

  Witness out;
  out.lhs_log2 = scaled_total.num().ToInt64();
  Relation p = Relation::StepRelation(n, VarSet(), 1);  // the unit of ⊗
  for (const auto& [w, c] : coeffs) {
    Rational exponent = c * k_rat;
    BAGCQ_CHECK(exponent.is_integer());
    int64_t levels_log2 = exponent.num().ToInt64();
    int64_t levels = int64_t{1} << levels_log2;
    BAGCQ_CHECK(levels <= INT32_MAX)
        << "factor level count exceeds the relation value range";
    out.factor_levels[w] = levels;
    p = p.DomainProduct(
        Relation::StepRelation(n, w, static_cast<int>(levels)));
  }
  BAGCQ_CHECK_EQ(p.size(), int64_t{1} << out.lhs_log2);

  // Symbolic certificate: 2^{k·h(V)} > Σ_φ 2^{k·E_φ(h)}. Branch values are
  // E_φ(h) - h(V); scaled by k they are negative integers.
  BigInt rhs(0);
  for (const Rational& value : values) {
    Rational exponent = (value + hv) * k_rat;  // k·E_φ(h)
    BAGCQ_CHECK(exponent.is_integer());
    BAGCQ_CHECK(exponent.sign() >= 0) << "ET of a polymatroid is nonnegative";
    rhs += BigInt::TwoToThe(static_cast<uint64_t>(exponent.num().ToInt64()));
  }
  out.symbolic_certificate_holds = BigInt::TwoToThe(out.lhs_log2) > rhs;
  BAGCQ_CHECK(out.symbolic_certificate_holds)
      << "Lemma 4.8 scaling failed to certify the witness";

  out.database = InduceDatabase(q1, p);
  out.relation = std::move(p);

  if (options.verify_counts) {
    out.hom_q1 = cq::CountHomomorphisms(q1, out.database);
    out.hom_q2 = cq::CountHomomorphisms(q2, out.database);
    out.counts_verified = out.hom_q1 > out.hom_q2;
    BAGCQ_CHECK(out.hom_q1 >= out.relation.size())
        << "P must embed into hom(Q1, D) (Fact 3.2)";
  }
  return out;
}

util::Result<Witness> BuildWitnessFromNormal(
    const cq::ConjunctiveQuery& q1, const cq::ConjunctiveQuery& q2,
    const ContainmentInequality& inequality, const SetFunction& normal_h,
    const WitnessOptions& options) {
  auto decomposition = entropy::NormalDecomposition(normal_h);
  BAGCQ_CHECK(decomposition.has_value()) << "normal_h must be normal";
  return BuildWitnessFromNormal(q1, q2, inequality, *decomposition, options);
}

std::string Witness::ToString(const cq::ConjunctiveQuery& q1) const {
  std::ostringstream os;
  os << "witness relation P over vars(Q1) with |P| = " << relation.size()
     << " = 2^" << lhs_log2 << "\n";
  os << "step factors:";
  for (const auto& [w, levels] : factor_levels) {
    os << "  h_" << w.ToString(q1.var_names()) << " x" << levels;
  }
  os << "\nsymbolic certificate: "
     << (symbolic_certificate_holds ? "holds" : "FAILED");
  if (counts_verified || hom_q1 >= 0) {
    os << "\n|hom(Q1,D)| = " << hom_q1 << "  vs  |hom(Q2,D)| = " << hom_q2
       << (counts_verified ? "  (verified)" : "  (VERIFICATION FAILED)");
  }
  return os.str();
}

}  // namespace bagcq::core
