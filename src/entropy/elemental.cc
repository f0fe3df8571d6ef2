#include "entropy/elemental.h"

#include <sstream>

#include "util/check.h"

namespace bagcq::entropy {

LinearExpr ElementalInequality::ToExpr(int n) const {
  VarSet full = VarSet::Full(n);
  if (kind == Kind::kMonotonicity) {
    // h(V) - h(V - {i}).
    return LinearExpr::HCond(n, VarSet::Singleton(i), full.Without(i));
  }
  return LinearExpr::MI(n, VarSet::Singleton(i), VarSet::Singleton(j), k);
}

std::string ElementalInequality::ToString(
    int n, const std::vector<std::string>& names) const {
  std::ostringstream os;
  auto name = [&](int v) {
    return v < static_cast<int>(names.size()) ? names[v]
                                              : "X" + std::to_string(v);
  };
  if (kind == Kind::kMonotonicity) {
    os << "h(" << name(i) << "|"
       << VarSet::Full(n).Without(i).ToString(names) << ") >= 0";
  } else {
    os << "I(" << name(i) << ";" << name(j);
    if (!k.empty()) os << "|" << k.ToString(names);
    os << ") >= 0";
  }
  return os.str();
}

std::vector<ElementalInequality> ElementalInequalities(int n) {
  std::vector<ElementalInequality> out;
  for (int i = 0; i < n; ++i) {
    out.push_back({ElementalInequality::Kind::kMonotonicity, i, -1, VarSet()});
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      VarSet rest = VarSet::Full(n).Without(i).Without(j);
      ForEachSubset(rest, [&](VarSet k) {
        out.push_back({ElementalInequality::Kind::kSubmodularity, i, j, k});
      });
    }
  }
  return out;
}

ElementalColumn ElementalColumnOf(int n, const ElementalInequality& e) {
  const uint64_t full = VarSet::Full(n).mask();
  ElementalColumn column;
  // Terms go in ascending mask order, the order of ToExpr's terms; h(∅)
  // is 0 and has no row.
  auto add = [&column](uint64_t mask, int8_t coeff) {
    if (mask == 0) return;
    column.row[column.size] = static_cast<uint32_t>(mask - 1);
    column.coeff[column.size] = coeff;
    ++column.size;
  };
  const uint64_t bit_i = uint64_t{1} << e.i;
  if (e.kind == ElementalInequality::Kind::kMonotonicity) {
    // h(V) − h(V−i).
    add(full & ~bit_i, -1);
    add(full, 1);
  } else {
    // h(K+i) + h(K+j) − h(K+i+j) − h(K), ascending because i < j.
    const uint64_t k = e.k.mask();
    const uint64_t bit_j = uint64_t{1} << e.j;
    add(k, -1);
    add(k | bit_i, 1);
    add(k | bit_j, 1);
    add(k | bit_i | bit_j, -1);
  }
  return column;
}

std::vector<ElementalColumn> ElementalColumns(
    int n, const std::vector<ElementalInequality>& elementals) {
  std::vector<ElementalColumn> out;
  out.reserve(elementals.size());
  for (const ElementalInequality& e : elementals) {
    BAGCQ_DCHECK(e.kind == ElementalInequality::Kind::kMonotonicity ||
                 e.i < e.j);
    out.push_back(ElementalColumnOf(n, e));
  }
  return out;
}

std::vector<std::pair<ElementalInequality, Rational>> DecomposeFullEntropy(
    int n) {
  // Chain rule: h(V) = Σ_i h(X_i | X_{>i}), and each
  //   h(X_i | X_{>i}) = h(X_i | X_{V−i}) + I(X_i ; X_{<i} | X_{>i}),
  // where the mutual-information term splits into elemental pieces
  //   I(X_i ; s | X_{>i} ∪ {already-handled smaller vars}).
  std::vector<std::pair<ElementalInequality, Rational>> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(
        {{ElementalInequality::Kind::kMonotonicity, i, -1, VarSet()},
         Rational(1)});
    VarSet cond;  // X_{>i}
    for (int v = i + 1; v < n; ++v) cond = cond.With(v);
    for (int s = 0; s < i; ++s) {
      // I(X_i ; X_s | cond); elemental form requires i < j in (i,j),
      // so order the pair (s, i) with s < i.
      out.push_back(
          {{ElementalInequality::Kind::kSubmodularity, s, i, cond},
           Rational(1)});
      cond = cond.With(s);
    }
  }
  // Exactness check: the combination must sum to h(V) symbolically.
  LinearExpr sum(n);
  for (const auto& [e, w] : out) sum = sum + e.ToExpr(n) * w;
  BAGCQ_CHECK(sum == LinearExpr::H(n, VarSet::Full(n)))
      << "chain-rule decomposition is not exact";
  return out;
}

}  // namespace bagcq::entropy
