#include "entropy/relation.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace bagcq::entropy {

Relation Relation::FromTuples(int n, std::vector<Tuple> tuples) {
  for (const Tuple& t : tuples) {
    BAGCQ_CHECK_EQ(static_cast<int>(t.size()), n) << "tuple arity mismatch";
  }
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  Relation out(n);
  out.tuples_ = std::move(tuples);
  return out;
}

void Relation::AddTuple(Tuple t) {
  BAGCQ_CHECK_EQ(static_cast<int>(t.size()), n_) << "tuple arity mismatch";
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), t);
  if (it == tuples_.end() || *it != t) tuples_.insert(it, std::move(t));
}

std::map<Relation::Tuple, int64_t> Relation::ProjectionCounts(VarSet x) const {
  std::map<Tuple, int64_t> counts;
  std::vector<int> cols = x.Elements();
  for (const Tuple& t : tuples_) {
    Tuple proj;
    proj.reserve(cols.size());
    for (int c : cols) {
      BAGCQ_DCHECK(c < n_);
      proj.push_back(t[c]);
    }
    ++counts[proj];
  }
  return counts;
}

int64_t Relation::ProjectionSize(VarSet x) const {
  return static_cast<int64_t>(ProjectionCounts(x).size());
}

bool Relation::IsTotallyUniform() const {
  if (tuples_.empty()) return true;
  for (uint32_t s = 1; s < (1u << n_); ++s) {
    auto counts = ProjectionCounts(VarSet(s));
    int64_t first = counts.begin()->second;
    for (const auto& [proj, c] : counts) {
      if (c != first) return false;
    }
  }
  return true;
}

Relation Relation::StepRelation(int n, VarSet w, int levels) {
  BAGCQ_CHECK_GE(levels, 1);
  std::vector<Tuple> tuples;
  tuples.reserve(levels);
  for (int a = 0; a < levels; ++a) {
    Tuple t(n, 0);
    for (int i = 0; i < n; ++i) {
      if (!w.Contains(i)) t[i] = a;
    }
    tuples.push_back(std::move(t));
  }
  return FromTuples(n, std::move(tuples));
}

Relation Relation::ProductRelation(const std::vector<int>& sizes) {
  int n = static_cast<int>(sizes.size());
  std::vector<Tuple> tuples;
  Tuple t(n, 0);
  // Odometer enumeration of the full product.
  while (true) {
    tuples.push_back(t);
    int i = 0;
    while (i < n) {
      if (++t[i] < sizes[i]) break;
      t[i] = 0;
      ++i;
    }
    if (i == n) break;
  }
  return FromTuples(n, std::move(tuples));
}

Relation Relation::DomainProduct(const Relation& other) const {
  BAGCQ_CHECK_EQ(n_, other.n_);
  // Dense pair coding: pair (a,b) -> a * stride + b, stride beyond the
  // largest value in `other`.
  int64_t stride = 1;
  for (const Tuple& t : other.tuples_) {
    for (int v : t) stride = std::max<int64_t>(stride, v + 1);
  }
  std::vector<Tuple> tuples;
  tuples.reserve(tuples_.size() * other.tuples_.size());
  for (const Tuple& f : tuples_) {
    for (const Tuple& g : other.tuples_) {
      Tuple combined(n_);
      for (int i = 0; i < n_; ++i) {
        int64_t code = static_cast<int64_t>(f[i]) * stride + g[i];
        BAGCQ_CHECK(code <= INT32_MAX) << "domain product value overflow";
        combined[i] = static_cast<int>(code);
      }
      tuples.push_back(std::move(combined));
    }
  }
  return FromTuples(n_, std::move(tuples));
}

std::string Relation::ToString() const {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (i > 0) os << ", ";
    os << "(";
    for (int j = 0; j < n_; ++j) {
      if (j > 0) os << ",";
      os << tuples_[i][j];
    }
    os << ")";
  }
  os << "}";
  return os.str();
}

}  // namespace bagcq::entropy
