#include "cq/structure.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <sstream>

#include "util/check.h"

namespace bagcq::cq {

Structure::Structure(Vocabulary vocab) : vocab_(std::move(vocab)) {
  relations_.resize(vocab_.size());
}

void Structure::AddTuple(int relation, Tuple t) {
  BAGCQ_CHECK(relation >= 0 && relation < vocab_.size());
  BAGCQ_CHECK_EQ(static_cast<int>(t.size()), vocab_.arity(relation))
      << "tuple arity mismatch for " << vocab_.name(relation);
  auto& rel = relations_[relation];
  auto it = std::lower_bound(rel.begin(), rel.end(), t);
  if (it == rel.end() || *it != t) rel.insert(it, std::move(t));
}

void Structure::AddTuples(int relation, std::vector<Tuple> tuples) {
  BAGCQ_CHECK(relation >= 0 && relation < vocab_.size());
  for (const Tuple& t : tuples) {
    BAGCQ_CHECK_EQ(static_cast<int>(t.size()), vocab_.arity(relation))
        << "tuple arity mismatch for " << vocab_.name(relation);
  }
  std::sort(tuples.begin(), tuples.end());
  auto& rel = relations_[relation];
  const auto old_size = static_cast<std::ptrdiff_t>(rel.size());
  rel.insert(rel.end(), std::make_move_iterator(tuples.begin()),
             std::make_move_iterator(tuples.end()));
  std::inplace_merge(rel.begin(), rel.begin() + old_size, rel.end());
  rel.erase(std::unique(rel.begin(), rel.end()), rel.end());
}

bool Structure::Contains(int relation, const Tuple& t) const {
  const auto& rel = relations_[relation];
  return std::binary_search(rel.begin(), rel.end(), t);
}

std::vector<int> Structure::ActiveDomain() const {
  std::set<int> values;
  for (const auto& rel : relations_) {
    for (const Tuple& t : rel) values.insert(t.begin(), t.end());
  }
  return std::vector<int>(values.begin(), values.end());
}

int64_t Structure::TotalTuples() const {
  int64_t total = 0;
  for (const auto& rel : relations_) total += static_cast<int64_t>(rel.size());
  return total;
}

std::string Structure::ToString() const {
  std::ostringstream os;
  for (int r = 0; r < vocab_.size(); ++r) {
    if (r > 0) os << "; ";
    os << vocab_.name(r) << " = {";
    for (size_t i = 0; i < relations_[r].size(); ++i) {
      if (i > 0) os << ", ";
      os << "(";
      for (size_t j = 0; j < relations_[r][i].size(); ++j) {
        if (j > 0) os << ",";
        os << relations_[r][i][j];
      }
      os << ")";
    }
    os << "}";
  }
  return os.str();
}

Structure CanonicalStructure(const ConjunctiveQuery& q) {
  Structure out(q.vocab());
  for (const Atom& a : q.atoms()) {
    out.AddTuple(a.relation, a.vars);
  }
  return out;
}

ConjunctiveQuery StructureToQuery(const Structure& a) {
  ConjunctiveQuery q(a.vocab());
  std::vector<int> domain = a.ActiveDomain();
  // Map domain values to query variables.
  std::map<int, int> var_of;
  for (int value : domain) {
    var_of[value] = q.AddVariable("d" + std::to_string(value));
  }
  for (int r = 0; r < a.vocab().size(); ++r) {
    for (const Structure::Tuple& t : a.tuples(r)) {
      std::vector<int> vars;
      vars.reserve(t.size());
      for (int value : t) vars.push_back(var_of[value]);
      q.AddAtom(r, std::move(vars));
    }
  }
  return q;
}

}  // namespace bagcq::cq
