#include "cq/homomorphism.h"

#include <algorithm>

#include "cq/treewidth_count.h"
#include "util/check.h"

namespace bagcq::cq {

namespace {

// Backtracking over atoms: at each step pick the unprocessed atom with the
// most bound variables (ties: fewer candidate tuples), then extend the
// partial assignment along its matching tuples.
class Searcher {
 public:
  Searcher(const ConjunctiveQuery& q, const Structure& d, int64_t limit,
           std::vector<VarMap>* sink)
      : q_(q), d_(d), limit_(limit), sink_(sink) {
    assignment_.assign(q.num_vars(), -1);
    processed_.assign(q.num_atoms(), false);
    BAGCQ_CHECK(q.AllVarsUsed())
        << "query has variables outside the body: " << q.ToString();
  }

  int64_t Run() {
    Recurse(0);
    return count_;
  }

 private:
  bool Done() const { return limit_ >= 0 && count_ >= limit_; }

  // True if tuple matches the atom pattern under the current partial
  // assignment (consistent with bound vars and with repeated variables).
  bool Matches(const Atom& atom, const Structure::Tuple& t,
               std::vector<std::pair<int, int>>* newly_bound) {
    newly_bound->clear();
    for (size_t pos = 0; pos < t.size(); ++pos) {
      int v = atom.vars[pos];
      int bound = assignment_[v];
      if (bound >= 0) {
        if (bound != t[pos]) return false;
      } else {
        assignment_[v] = t[pos];
        newly_bound->emplace_back(v, t[pos]);
      }
    }
    return true;
  }

  void Unbind(const std::vector<std::pair<int, int>>& newly_bound) {
    for (const auto& [v, value] : newly_bound) {
      (void)value;
      assignment_[v] = -1;
    }
  }

  void Recurse(int processed_count) {
    if (Done()) return;
    if (processed_count == q_.num_atoms()) {
      ++count_;
      if (sink_ != nullptr) sink_->push_back(assignment_);
      return;
    }
    // Pick the next atom greedily.
    int best = -1;
    int best_bound = -1;
    for (int i = 0; i < q_.num_atoms(); ++i) {
      if (processed_[i]) continue;
      int bound = 0;
      for (int v : q_.atoms()[i].vars) {
        if (assignment_[v] >= 0) ++bound;
      }
      if (bound > best_bound ||
          (bound == best_bound &&
           d_.tuples(q_.atoms()[i].relation).size() <
               d_.tuples(q_.atoms()[best].relation).size())) {
        best = i;
        best_bound = bound;
      }
    }
    const Atom& atom = q_.atoms()[best];
    processed_[best] = true;
    std::vector<std::pair<int, int>> newly_bound;
    for (const Structure::Tuple& t : d_.tuples(atom.relation)) {
      if (Matches(atom, t, &newly_bound)) {
        Recurse(processed_count + 1);
      }
      Unbind(newly_bound);
      if (Done()) break;
    }
    processed_[best] = false;
  }

  const ConjunctiveQuery& q_;
  const Structure& d_;
  int64_t limit_;
  std::vector<VarMap>* sink_;
  VarMap assignment_;
  std::vector<bool> processed_;
  int64_t count_ = 0;
};

}  // namespace

int64_t CountHomomorphisms(const ConjunctiveQuery& q, const Structure& d) {
  if (auto count = CountHomomorphismsTreewidth(q, d)) return *count;
  return CountHomomorphismsBacktracking(q, d);
}

int64_t CountHomomorphismsBacktracking(const ConjunctiveQuery& q,
                                       const Structure& d, int64_t limit) {
  if (q.num_atoms() == 0) return q.num_vars() == 0 ? 1 : 0;
  return Searcher(q, d, limit, nullptr).Run();
}

std::vector<VarMap> EnumerateHomomorphisms(const ConjunctiveQuery& q,
                                           const Structure& d,
                                           int64_t max_results) {
  std::vector<VarMap> out;
  if (q.num_atoms() == 0) {
    if (q.num_vars() == 0) out.push_back({});
    return out;
  }
  Searcher(q, d, max_results, &out).Run();
  return out;
}

bool HomomorphismExists(const ConjunctiveQuery& q, const Structure& d) {
  return CountHomomorphismsBacktracking(q, d, /*limit=*/1) > 0;
}

std::vector<VarMap> QueryHomomorphisms(const ConjunctiveQuery& from,
                                       const ConjunctiveQuery& to) {
  BAGCQ_CHECK(from.vocab() == to.vocab())
      << "homomorphisms require a common vocabulary";
  return EnumerateHomomorphisms(from, CanonicalStructure(to));
}

}  // namespace bagcq::cq
