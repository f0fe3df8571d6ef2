#include "cq/treewidth_count.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "graph/chordal.h"
#include "graph/junction_tree.h"
#include "util/check.h"

namespace bagcq::cq {

namespace {

// Rows over a bag's variables (one column each, in increasing variable
// order), stored flat, each with the number of homomorphisms of the subtree
// below it that agree with the row.
struct Table {
  size_t width = 0;
  std::vector<int> values;
  std::vector<int64_t> counts;
  const int* row(size_t r) const { return values.data() + r * width; }
};

// A variable's column in its bag's table: its rank among the bag's variables.
int Column(VarSet bag, int v) {
  return VarSet(bag.mask() & ((uint64_t{1} << v) - 1)).size();
}

// Lexicographic order of a's entries at a_cols against b's at b_cols.
int Compare(const int* a, const std::vector<int>& a_cols, const int* b,
            const std::vector<int>& b_cols) {
  for (size_t i = 0; i < a_cols.size(); ++i) {
    if (a[a_cols[i]] != b[b_cols[i]]) {
      return a[a_cols[i]] < b[b_cols[i]] ? -1 : 1;
    }
  }
  return 0;
}

// Joins `tuples` (pattern[i] is the variable at position i) into `table`:
// each row extends by every tuple that agrees with it on the variables
// already bound and with itself on repeated ones, its count multiplied by
// the tuple's weight (1 when `weights` is empty). False on int64 overflow.
bool Join(const std::vector<int>& pattern,
          const std::vector<Structure::Tuple>& tuples,
          const std::vector<int64_t>& weights, VarSet bag, VarSet* bound,
          Table* table) {
  std::vector<int> key_pos, key_cols, new_pos, new_cols;
  std::vector<std::pair<int, int>> repeats;  // (position, first position)
  for (int pos = 0; pos < static_cast<int>(pattern.size()); ++pos) {
    const int v = pattern[pos];
    const int first = static_cast<int>(
        std::find(pattern.begin(), pattern.end(), v) - pattern.begin());
    if (bound->Contains(v)) {
      key_pos.push_back(pos);
      key_cols.push_back(Column(bag, v));
    } else if (first < pos) {
      repeats.emplace_back(pos, first);
    } else {
      new_pos.push_back(pos);
      new_cols.push_back(Column(bag, v));
    }
  }
  std::vector<size_t> order;  // matching tuples, sorted by their key
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (std::all_of(repeats.begin(), repeats.end(), [&](auto r) {
          return tuples[i][r.first] == tuples[i][r.second];
        })) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return Compare(tuples[a].data(), key_pos, tuples[b].data(), key_pos) < 0;
  });
  Table out{table->width, {}, {}};
  for (size_t r = 0; r < table->counts.size(); ++r) {
    const int* row = table->row(r);
    auto it = std::lower_bound(
        order.begin(), order.end(), row, [&](size_t i, const int* x) {
          return Compare(tuples[i].data(), key_pos, x, key_cols) < 0;
        });
    for (; it != order.end() &&
           Compare(tuples[*it].data(), key_pos, row, key_cols) == 0;
         ++it) {
      int64_t count = table->counts[r];
      if (!weights.empty() &&
          __builtin_mul_overflow(count, weights[*it], &count)) {
        return false;
      }
      const size_t at = out.values.size();
      out.values.insert(out.values.end(), row, row + table->width);
      for (size_t i = 0; i < new_pos.size(); ++i) {
        out.values[at + new_cols[i]] = tuples[*it][new_pos[i]];
      }
      out.counts.push_back(count);
    }
  }
  for (int pos : new_pos) *bound = bound->With(pattern[pos]);
  *table = std::move(out);
  return true;
}

// The values `v` can take in any homomorphism, as unary tuples: the
// intersection of the projections onto `v` of the atoms that mention it.
std::vector<Structure::Tuple> Candidates(const ConjunctiveQuery& q,
                                         const Structure& d, int v) {
  std::optional<std::set<int>> common;
  for (const Atom& atom : q.atoms()) {
    const auto pos = std::find(atom.vars.begin(), atom.vars.end(), v);
    if (pos == atom.vars.end()) continue;
    std::set<int> values;
    for (const Structure::Tuple& t : d.tuples(atom.relation)) {
      const int value = t[pos - atom.vars.begin()];
      if (!common || common->count(value) > 0) values.insert(value);
    }
    common = std::move(values);
  }
  std::vector<Structure::Tuple> out;
  for (int value : *common) out.push_back({value});
  return out;
}

}  // namespace

std::optional<int64_t> CountHomomorphismsTreewidth(
    const ConjunctiveQuery& q, const Structure& d,
    const TreewidthCountOptions& options) {
  if (q.num_atoms() == 0) return q.num_vars() == 0 ? 1 : 0;
  BAGCQ_CHECK(q.AllVarsUsed())
      << "query has variables outside the body: " << q.ToString();
  graph::Graph gaifman = q.GaifmanGraph();
  if (!graph::IsChordal(gaifman)) {
    gaifman = graph::MinimalTriangulation(gaifman);
  }
  const graph::TreeDecomposition tree = graph::JunctionTree(gaifman);
  const int m = tree.num_nodes();

  // Every atom joins into the first bag that covers it (atoms are cliques of
  // the Gaifman graph, so one does); a nullary atom simply holds or fails.
  std::vector<std::vector<const Atom*>> atoms_of(m);
  for (const Atom& atom : q.atoms()) {
    if (atom.vars.empty()) {
      if (d.tuples(atom.relation).empty()) return 0;
      continue;
    }
    int t = 0;
    while (t < m && !atom.VarSet_().IsSubsetOf(tree.bags()[t])) ++t;
    BAGCQ_CHECK(t < m) << "junction tree must cover every atom";
    atoms_of[t].push_back(&atom);
  }

  // Bag tables. Widest atoms join first: in an acyclic query the bag's own
  // atom binds every column and the rest only filter. A bag variable no
  // placed atom mentions ranges over its candidate values. Unweighted joins
  // cannot overflow; the guard bounds each table's rows before it is built.
  std::vector<Table> tables(m);
  for (int t = 0; t < m; ++t) {
    const VarSet bag = tree.bags()[t];
    const size_t width = static_cast<size_t>(bag.size());
    tables[t] = Table{width, std::vector<int>(width, 0), {1}};
    int64_t rows = 1;
    auto grow = [&](size_t factor) {
      return !__builtin_mul_overflow(rows, static_cast<int64_t>(factor),
                                     &rows) &&
             rows <= options.max_bag_assignments;
    };
    std::stable_sort(atoms_of[t].begin(), atoms_of[t].end(),
                     [](const Atom* a, const Atom* b) {
                       return a->VarSet_().size() > b->VarSet_().size();
                     });
    VarSet bound;
    for (const Atom* atom : atoms_of[t]) {
      const std::vector<Structure::Tuple>& relation = d.tuples(atom->relation);
      if (!atom->VarSet_().IsSubsetOf(bound) && !grow(relation.size())) {
        return std::nullopt;
      }
      Join(atom->vars, relation, {}, bag, &bound, &tables[t]);
    }
    for (int v : bag.Minus(bound).Elements()) {
      const std::vector<Structure::Tuple> values = Candidates(q, d, v);
      if (!grow(values.size())) return std::nullopt;
      Join({v}, values, {}, bag, &bound, &tables[t]);
    }
  }

  // Bottom-up message passing, children before parents: a child's counts,
  // summed per value of the variables it shares with its parent, multiply
  // into the parent's matching rows. Roots send theirs, summed whole, into
  // the one-row total, so components multiply.
  const std::vector<int> parent = tree.RootedParents();
  std::vector<int> depth(m, 0);
  for (int t = 0; t < m; ++t) {
    for (int x = t; parent[x] >= 0; x = parent[x]) ++depth[t];
  }
  std::vector<int> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return depth[a] > depth[b]; });
  Table total{0, {}, {1}};
  for (int t : order) {
    const VarSet bag = tree.bags()[t];
    const VarSet up = parent[t] < 0 ? VarSet() : tree.bags()[parent[t]];
    const std::vector<int> separator = bag.Intersect(up).Elements();
    std::map<Structure::Tuple, int64_t> message;
    for (size_t r = 0; r < tables[t].counts.size(); ++r) {
      Structure::Tuple key;
      for (int v : separator) key.push_back(tables[t].row(r)[Column(bag, v)]);
      int64_t& sum = message[std::move(key)];
      if (__builtin_add_overflow(sum, tables[t].counts[r], &sum)) {
        return std::nullopt;
      }
    }
    std::vector<Structure::Tuple> keys;
    std::vector<int64_t> sums;
    for (const auto& [key, sum] : message) {
      keys.push_back(key);
      sums.push_back(sum);
    }
    VarSet bound = up;
    if (!Join(separator, keys, sums, up, &bound,
              parent[t] < 0 ? &total : &tables[parent[t]])) {
      return std::nullopt;
    }
  }
  return total.counts.empty() ? 0 : total.counts[0];
}

}  // namespace bagcq::cq
