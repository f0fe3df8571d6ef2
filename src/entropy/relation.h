// V-relations (Section 3.1): finite relations P ⊆ D^V whose uniform
// distribution provides entropic functions. Includes the paper's special
// families: step relations P_W (two tuples, Section 3.2), product relations,
// and domain products P1 ⊗ P2 (Definition B.1) — the building blocks of
// normal relations and of witness databases.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/varset.h"

namespace bagcq::entropy {

using util::VarSet;

/// An immutable-ish set of tuples over variables 0..n-1. Tuples are kept
/// sorted and deduplicated (set semantics).
class Relation {
 public:
  using Tuple = std::vector<int>;

  explicit Relation(int n) : n_(n) {}
  /// The set of `tuples`: one sort and one deduplication, where AddTuple
  /// per tuple shifts the sorted vector and is quadratic in the worst case.
  /// CHECK-fails on arity mismatch.
  static Relation FromTuples(int n, std::vector<Tuple> tuples);

  int num_vars() const { return n_; }
  int64_t size() const { return static_cast<int64_t>(tuples_.size()); }
  bool empty() const { return tuples_.empty(); }
  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Inserts a tuple (deduplicated). CHECK-fails on arity mismatch.
  void AddTuple(Tuple t);

  /// Projection counts: for every distinct X-projection value, how many
  /// tuples map to it. (The marginal distribution of the uniform
  /// distribution, as counts.)
  std::map<Tuple, int64_t> ProjectionCounts(VarSet x) const;

  /// Number of distinct X-projections |Π_X(P)|.
  int64_t ProjectionSize(VarSet x) const;

  /// Every marginal of the uniform distribution is uniform (Definition 4.5).
  bool IsTotallyUniform() const;

  /// The step relation P_W of Section 3.2, generalized to `levels` values:
  /// tuples f_a with a ∈ [levels] on positions outside W and the constant 0
  /// on W. levels = 2 gives the paper's two-tuple P_W with entropy h_W;
  /// general levels give log2(levels)·h_W.
  static Relation StepRelation(int n, VarSet w, int levels = 2);

  /// Product relation Π_i S_i where column i takes values 0..sizes[i]-1.
  static Relation ProductRelation(const std::vector<int>& sizes);

  /// Domain product P1 ⊗ P2 (Definition B.1): tuples (f⊗g)(x) = (f(x),g(x)),
  /// value pairs encoded as a fresh dense int coding. |P1 ⊗ P2| =
  /// |P1| · |P2| and the entropy is the sum of the entropies.
  Relation DomainProduct(const Relation& other) const;

  std::string ToString() const;

 private:
  int n_;
  std::vector<Tuple> tuples_;
};

}  // namespace bagcq::entropy
