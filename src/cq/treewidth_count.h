// Homomorphism counting by dynamic programming over a junction tree — the
// counting engine behind cq::CountHomomorphisms.
//
// The tree is a junction tree of Q's Gaifman graph, minimally triangulated
// when the graph is not chordal. For an α-acyclic Q the Gaifman graph is
// chordal and its maximal cliques are the maximal atoms, so the DP is
// Yannakakis' join-tree count; for a cyclic Q it is the treewidth DP. A
// bag's table joins the tuples of the atoms placed in it, so its size
// follows the data rather than |adom|^|bag|. Backtracking
// (cq/homomorphism.h) is the fallback and the tests' oracle.
#pragma once

#include <cstdint>
#include <optional>

#include "cq/query.h"
#include "cq/structure.h"

namespace bagcq::cq {

struct TreewidthCountOptions {
  /// Refuse a bag whose table could exceed this many rows: the product of
  /// the relation sizes and candidate-value counts its join multiplies in.
  /// Tables are stored, so the default keeps one under ~100 MB. An acyclic
  /// bag's bound is just the size of its own atom's relation.
  int64_t max_bag_assignments = int64_t{1} << 22;
};

/// |hom(Q, D)|, or nullopt if some bag exceeds the option limit or the count
/// overflows int64 (the caller can fall back to backtracking).
std::optional<int64_t> CountHomomorphismsTreewidth(
    const ConjunctiveQuery& q, const Structure& d,
    const TreewidthCountOptions& options = {});

}  // namespace bagcq::cq
