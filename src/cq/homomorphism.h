// Homomorphism counting and enumeration (Section 2.1). |hom(Q, D)| is the
// quantity the whole paper is about — bag-set semantics counts
// homomorphisms (Section 2.2). Counting runs the junction-tree DP
// (cq/treewidth_count.h); backtracking search with greedy atom ordering
// enumerates, decides existence, and is the counting fallback and oracle.
#pragma once

#include <cstdint>
#include <vector>

#include "cq/query.h"
#include "cq/structure.h"

namespace bagcq::cq {

/// A homomorphism as a total map var id -> domain value.
using VarMap = std::vector<int>;

/// Number of homomorphisms Q -> D, by the junction-tree DP; backtracking
/// when a bag exceeds the DP's size guard or the count overflows int64.
int64_t CountHomomorphisms(const ConjunctiveQuery& q, const Structure& d);

/// Number of homomorphisms Q -> D by backtracking, one at a time. If
/// limit >= 0, stops counting at limit (the return value is
/// min(count, limit)).
int64_t CountHomomorphismsBacktracking(const ConjunctiveQuery& q,
                                       const Structure& d,
                                       int64_t limit = -1);

/// All homomorphisms Q -> D (up to max_results if >= 0).
std::vector<VarMap> EnumerateHomomorphisms(const ConjunctiveQuery& q,
                                           const Structure& d,
                                           int64_t max_results = -1);

/// ∃ hom Q -> D.
bool HomomorphismExists(const ConjunctiveQuery& q, const Structure& d);

/// Homomorphisms between queries: maps vars(from) -> vars(to) preserving
/// atoms (i.e. hom(from, CanonicalStructure(to))). This is the
/// hom(Q2, Q1) set maximized over in Eq. (8).
std::vector<VarMap> QueryHomomorphisms(const ConjunctiveQuery& from,
                                       const ConjunctiveQuery& to);

}  // namespace bagcq::cq
