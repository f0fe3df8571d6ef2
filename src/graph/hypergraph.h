// Hypergraph α-acyclicity via the GYO reduction (Definition 2.6 / [Fagin83]).
//
// A query is acyclic iff its atom hypergraph admits a tree decomposition
// whose bags are atom variable-sets (a join tree); GYO decides this.
#pragma once

#include <vector>

#include "util/varset.h"

namespace bagcq::graph {

using util::VarSet;

/// True iff the hyperedge family reduces to empty under GYO (repeatedly
/// remove isolated vertices and edges contained in other edges).
bool IsAlphaAcyclic(int num_vars, const std::vector<VarSet>& edges);

}  // namespace bagcq::graph
