// α-acyclicity of a query (Definition 2.6): the class on which Yannakakis'
// join-tree algorithm runs in time polynomial in |D|. Counting itself goes
// through the junction-tree DP (cq/treewidth_count.h), whose bags are the
// maximal atoms exactly when the query is α-acyclic.
#pragma once

#include "cq/query.h"

namespace bagcq::cq {

/// α-acyclicity of the query's atom hypergraph (Definition 2.6).
bool IsAcyclic(const ConjunctiveQuery& q);

}  // namespace bagcq::cq
