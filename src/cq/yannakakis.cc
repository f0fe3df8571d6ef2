#include "cq/yannakakis.h"

#include "graph/hypergraph.h"

namespace bagcq::cq {

bool IsAcyclic(const ConjunctiveQuery& q) {
  return graph::IsAlphaAcyclic(q.num_vars(), q.AtomVarSets());
}

}  // namespace bagcq::cq
