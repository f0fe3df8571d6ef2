#include "graph/hypergraph.h"

namespace bagcq::graph {

bool IsAlphaAcyclic(int num_vars, const std::vector<VarSet>& edges) {
  (void)num_vars;
  const int m = static_cast<int>(edges.size());
  std::vector<bool> alive(m, true);
  int remaining = m;
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (int e = 0; e < m && remaining > 0; ++e) {
      if (!alive[e]) continue;
      // Vertices of e shared with other alive edges. An ear is an edge whose
      // shared vertices all lie in one other alive edge (or that shares
      // none: the last edge of a component).
      VarSet shared;
      for (int f = 0; f < m; ++f) {
        if (f != e && alive[f]) shared = shared.Union(edges[e].Intersect(edges[f]));
      }
      bool ear = shared.empty();
      for (int f = 0; f < m && !ear; ++f) {
        ear = f != e && alive[f] && shared.IsSubsetOf(edges[f]);
      }
      if (ear) {
        alive[e] = false;
        --remaining;
        progress = true;
      }
    }
  }
  return remaining == 0;
}

}  // namespace bagcq::graph
