#include "graph/graph.h"

#include <gtest/gtest.h>

#include "graph/chordal.h"
#include "graph/hypergraph.h"
#include "graph/junction_tree.h"

namespace bagcq::graph {
namespace {

using util::VarSet;

Graph Cycle(int n) {
  Graph g(n);
  for (int i = 0; i < n; ++i) g.AddEdge(i, (i + 1) % n);
  return g;
}

Graph Path(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  return g;
}

Graph Complete(int n) {
  Graph g(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) g.AddEdge(i, j);
  }
  return g;
}

TEST(GraphTest, BasicOps) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}});
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(3, 3));
  g.AddEdge(2, 2);  // self-loop ignored
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.Neighbors(1), VarSet::Of({0, 2}));
}

TEST(GraphTest, CliqueDetection) {
  Graph g = Complete(4);
  EXPECT_TRUE(g.IsClique(VarSet::Of({0, 1, 2, 3})));
  EXPECT_TRUE(g.IsClique(VarSet::Of({1, 3})));
  EXPECT_TRUE(g.IsClique(VarSet::Of({2})));
  EXPECT_TRUE(g.IsClique(VarSet()));
  Graph p = Path(3);
  EXPECT_FALSE(p.IsClique(VarSet::Of({0, 1, 2})));
  EXPECT_TRUE(p.IsClique(VarSet::Of({0, 1})));
}

TEST(GraphTest, ConnectedComponents) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {3, 4}});
  auto components = g.ConnectedComponents();
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[0], VarSet::Of({0, 1}));
  EXPECT_EQ(components[1], VarSet::Of({2}));
  EXPECT_EQ(components[2], VarSet::Of({3, 4}));
}

TEST(GraphTest, InducedSubgraph) {
  Graph g = Complete(4);
  Graph sub = g.InducedSubgraph(VarSet::Of({0, 2, 3}));
  EXPECT_TRUE(sub.HasEdge(0, 2));
  EXPECT_TRUE(sub.HasEdge(2, 3));
  EXPECT_FALSE(sub.HasEdge(0, 1));
  EXPECT_EQ(sub.num_edges(), 3);
}

TEST(ChordalTest, Classics) {
  EXPECT_TRUE(IsChordal(Path(5)));
  EXPECT_TRUE(IsChordal(Complete(5)));
  EXPECT_TRUE(IsChordal(Cycle(3)));
  EXPECT_FALSE(IsChordal(Cycle(4)));
  EXPECT_FALSE(IsChordal(Cycle(5)));
  EXPECT_FALSE(IsChordal(Cycle(6)));
  EXPECT_TRUE(IsChordal(Graph(4)));  // edgeless
  // C4 plus one chord is chordal.
  Graph c4 = Cycle(4);
  c4.AddEdge(0, 2);
  EXPECT_TRUE(IsChordal(c4));
}

TEST(ChordalTest, TreesAreChordal) {
  Graph star(5);
  for (int i = 1; i < 5; ++i) star.AddEdge(0, i);
  EXPECT_TRUE(IsChordal(star));
}

TEST(ChordalTest, MaximalCliquesOfPath) {
  auto cliques = MaximalCliquesChordal(Path(4));
  ASSERT_EQ(cliques.size(), 3u);
  std::vector<VarSet> expected = {VarSet::Of({0, 1}), VarSet::Of({1, 2}),
                                  VarSet::Of({2, 3})};
  for (VarSet e : expected) {
    EXPECT_NE(std::find(cliques.begin(), cliques.end(), e), cliques.end());
  }
}

TEST(ChordalTest, MaximalCliquesOfComplete) {
  auto cliques = MaximalCliquesChordal(Complete(4));
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0], VarSet::Full(4));
}

TEST(ChordalTest, MaximalCliquesWithIsolatedVertex) {
  Graph g = Graph::FromEdges(3, {{0, 1}});
  auto cliques = MaximalCliquesChordal(g);
  ASSERT_EQ(cliques.size(), 2u);
  EXPECT_NE(std::find(cliques.begin(), cliques.end(), VarSet::Of({0, 1})),
            cliques.end());
  EXPECT_NE(std::find(cliques.begin(), cliques.end(), VarSet::Of({2})),
            cliques.end());
}

TEST(ChordalDeathTest, MaximalCliquesRequiresChordal) {
  EXPECT_DEATH(MaximalCliquesChordal(Cycle(4)), "not chordal");
}

TEST(TriangulationTest, ChordalInputsAreUnchanged) {
  for (const Graph& g : {Path(5), Complete(4), Cycle(3)}) {
    EXPECT_EQ(MinimalTriangulation(g), g);
  }
}

TEST(TriangulationTest, C4GetsExactlyOneChord) {
  Graph filled = MinimalTriangulation(Cycle(4));
  EXPECT_TRUE(IsChordal(filled));
  EXPECT_EQ(filled.num_edges(), 5);  // 4 + 1 chord
}

TEST(TriangulationTest, C5GetsExactlyTwoChords) {
  Graph filled = MinimalTriangulation(Cycle(5));
  EXPECT_TRUE(IsChordal(filled));
  EXPECT_EQ(filled.num_edges(), 7);  // 5 + 2 chords
}

TEST(TriangulationTest, PreservesOriginalEdges) {
  Graph g = Cycle(6);
  Graph filled = MinimalTriangulation(g);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(filled.HasEdge(i, (i + 1) % 6));
  }
  EXPECT_TRUE(IsChordal(filled));
}

TEST(JunctionTreeTest, PathJunctionTreeIsSimpleChain) {
  TreeDecomposition td = JunctionTree(Path(4));
  EXPECT_EQ(td.num_nodes(), 3);
  EXPECT_EQ(td.edges().size(), 2u);
  EXPECT_TRUE(td.HasRunningIntersection());
  EXPECT_TRUE(td.IsSimple());
  EXPECT_FALSE(td.IsTotallyDisconnected());
}

TEST(JunctionTreeTest, TriangleIsSingleBag) {
  TreeDecomposition td = JunctionTree(Cycle(3));
  EXPECT_EQ(td.num_nodes(), 1);
  EXPECT_TRUE(td.edges().empty());
  EXPECT_TRUE(td.IsSimple());
  EXPECT_TRUE(td.IsTotallyDisconnected());
}

TEST(JunctionTreeTest, TwoTrianglesSharingAnEdgeIsNotSimple) {
  // Vertices 0,1,2 and 1,2,3: cliques share {1,2}.
  Graph g = Graph::FromEdges(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}});
  ASSERT_TRUE(IsChordal(g));
  TreeDecomposition td = JunctionTree(g);
  EXPECT_EQ(td.num_nodes(), 2);
  EXPECT_FALSE(td.IsSimple());
  EXPECT_FALSE(AdmitsSimpleJunctionTree(g));
}

TEST(JunctionTreeTest, DisconnectedGraphGivesForest) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {3, 4}});
  TreeDecomposition td = JunctionTree(g);
  EXPECT_EQ(td.num_nodes(), 3);  // {0,1}, {2}, {3,4}
  EXPECT_TRUE(td.edges().empty());
  EXPECT_TRUE(td.IsTotallyDisconnected());
  EXPECT_TRUE(td.HasRunningIntersection());
}

TEST(JunctionTreeTest, Example35GaifmanTree) {
  // Q2 of Example 3.5: edges y1-y2, y1-y3, y4-y2 — a tree, so chordal with
  // the simple junction tree {y1,y3} - {y1,y2} - {y2,y4}.
  Graph g = Graph::FromEdges(4, {{0, 1}, {0, 2}, {3, 1}});
  ASSERT_TRUE(IsChordal(g));
  EXPECT_TRUE(AdmitsSimpleJunctionTree(g));
  TreeDecomposition td = JunctionTree(g);
  EXPECT_EQ(td.num_nodes(), 3);
  EXPECT_EQ(td.edges().size(), 2u);
}

TEST(GyoTest, AcyclicFamilies) {
  // Path hypergraph.
  EXPECT_TRUE(IsAlphaAcyclic(4, {VarSet::Of({0, 1}), VarSet::Of({1, 2}),
                                 VarSet::Of({2, 3})}));
  // Single edge.
  EXPECT_TRUE(IsAlphaAcyclic(3, {VarSet::Of({0, 1, 2})}));
  // Empty family.
  EXPECT_TRUE(IsAlphaAcyclic(2, {}));
  // α-acyclicity is not closed under subedges: the "big edge" fix makes a
  // triangle acyclic.
  EXPECT_TRUE(IsAlphaAcyclic(3, {VarSet::Of({0, 1}), VarSet::Of({1, 2}),
                                 VarSet::Of({0, 2}), VarSet::Of({0, 1, 2})}));
}

TEST(GyoTest, CyclicFamilies) {
  // Triangle.
  EXPECT_FALSE(IsAlphaAcyclic(3, {VarSet::Of({0, 1}), VarSet::Of({1, 2}),
                                  VarSet::Of({0, 2})}));
  // 4-cycle.
  EXPECT_FALSE(IsAlphaAcyclic(4, {VarSet::Of({0, 1}), VarSet::Of({1, 2}),
                                  VarSet::Of({2, 3}), VarSet::Of({3, 0})}));
}

}  // namespace
}  // namespace bagcq::graph
