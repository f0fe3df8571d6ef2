#include "cq/homomorphism.h"

#include <random>

#include <gtest/gtest.h>

#include "cq/parser.h"
#include "cq/treewidth_count.h"
#include "cq/yannakakis.h"

namespace bagcq::cq {
namespace {

ConjunctiveQuery Parse(const std::string& text) {
  return ParseQuery(text).ValueOrDie();
}

Structure ParseDb(const std::string& text, const Vocabulary& vocab) {
  return ParseStructureWithVocabulary(text, vocab).ValueOrDie();
}

TEST(HomomorphismTest, PathIntoPath) {
  ConjunctiveQuery q = Parse("R(x,y), R(y,z)");
  Structure d = ParseDb("R = {(1,2), (2,3)}", q.vocab());
  // Paths of length 2 in 1->2->3: only 1->2->3.
  EXPECT_EQ(CountHomomorphisms(q, d), 1);
  auto homs = EnumerateHomomorphisms(q, d);
  ASSERT_EQ(homs.size(), 1u);
  EXPECT_EQ(homs[0][q.FindVariable("x")], 1);
  EXPECT_EQ(homs[0][q.FindVariable("y")], 2);
  EXPECT_EQ(homs[0][q.FindVariable("z")], 3);
}

TEST(HomomorphismTest, PathIntoCycle) {
  ConjunctiveQuery q = Parse("R(x,y), R(y,z)");
  Structure d = ParseDb("R = {(1,2), (2,1)}", q.vocab());
  // 2-cycle: x can be 1 or 2, the rest forced: 2 homs.
  EXPECT_EQ(CountHomomorphisms(q, d), 2);
}

TEST(HomomorphismTest, TriangleQueryNeedsTriangle) {
  ConjunctiveQuery q = Parse("R(x,y), R(y,z), R(z,x)");
  Structure no_triangle = ParseDb("R = {(1,2), (2,3), (3,4)}", q.vocab());
  EXPECT_EQ(CountHomomorphisms(q, no_triangle), 0);
  EXPECT_FALSE(HomomorphismExists(q, no_triangle));
  Structure triangle = ParseDb("R = {(1,2), (2,3), (3,1)}", q.vocab());
  // Three rotations.
  EXPECT_EQ(CountHomomorphisms(q, triangle), 3);
  // Self-loop absorbs everything: (x,y,z) -> (1,1,1) plus rotations of the
  // triangle if present.
  Structure loop = ParseDb("R = {(1,1)}", q.vocab());
  EXPECT_EQ(CountHomomorphisms(q, loop), 1);
}

TEST(HomomorphismTest, RepeatedVariablePattern) {
  ConjunctiveQuery q = Parse("R(x,x)");
  Structure d = ParseDb("R = {(1,1), (1,2), (2,2)}", q.vocab());
  EXPECT_EQ(CountHomomorphisms(q, d), 2);  // only the diagonal tuples
}

TEST(HomomorphismTest, DisconnectedQueryMultiplies) {
  ConjunctiveQuery q = Parse("R(x,y), R(u,v)");
  Structure d = ParseDb("R = {(1,2), (2,3), (3,1)}", q.vocab());
  EXPECT_EQ(CountHomomorphisms(q, d), 9);  // 3 × 3
}

TEST(HomomorphismTest, LimitShortCircuits) {
  ConjunctiveQuery q = Parse("R(x,y), R(u,v)");
  Structure d = ParseDb("R = {(1,2), (2,3), (3,1)}", q.vocab());
  EXPECT_EQ(CountHomomorphismsBacktracking(q, d, 4), 4);
  EXPECT_EQ(EnumerateHomomorphisms(q, d, 2).size(), 2u);
}

TEST(HomomorphismTest, EmptyDatabase) {
  ConjunctiveQuery q = Parse("R(x,y)");
  Structure d(q.vocab());
  EXPECT_EQ(CountHomomorphisms(q, d), 0);
}

TEST(HomomorphismTest, MultipleRelations) {
  ConjunctiveQuery q = Parse("A(x), R(x,y), B(y)");
  Structure d =
      ParseDb("A = {(1),(2)}; R = {(1,3),(2,4),(1,4)}; B = {(4)}", q.vocab());
  // x=1,y=4 and x=2,y=4.
  EXPECT_EQ(CountHomomorphisms(q, d), 2);
}

TEST(QueryHomomorphismTest, Example43HasThreeHoms) {
  // hom(Q2, Q1) for the Vee example: 3 rotations.
  ConjunctiveQuery q1 = Parse("R(x1,x2), R(x2,x3), R(x3,x1)");
  auto q2 = ParseQueryWithVocabulary("R(y1,y2), R(y1,y3)", q1.vocab());
  auto homs = QueryHomomorphisms(*q2, q1);
  EXPECT_EQ(homs.size(), 3u);
  // Every hom maps y2 and y3 to the same variable of Q1.
  int y2 = q2->FindVariable("y2"), y3 = q2->FindVariable("y3");
  for (const VarMap& phi : homs) {
    EXPECT_EQ(phi[y2], phi[y3]);
  }
}

TEST(QueryHomomorphismTest, Example35HasTwoHoms) {
  ConjunctiveQuery q1 = Parse(
      "A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')");
  auto q2 =
      ParseQueryWithVocabulary("A(y1,y2), B(y1,y3), C(y4,y2)", q1.vocab());
  auto homs = QueryHomomorphisms(*q2, q1);
  EXPECT_EQ(homs.size(), 2u);  // all-unprimed or all-primed
}

// On α-acyclic queries the junction-tree DP's bags are the maximal atoms —
// Yannakakis' join tree — checked against the backtracking oracle.
TEST(YannakakisTest, MatchesBacktrackingOnAcyclicQueries) {
  ConjunctiveQuery q = Parse("R(x,y), S(y,z), T(z)");
  Structure d = ParseDb(
      "R = {(1,2),(2,2),(3,1)}; S = {(2,5),(2,6),(1,5)}; T = {(5),(7)}",
      q.vocab());
  ASSERT_TRUE(IsAcyclic(q));
  auto dp = CountHomomorphismsTreewidth(q, d);
  ASSERT_TRUE(dp.has_value());
  EXPECT_EQ(*dp, CountHomomorphismsBacktracking(q, d));
}

TEST(YannakakisTest, CyclicQueriesCountToo) {
  // Yannakakis alone rejects the triangle; the junction-tree DP counts it.
  ConjunctiveQuery q = Parse("R(x,y), R(y,z), R(z,x)");
  Structure d = ParseDb("R = {(1,2)}", q.vocab());
  EXPECT_FALSE(IsAcyclic(q));
  auto dp = CountHomomorphismsTreewidth(q, d);
  ASSERT_TRUE(dp.has_value());
  EXPECT_EQ(*dp, 0);
  EXPECT_EQ(*dp, CountHomomorphismsBacktracking(q, d));
}

TEST(YannakakisTest, DisconnectedComponentsMultiply) {
  ConjunctiveQuery q = Parse("R(x,y), S(u)");
  Structure d = ParseDb("R = {(1,2),(3,4)}; S = {(1),(2),(3)}", q.vocab());
  auto dp = CountHomomorphismsTreewidth(q, d);
  ASSERT_TRUE(dp.has_value());
  EXPECT_EQ(*dp, 6);
  EXPECT_EQ(*dp, CountHomomorphismsBacktracking(q, d));
}

TEST(YannakakisTest, SameVarSetAtomsJoined) {
  // Two atoms over identical variable sets share one join-tree bag.
  ConjunctiveQuery q = Parse("A(x,y), B(x,y)");
  Structure d = ParseDb("A = {(1,2),(2,3),(1,3)}; B = {(1,2),(1,3)}", q.vocab());
  auto dp = CountHomomorphismsTreewidth(q, d);
  ASSERT_TRUE(dp.has_value());
  EXPECT_EQ(*dp, 2);
  EXPECT_EQ(*dp, CountHomomorphismsBacktracking(q, d));
}

// Property sweep: random acyclic (path-shaped) queries and random databases
// — the junction-tree DP must agree with the backtracking oracle.
class EngineAgreementSweep : public ::testing::TestWithParam<int> {};

TEST_P(EngineAgreementSweep, BacktrackingEqualsJoinTreeDp) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> len(1, 4);
  std::uniform_int_distribution<int> ntuples(0, 8);
  std::uniform_int_distribution<int> value(1, 3);

  // Build a random "path with decorations" query: R1(x0,x1), R2(x1,x2), ...
  // plus unary atoms on random path variables.
  int k = len(rng);
  std::string text;
  for (int i = 0; i < k; ++i) {
    if (i) text += ", ";
    text += "E" + std::to_string(i % 2) + "(x" + std::to_string(i) + ",x" +
            std::to_string(i + 1) + ")";
  }
  if (rng() % 2) text += ", U(x0)";
  if (rng() % 2) text += ", U(x" + std::to_string(k) + ")";
  ConjunctiveQuery q = Parse(text);

  Structure d(q.vocab());
  for (int r = 0; r < q.vocab().size(); ++r) {
    int t = ntuples(rng);
    for (int i = 0; i < t; ++i) {
      Structure::Tuple tuple;
      for (int j = 0; j < q.vocab().arity(r); ++j) tuple.push_back(value(rng));
      d.AddTuple(r, tuple);
    }
  }
  auto dp = CountHomomorphismsTreewidth(q, d);
  ASSERT_TRUE(dp.has_value()) << q.ToString();
  EXPECT_EQ(*dp, CountHomomorphismsBacktracking(q, d))
      << q.ToString() << "\n"
      << d.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreementSweep, ::testing::Range(1, 60));

}  // namespace
}  // namespace bagcq::cq
