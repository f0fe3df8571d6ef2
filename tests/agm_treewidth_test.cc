#include <random>

#include <gtest/gtest.h>

#include "cq/agm.h"
#include "cq/homomorphism.h"
#include "cq/parser.h"
#include "cq/treewidth_count.h"

namespace bagcq::cq {
namespace {

using util::Rational;

ConjunctiveQuery Parse(const std::string& text) {
  return ParseQuery(text).ValueOrDie();
}

Structure ParseDb(const std::string& text, const Vocabulary& vocab) {
  return ParseStructureWithVocabulary(text, vocab).ValueOrDie();
}

TEST(TreewidthCountTest, TriangleOnTriangle) {
  ConjunctiveQuery q = Parse("R(x,y), R(y,z), R(z,x)");
  Structure d = ParseDb("R = {(1,2),(2,3),(3,1)}", q.vocab());
  auto count = CountHomomorphismsTreewidth(q, d);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, 3);
  EXPECT_EQ(*count, CountHomomorphismsBacktracking(q, d));
}

TEST(TreewidthCountTest, FourCycle) {
  // 4-cycle query (treewidth 2 after triangulation).
  ConjunctiveQuery q = Parse("R(a,b), R(b,c), R(c,d), R(d,a)");
  Structure d = ParseDb("R = {(1,2),(2,1),(1,1),(2,3),(3,1)}", q.vocab());
  auto count = CountHomomorphismsTreewidth(q, d);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, CountHomomorphismsBacktracking(q, d));
}

TEST(TreewidthCountTest, MatchesYannakakisOnAcyclic) {
  // An α-acyclic query's bags are its atoms: the DP is Yannakakis' count,
  // (x,y,z) ∈ {(1,2,5), (2,2,5), (3,1,5)}.
  ConjunctiveQuery q = Parse("R(x,y), S(y,z), T(z)");
  Structure d = ParseDb(
      "R = {(1,2),(2,2),(3,1)}; S = {(2,5),(2,6),(1,5)}; T = {(5),(7)}",
      q.vocab());
  auto tw = CountHomomorphismsTreewidth(q, d);
  ASSERT_TRUE(tw.has_value());
  EXPECT_EQ(*tw, 3);
  EXPECT_EQ(*tw, CountHomomorphismsBacktracking(q, d));
}

TEST(TreewidthCountTest, RepeatedVariablesAndLoops) {
  ConjunctiveQuery q = Parse("R(x,x), R(x,y)");
  Structure d = ParseDb("R = {(1,1),(1,2),(2,3)}", q.vocab());
  auto count = CountHomomorphismsTreewidth(q, d);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, CountHomomorphismsBacktracking(q, d));  // x=1, y ∈ {1,2}
  EXPECT_EQ(*count, 2);
}

TEST(TreewidthCountTest, FiveCycleBagVariableWithoutAtoms) {
  // Any minimal triangulation of the 5-cycle has three bags of three; the
  // middle one holds a single cycle edge, so its third variable is mentioned
  // by no atom placed there and ranges over its candidate values.
  ConjunctiveQuery q = Parse("R(a,b), R(b,c), R(c,d), R(d,e), R(e,a)");
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> value(1, 4);
    Structure d(q.vocab());
    for (int i = 0; i < 10; ++i) d.AddTuple(0, {value(rng), value(rng)});
    auto count = CountHomomorphismsTreewidth(q, d);
    ASSERT_TRUE(count.has_value());
    EXPECT_EQ(*count, CountHomomorphismsBacktracking(q, d)) << d.ToString();
  }
  // The directed 5-cycle maps onto itself in 5 rotations.
  Structure c5 = ParseDb("R = {(1,2),(2,3),(3,4),(4,5),(5,1)}", q.vocab());
  EXPECT_EQ(CountHomomorphismsTreewidth(q, c5), 5);
}

TEST(TreewidthCountTest, OverflowReturnsNulloptInsteadOfWrapping) {
  // 600^7 > 2^63: seven disjoint components multiply past int64...
  ConjunctiveQuery unary =
      Parse("U(a), U(b), U(c), U(d), U(e), U(f), U(g)");
  Structure d(unary.vocab());
  for (int i = 0; i < 600; ++i) d.AddTuple(0, {i});
  EXPECT_FALSE(CountHomomorphismsTreewidth(unary, d).has_value());
  // ...and so does a connected star, whose leaf messages multiply into one
  // bag's rows before those sum. One component fewer still fits: 600^6 is
  // counted exactly.
  ConjunctiveQuery star = Parse(
      "S(a,b), S(a,c), S(a,d), S(a,e), S(a,f), S(a,g), S(a,h)");
  Structure s(star.vocab());
  for (int i = 0; i < 600; ++i) s.AddTuple(0, {0, i});
  EXPECT_FALSE(CountHomomorphismsTreewidth(star, s).has_value());
  ConjunctiveQuery six = Parse("U(a), U(b), U(c), U(d), U(e), U(f)");
  EXPECT_EQ(CountHomomorphismsTreewidth(six, d),
            int64_t{600} * 600 * 600 * 600 * 600 * 600);
}

TEST(TreewidthCountTest, EmptyDatabase) {
  ConjunctiveQuery q = Parse("R(x,y)");
  Structure d(q.vocab());
  EXPECT_EQ(*CountHomomorphismsTreewidth(q, d), 0);
}

TEST(TreewidthCountTest, SizeGuardTriggers) {
  ConjunctiveQuery q = Parse("R(x,y), R(y,z), R(z,x)");
  Structure d(q.vocab());
  for (int i = 0; i < 60; ++i) d.AddTuple(0, {i, (i + 1) % 60});
  TreewidthCountOptions tiny;
  tiny.max_bag_assignments = 100;  // the bag's join bound 60^2 blows past
  EXPECT_FALSE(CountHomomorphismsTreewidth(q, d, tiny).has_value());
}

// The junction-tree DP against the backtracking oracle: random cyclic-or-not
// queries on random data.
class EngineTriangulationSweep : public ::testing::TestWithParam<int> {};

TEST_P(EngineTriangulationSweep, TreewidthMatchesBacktracking) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> value(1, 3);
  std::uniform_int_distribution<int> shape(0, 3);
  const char* queries[] = {
      "R(x,y), R(y,z), R(z,x)",                 // triangle
      "R(a,b), R(b,c), R(c,d), R(d,a)",         // C4
      "R(x,y), R(y,z), R(z,w)",                 // path
      "R(x,y), R(y,z), R(z,x), R(x,w)",         // triangle + pendant
  };
  ConjunctiveQuery q = Parse(queries[shape(rng)]);
  Structure d(q.vocab());
  int tuples = 3 + static_cast<int>(rng() % 8);
  for (int i = 0; i < tuples; ++i) d.AddTuple(0, {value(rng), value(rng)});
  auto tw = CountHomomorphismsTreewidth(q, d);
  ASSERT_TRUE(tw.has_value());
  EXPECT_EQ(*tw, CountHomomorphismsBacktracking(q, d))
      << q.ToString() << d.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineTriangulationSweep,
                         ::testing::Range(1, 40));

TEST(AgmTest, TriangleBoundIsThreeHalvesPower) {
  // AGM for the triangle: |hom| ≤ m^{3/2} with x = (1/2,1/2,1/2).
  ConjunctiveQuery q = Parse("R(x,y), R(y,z), R(z,x)");
  Structure d = ParseDb("R = {(1,2),(2,3),(3,1),(1,3),(3,2),(2,1)}",
                        q.vocab());
  auto bound = ComputeAgmBound(q, d).ValueOrDie();
  Rational total;
  for (const Rational& x : bound.cover) total += x;
  EXPECT_EQ(total, Rational(3, 2));  // fractional edge cover number of K3
  int64_t hom = CountHomomorphisms(q, d);
  EXPECT_TRUE(AgmBoundHolds(bound, hom));
  // m = 6: bound ≈ 6^{3/2} ≈ 14.7, hom = 6 rotations-with-orientation... at
  // least the bound is comfortably above the true count.
  EXPECT_GT(bound.bound_approx, static_cast<double>(hom) - 1e-9);
}

TEST(AgmTest, PathCoverNumberIsTwo) {
  ConjunctiveQuery q = Parse("R(x,y), S(y,z)");
  Structure d = ParseDb("R = {(1,2),(2,3)}; S = {(2,4),(3,4)}", q.vocab());
  auto bound = ComputeAgmBound(q, d).ValueOrDie();
  Rational total;
  for (const Rational& x : bound.cover) total += x;
  EXPECT_EQ(total, Rational(2));  // both atoms needed fully
  EXPECT_TRUE(AgmBoundHolds(bound, CountHomomorphisms(q, d)));
}

TEST(AgmTest, EmptyRelationGivesZeroCount) {
  ConjunctiveQuery q = Parse("R(x,y), S(y)");
  Structure d = ParseDb("R = {(1,2)}; S = {}", q.vocab());
  auto bound = ComputeAgmBound(q, d).ValueOrDie();
  EXPECT_EQ(CountHomomorphisms(q, d), 0);
  EXPECT_TRUE(AgmBoundHolds(bound, 0));
}

TEST(AgmTest, CoverIsFeasible) {
  ConjunctiveQuery q = Parse("R(x,y), R(y,z), S(z,w), S(w,x)");
  Structure d = ParseDb("R = {(1,2),(2,3)}; S = {(3,4),(4,1),(4,4)}",
                        q.vocab());
  auto bound = ComputeAgmBound(q, d).ValueOrDie();
  // Feasibility: every variable covered with total weight >= 1.
  for (int v = 0; v < q.num_vars(); ++v) {
    Rational total;
    for (int a = 0; a < q.num_atoms(); ++a) {
      if (q.atoms()[a].VarSet_().Contains(v)) total += bound.cover[a];
    }
    EXPECT_GE(total, Rational(1)) << "variable " << q.var_name(v);
  }
  EXPECT_TRUE(AgmBoundHolds(bound, CountHomomorphisms(q, d)));
}

// Property sweep: the AGM bound is never violated.
class AgmSweep : public ::testing::TestWithParam<int> {};

TEST_P(AgmSweep, BoundAlwaysHolds) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> value(1, 4);
  const char* queries[] = {
      "R(x,y), R(y,z), R(z,x)",
      "R(x,y), S(y,z)",
      "R(a,b), R(b,c), R(c,d), R(d,a)",
      "R(x,y), S(y,z), R(z,x)",
  };
  ConjunctiveQuery q = Parse(queries[GetParam() % 4]);
  Structure d(q.vocab());
  for (int r = 0; r < q.vocab().size(); ++r) {
    int tuples = 1 + static_cast<int>(rng() % 10);
    for (int i = 0; i < tuples; ++i) {
      Structure::Tuple t;
      for (int j = 0; j < q.vocab().arity(r); ++j) t.push_back(value(rng));
      d.AddTuple(r, t);
    }
  }
  auto bound = ComputeAgmBound(q, d).ValueOrDie();
  EXPECT_TRUE(AgmBoundHolds(bound, CountHomomorphisms(q, d)))
      << q.ToString() << " on " << d.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AgmSweep, ::testing::Range(1, 40));

}  // namespace
}  // namespace bagcq::cq
