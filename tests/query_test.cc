#include "cq/query.h"

#include <limits>

#include <gtest/gtest.h>

#include "cq/parser.h"
#include "cq/structure.h"
#include "graph/chordal.h"
#include "cq/yannakakis.h"

namespace bagcq::cq {
namespace {

using util::VarSet;

ConjunctiveQuery Parse(const std::string& text) {
  return ParseQuery(text).ValueOrDie();
}

TEST(VocabularyTest, Basics) {
  Vocabulary v;
  int r = v.AddRelation("R", 2);
  int s = v.AddRelation("S", 1);
  EXPECT_EQ(v.size(), 2);
  EXPECT_EQ(v.Find("R"), r);
  EXPECT_EQ(v.Find("S"), s);
  EXPECT_EQ(v.Find("T"), -1);
  EXPECT_EQ(v.arity(r), 2);
  EXPECT_EQ(v.name(s), "S");
  EXPECT_EQ(v.ToString(), "R/2, S/1");
}

TEST(VocabularyTest, FindOrAddDetectsArityClash) {
  Vocabulary v;
  v.AddRelation("R", 2);
  EXPECT_TRUE(v.FindOrAdd("R", 2).ok());
  EXPECT_FALSE(v.FindOrAdd("R", 3).ok());
  auto added = v.FindOrAdd("S", 1);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(v.arity(*added), 1);
}

TEST(QueryTest, BuildAndRender) {
  Vocabulary v;
  int r = v.AddRelation("R", 2);
  ConjunctiveQuery q(v);
  int x = q.AddVariable("x");
  int y = q.AddVariable("y");
  q.AddAtom(r, {x, y});
  q.AddAtom(r, {y, x});
  EXPECT_EQ(q.num_vars(), 2);
  EXPECT_EQ(q.num_atoms(), 2);
  EXPECT_TRUE(q.IsBoolean());
  EXPECT_TRUE(q.AllVarsUsed());
  EXPECT_EQ(q.ToString(), "Q() :- R(x,y), R(y,x).");
}

TEST(QueryTest, RepeatedVariablesInAtom) {
  ConjunctiveQuery q = Parse("R(x,x,y)");
  ASSERT_EQ(q.num_atoms(), 1);
  EXPECT_EQ(q.atoms()[0].vars.size(), 3u);
  EXPECT_EQ(q.atoms()[0].VarSet_().size(), 2);
}

TEST(QueryTest, GaifmanGraph) {
  ConjunctiveQuery q = Parse("R(x,y), R(y,z)");
  graph::Graph g = q.GaifmanGraph();
  int x = q.FindVariable("x"), y = q.FindVariable("y"), z = q.FindVariable("z");
  EXPECT_TRUE(g.HasEdge(x, y));
  EXPECT_TRUE(g.HasEdge(y, z));
  EXPECT_FALSE(g.HasEdge(x, z));
  // The triangle query is chordal; C4 is not.
  EXPECT_TRUE(graph::IsChordal(
      Parse("R(x,y), R(y,z), R(z,x)").GaifmanGraph()));
  EXPECT_FALSE(graph::IsChordal(
      Parse("R(a,b), R(b,c), R(c,d), R(d,a)").GaifmanGraph()));
}

TEST(QueryTest, AcyclicityClassics) {
  EXPECT_TRUE(IsAcyclic(Parse("R(x,y), S(y,z)")));
  EXPECT_FALSE(IsAcyclic(Parse("R(x,y), R(y,z), R(z,x)")));
  // Example 4.3's Q2 (fork) is acyclic.
  EXPECT_TRUE(IsAcyclic(Parse("R(y1,y2), R(y1,y3)")));
  // A triangle covered by a big atom is acyclic.
  EXPECT_TRUE(IsAcyclic(Parse("R(x,y), R(y,z), R(z,x), T(x,y,z)")));
}

TEST(ParserTest, HeadAndBody) {
  ConjunctiveQuery q = Parse("Q(x, z) :- P(x), S(u, x), S(v, z), R(z).");
  EXPECT_EQ(q.head().size(), 2u);
  EXPECT_EQ(q.num_atoms(), 4);
  EXPECT_EQ(q.num_vars(), 4);
  EXPECT_FALSE(q.IsBoolean());
  EXPECT_EQ(q.vocab().Find("S"), 1);
  EXPECT_EQ(q.vocab().arity(q.vocab().Find("S")), 2);
}

TEST(ParserTest, BooleanBodyOnly) {
  ConjunctiveQuery q = Parse("R(x,y), R(y,x)");
  EXPECT_TRUE(q.IsBoolean());
  EXPECT_EQ(q.num_atoms(), 2);
}

TEST(ParserTest, PrimedVariables) {
  ConjunctiveQuery q = Parse("A(x1, x2), A(x1', x2')");
  EXPECT_EQ(q.num_vars(), 4);
  EXPECT_GE(q.FindVariable("x1'"), 0);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("R(x,y").ok());
  EXPECT_FALSE(ParseQuery("R(x,), S(y)").ok());
  EXPECT_FALSE(ParseQuery("R(x,y), R(x)").ok());  // arity clash
  EXPECT_FALSE(ParseQuery("Q(w) :- R(x,y).").ok());  // head var not in body
  EXPECT_FALSE(ParseQuery("R(x,y) garbage").ok());
  EXPECT_FALSE(ParseQuery("123(x)").ok());
}

TEST(ParserTest, StructureRoundTrip) {
  Structure d = ParseStructure("R = {(1,2), (2,3)}; S = {(1)}").ValueOrDie();
  EXPECT_EQ(d.vocab().ToString(), "R/2, S/1");
  EXPECT_EQ(d.tuples(0).size(), 2u);
  EXPECT_TRUE(d.Contains(0, {1, 2}));
  EXPECT_FALSE(d.Contains(0, {2, 1}));
  EXPECT_EQ(d.ActiveDomain(), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(d.TotalTuples(), 3);
}

TEST(ParserTest, StructureErrors) {
  EXPECT_FALSE(ParseStructure("R = {(1,2), (3)}").ok());  // mixed arity
  EXPECT_FALSE(ParseStructure("R = (1,2)").ok());
  EXPECT_FALSE(ParseStructure("R = {(1,x)}").ok());
  EXPECT_FALSE(ParseStructure("= {(1)}").ok());
}

TEST(ParserTest, OutOfRangeIntegersAreParseErrors) {
  // A value beyond int is a ParseError, not an uncaught exception.
  for (const char* text : {"R = {(99999999999)}", "R = {(1,-99999999999)}",
                           "R = {(2147483648)}"}) {
    auto d = ParseStructure(text);
    ASSERT_FALSE(d.ok()) << text;
    EXPECT_EQ(d.status().code(), util::StatusCode::kParseError) << text;
  }
  // The ends of the int range parse, and so does a leading '+'.
  Structure d =
      ParseStructure("R = {(2147483647, -2147483648, +7)}").ValueOrDie();
  EXPECT_TRUE(d.Contains(0, {std::numeric_limits<int>::max(),
                             std::numeric_limits<int>::min(), 7}));
  EXPECT_FALSE(ParseStructure("R = {(+-7)}").ok());
}

TEST(ParserTest, EmptyRelationAdoptsKnownArity) {
  Vocabulary v;
  v.AddRelation("R", 2);
  Structure d = ParseStructureWithVocabulary("R = {}", v).ValueOrDie();
  EXPECT_EQ(d.vocab().arity(0), 2);
  EXPECT_TRUE(d.tuples(0).empty());
}

TEST(ParserTest, SharedVocabularyAcrossQueries) {
  ConjunctiveQuery q1 = Parse("A(x,y), B(x,y)");
  auto q2 = ParseQueryWithVocabulary("B(u,v), A(u,u)", q1.vocab());
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(q1.vocab() == q2->vocab());
}

TEST(CanonicalTest, RoundTrip) {
  ConjunctiveQuery q = Parse("R(x,y), R(y,z), S(x)");
  Structure a = CanonicalStructure(q);
  EXPECT_EQ(a.TotalTuples(), 3);
  ConjunctiveQuery back = StructureToQuery(a);
  EXPECT_EQ(back.num_vars(), q.num_vars());
  EXPECT_EQ(back.num_atoms(), q.num_atoms());
  // Canonical structure of the round-trip is isomorphic; tuple counts agree.
  Structure again = CanonicalStructure(back);
  for (int r = 0; r < a.vocab().size(); ++r) {
    EXPECT_EQ(again.tuples(r).size(), a.tuples(r).size());
  }
}

TEST(CanonicalTest, RepeatedVarsPreserved) {
  ConjunctiveQuery q = Parse("R(x,x)");
  Structure a = CanonicalStructure(q);
  EXPECT_TRUE(a.Contains(0, {0, 0}));
}

}  // namespace
}  // namespace bagcq::cq
