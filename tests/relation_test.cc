#include "entropy/relation.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "entropy/functions.h"
#include "entropy/log_rational.h"

namespace bagcq::entropy {
namespace {

using util::Rational;
using util::VarSet;

TEST(RelationTest, DeduplicatesAndSorts) {
  Relation p(2);
  p.AddTuple({1, 0});
  p.AddTuple({0, 1});
  p.AddTuple({1, 0});
  EXPECT_EQ(p.size(), 2);
  EXPECT_EQ(p.tuples()[0], (Relation::Tuple{0, 1}));
  EXPECT_EQ(p.tuples()[1], (Relation::Tuple{1, 0}));
}

TEST(RelationTest, DomainProductEqualsFromTuplesInEitherFactorOrder) {
  // With the {x0,x1} factor first, the nested loop over the two factors
  // emits the product's tuples out of lexicographic order.
  const Relation a = Relation::StepRelation(4, VarSet::Of({0, 1}), 16);
  const Relation b = Relation::StepRelation(4, VarSet::Of({2, 3}), 16);
  for (const auto& [f, g] : {std::pair(a, b), std::pair(b, a)}) {
    const int stride = 16;  // one past the largest value in g
    std::vector<Relation::Tuple> tuples;
    for (const Relation::Tuple& x : f.tuples()) {
      for (const Relation::Tuple& y : g.tuples()) {
        Relation::Tuple t(4);
        for (int i = 0; i < 4; ++i) t[i] = x[i] * stride + y[i];
        tuples.push_back(std::move(t));
      }
    }
    const Relation p = f.DomainProduct(g);
    EXPECT_EQ(p.size(), 256);
    EXPECT_EQ(p.tuples(), Relation::FromTuples(4, tuples).tuples());
    EXPECT_TRUE(std::is_sorted(p.tuples().begin(), p.tuples().end()));
  }
}

TEST(RelationTest, ProjectionCounts) {
  Relation p = Relation::FromTuples(2, {{0, 0}, {0, 1}, {1, 0}});
  auto counts = p.ProjectionCounts(VarSet::Of({0}));
  EXPECT_EQ(counts[{0}], 2);
  EXPECT_EQ(counts[{1}], 1);
  EXPECT_EQ(p.ProjectionSize(VarSet::Of({0})), 2);
  EXPECT_EQ(p.ProjectionSize(VarSet::Full(2)), 3);
}

TEST(RelationTest, StepRelationMatchesPaper) {
  // P_W = {f1, f2} with f2 = 1 on W, fresh value elsewhere (Section 3.2;
  // we use 0-based values).
  Relation p = Relation::StepRelation(3, VarSet::Of({1}));
  EXPECT_EQ(p.size(), 2);
  EXPECT_TRUE(p.IsTotallyUniform());
  // Entropy of P_W is the step function h_W.
  LogSetFunction h(p);
  SetFunction step = StepFunction(3, VarSet::Of({1}));
  ForEachSubset(VarSet::Full(3), [&](VarSet s) {
    if (s.empty()) return;
    EXPECT_DOUBLE_EQ(h[s].ToDouble(), step[s].ToDouble())
        << s.ToString();
  });
}

TEST(RelationTest, StepRelationWithLevels) {
  // levels = 4 gives entropy 2·h_W.
  Relation p = Relation::StepRelation(2, VarSet::Of({0}), 4);
  EXPECT_EQ(p.size(), 4);
  LogSetFunction h(p);
  EXPECT_DOUBLE_EQ(h[VarSet::Of({0})].ToDouble(), 0.0);
  EXPECT_DOUBLE_EQ(h[VarSet::Of({1})].ToDouble(), 2.0);
  EXPECT_DOUBLE_EQ(h[VarSet::Full(2)].ToDouble(), 2.0);
}

TEST(RelationTest, ProductRelationEntropyIsModular) {
  Relation p = Relation::ProductRelation({2, 4, 1});
  EXPECT_EQ(p.size(), 8);
  EXPECT_TRUE(p.IsTotallyUniform());
  LogSetFunction h(p);
  EXPECT_DOUBLE_EQ(h[VarSet::Of({0})].ToDouble(), 1.0);
  EXPECT_DOUBLE_EQ(h[VarSet::Of({1})].ToDouble(), 2.0);
  EXPECT_DOUBLE_EQ(h[VarSet::Of({2})].ToDouble(), 0.0);
  EXPECT_DOUBLE_EQ(h[VarSet::Full(3)].ToDouble(), 3.0);
  EXPECT_DOUBLE_EQ(h[VarSet::Of({0, 1})].ToDouble(), 3.0);
}

TEST(RelationTest, DomainProductAddsEntropies) {
  // Definition B.1: entropy of P1 ⊗ P2 is the sum of the entropies.
  Relation p1 = Relation::StepRelation(2, VarSet::Of({0}));
  Relation p2 = Relation::StepRelation(2, VarSet::Of({1}));
  Relation prod = p1.DomainProduct(p2);
  EXPECT_EQ(prod.size(), p1.size() * p2.size());
  LogSetFunction h(prod), h1(p1), h2(p2);
  ForEachSubset(VarSet::Full(2), [&](VarSet s) {
    if (s.empty()) return;
    EXPECT_DOUBLE_EQ(h[s].ToDouble(), h1[s].ToDouble() + h2[s].ToDouble());
  });
  EXPECT_TRUE(prod.IsTotallyUniform());
}

TEST(RelationTest, ParityRelationTotallyUniform) {
  // The parity relation (Example E.2) is totally uniform ("perfectly
  // uniform", even group-characterizable).
  Relation p = Relation::FromTuples(
      3, {{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}});
  EXPECT_TRUE(p.IsTotallyUniform());
  LogSetFunction h(p);
  SetFunction parity = ParityFunction();
  ForEachSubset(VarSet::Full(3), [&](VarSet s) {
    if (s.empty()) return;
    EXPECT_DOUBLE_EQ(h[s].ToDouble(), parity[s].ToDouble());
  });
}

TEST(RelationTest, NonUniformDetected) {
  Relation p = Relation::FromTuples(2, {{0, 0}, {0, 1}, {1, 0}});
  EXPECT_FALSE(p.IsTotallyUniform());
}

TEST(RelationTest, NormalRelationExample35) {
  // P = {(u,u,v,v)} from Example 3.5 as a domain product of two step
  // relations: factors for W1={x1',x2'} and W2={x1,x2}.
  Relation f1 = Relation::StepRelation(4, VarSet::Of({2, 3}));
  Relation f2 = Relation::StepRelation(4, VarSet::Of({0, 1}));
  Relation p = f1.DomainProduct(f2);
  EXPECT_EQ(p.size(), 4);
  EXPECT_TRUE(p.IsTotallyUniform());
  // Column pairs (0,1) and (2,3) are perfectly correlated.
  EXPECT_EQ(p.ProjectionSize(VarSet::Of({0, 1})), 2);
  EXPECT_EQ(p.ProjectionSize(VarSet::Of({0})), 2);
  EXPECT_EQ(p.ProjectionSize(VarSet::Full(4)), 4);
  LogSetFunction h(p);
  EXPECT_DOUBLE_EQ(h[VarSet::Of({0, 1})].ToDouble(), 1.0);
  EXPECT_DOUBLE_EQ(h[VarSet::Full(4)].ToDouble(), 2.0);
}

}  // namespace
}  // namespace bagcq::entropy
