#include "core/witness.h"

#include <gtest/gtest.h>

#include "core/containment_inequality.h"
#include "cq/bag_semantics.h"
#include "cq/homomorphism.h"
#include "cq/parser.h"
#include "entropy/functions.h"

namespace bagcq::core {
namespace {

using entropy::Relation;
using entropy::SetFunction;
using entropy::StepFunction;
using util::Rational;
using util::VarSet;

cq::ConjunctiveQuery Parse(const std::string& text) {
  return cq::ParseQuery(text).ValueOrDie();
}

TEST(InduceDatabaseTest, ProjectsOntoAtoms) {
  // Q1 = R(x,x,y) with P = {(a,b)} gives R = {(a,a,b)} (the Section 3.1
  // generalized-projection example), with annotated values.
  cq::ConjunctiveQuery q1 = Parse("R(x,x,y)");
  Relation p(2);
  p.AddTuple({0, 1});
  cq::Structure d = InduceDatabase(q1, p);
  ASSERT_EQ(d.tuples(0).size(), 1u);
  const auto& row = d.tuples(0)[0];
  EXPECT_EQ(row[0], row[1]);  // repeated variable x
  EXPECT_NE(row[0], row[2]);
  // Annotation: x-values and y-values live in disjoint ranges even when the
  // raw values coincide.
  Relation same_values(2);
  same_values.AddTuple({0, 0});
  cq::Structure d2 = InduceDatabase(q1, same_values);
  const auto& row2 = d2.tuples(0)[0];
  EXPECT_NE(row2[0], row2[2]);  // ("x",0) vs ("y",0)
}

TEST(InduceDatabaseTest, FootnoteSevenExample) {
  // Footnote 7: Q1 = R(X,X), R(X,Y), S(X,Y) with P = {(a,a)}. Without the
  // annotation hom(Q2,...) would break; with it, R gets two tuples.
  cq::ConjunctiveQuery q1 = Parse("R(x,x), R(x,y), S(x,y)");
  Relation p(2);
  p.AddTuple({7, 7});
  cq::Structure d = InduceDatabase(q1, p);
  EXPECT_EQ(d.tuples(q1.vocab().Find("R")).size(), 2u);
  EXPECT_EQ(d.tuples(q1.vocab().Find("S")).size(), 1u);
  // P embeds into hom(Q1, D) (Fact 3.2).
  EXPECT_GE(cq::CountHomomorphisms(q1, d), p.size());
}

TEST(WitnessTest, Example35FromHandBuiltNormalFunction) {
  // The paper's counterexample: h = h_{W1} + h_{W2} with W1 = {x1',x2'},
  // W2 = {x1,x2} — the entropy of P = {(u,u,v,v)}.
  cq::ConjunctiveQuery q1 = Parse(
      "A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')");
  cq::ConjunctiveQuery q2 =
      cq::ParseQueryWithVocabulary("A(y1,y2), B(y1,y3), C(y4,y2)", q1.vocab())
          .ValueOrDie();
  auto inequality = BuildContainmentInequality(q1, q2).ValueOrDie();
  ASSERT_EQ(inequality.homs.size(), 2u);

  const int n = 4;
  VarSet w1 = VarSet::Of({2, 3});  // {x1', x2'} (parse order x1,x2,x1',x2')
  VarSet w2 = VarSet::Of({0, 1});
  SetFunction h = StepFunction(n, w1) + StepFunction(n, w2);
  // It violates both branches: E_φ(h) = 1 < 2 = h(V).
  for (const auto& branch : inequality.branches) {
    EXPECT_EQ(branch.Evaluate(h), Rational(-1));
  }

  auto witness = BuildWitnessFromNormal(q1, q2, inequality, h).ValueOrDie();
  EXPECT_TRUE(witness.symbolic_certificate_holds);
  EXPECT_TRUE(witness.counts_verified);
  EXPECT_GT(witness.hom_q1, witness.hom_q2);
  // Factors are the two step relations, scaled to beat log2(2 homs) + 1:
  // k = 2 gives levels 4 and |P| = 2^4.
  ASSERT_EQ(witness.factor_levels.size(), 2u);
  EXPECT_TRUE(witness.factor_levels.count(w1));
  EXPECT_TRUE(witness.factor_levels.count(w2));
  EXPECT_EQ(witness.relation.size(),
            witness.factor_levels[w1] * witness.factor_levels[w2]);
  // |hom(Q1,D)| = |P|^... at least |P|; and the database refutes containment.
  EXPECT_GE(witness.hom_q1, witness.relation.size());
  EXPECT_FALSE(cq::BagLeqOn(q1, q2, witness.database));
}

TEST(WitnessTest, Example35WitnessAtScale8FromDecomposition) {
  // h = 8·(h_{x1x2} + h_{x1'x2'}) already clears the Lemma 4.8 gap, so the
  // scale is 1: two factors of 2^8 levels and |P| = 2^16. Each of A, B, C
  // then holds 512 annotated diagonal pairs, so |hom(Q1,D)| = 512² while
  // every homomorphism of Q2 is fixed by its A-tuple.
  cq::ConjunctiveQuery q1 = Parse(
      "A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')");
  cq::ConjunctiveQuery q2 =
      cq::ParseQueryWithVocabulary("A(y1,y2), B(y1,y3), C(y4,y2)", q1.vocab())
          .ValueOrDie();
  auto inequality = BuildContainmentInequality(q1, q2).ValueOrDie();
  const VarSet w1 = VarSet::Of({0, 1});
  const VarSet w2 = VarSet::Of({2, 3});
  auto witness = BuildWitnessFromNormal(q1, q2, inequality,
                                        {{w1, Rational(8)}, {w2, Rational(8)}})
                     .ValueOrDie();
  EXPECT_EQ(witness.relation.size(), 65'536);
  EXPECT_EQ(witness.lhs_log2, 16);
  EXPECT_EQ(witness.factor_levels.at(w1), 256);
  EXPECT_EQ(witness.factor_levels.at(w2), 256);
  EXPECT_TRUE(witness.counts_verified);
  EXPECT_EQ(witness.hom_q1, 262'144);
  EXPECT_EQ(witness.hom_q2, 512);
}

TEST(WitnessTest, PaperScaleWitnessMatchesExample35Numbers) {
  // The paper's illustration uses the *unannotated* database: with
  // P = {(u,u,v,v) : u,v ∈ [2]}, A = B = C = {(u,u)} and
  // |P| = n² = 4 > n = 2 = |hom(Q2, D)|.
  cq::ConjunctiveQuery q1 = Parse(
      "A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')");
  cq::ConjunctiveQuery q2 =
      cq::ParseQueryWithVocabulary("A(y1,y2), B(y1,y3), C(y4,y2)", q1.vocab())
          .ValueOrDie();
  // The paper's P draws u and v from the same [n], so build it literally.
  Relation p(4);
  for (int u = 0; u < 2; ++u) {
    for (int v = 0; v < 2; ++v) p.AddTuple({u, u, v, v});
  }
  cq::Structure d = InduceDatabase(q1, p, /*annotate=*/false);
  EXPECT_EQ(d.tuples(q1.vocab().Find("A")).size(), 2u);  // the diagonal
  EXPECT_EQ(cq::CountHomomorphisms(q1, d), 4);
  EXPECT_EQ(cq::CountHomomorphisms(q2, d), 2);
  // The annotated variant (Theorem 4.4's construction) separates the primed
  // and unprimed columns; both still refute containment at scale k = 2.
  cq::Structure annotated = InduceDatabase(q1, p, /*annotate=*/true);
  EXPECT_EQ(cq::CountHomomorphisms(q1, annotated), 16);
  EXPECT_EQ(cq::CountHomomorphisms(q2, annotated), 4);
}

TEST(WitnessTest, ProductWitnessCannotWorkForExample35) {
  // Theorem 3.4(i)/Example 3.5: no *product* relation witnesses Q1 ⋢ Q2.
  // Check all product relations with factor sizes up to 3.
  cq::ConjunctiveQuery q1 = Parse(
      "A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')");
  cq::ConjunctiveQuery q2 =
      cq::ParseQueryWithVocabulary("A(y1,y2), B(y1,y3), C(y4,y2)", q1.vocab())
          .ValueOrDie();
  for (int s1 = 1; s1 <= 3; ++s1) {
    for (int s2 = 1; s2 <= 3; ++s2) {
      for (int s3 = 1; s3 <= 3; ++s3) {
        for (int s4 = 1; s4 <= 3; ++s4) {
          Relation p = Relation::ProductRelation({s1, s2, s3, s4});
          cq::Structure d = InduceDatabase(q1, p);
          EXPECT_GE(cq::CountHomomorphisms(q2, d),
                    static_cast<int64_t>(p.size()))
              << s1 << s2 << s3 << s4;
        }
      }
    }
  }
}

TEST(WitnessTest, RespectsSizeLimit) {
  cq::ConjunctiveQuery q1 = Parse(
      "A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')");
  cq::ConjunctiveQuery q2 =
      cq::ParseQueryWithVocabulary("A(y1,y2), B(y1,y3), C(y4,y2)", q1.vocab())
          .ValueOrDie();
  auto inequality = BuildContainmentInequality(q1, q2).ValueOrDie();
  SetFunction h =
      StepFunction(4, VarSet::Of({2, 3})) + StepFunction(4, VarSet::Of({0, 1}));
  WitnessOptions tiny;
  tiny.max_tuples = 2;
  auto witness = BuildWitnessFromNormal(q1, q2, inequality, h, tiny);
  ASSERT_FALSE(witness.ok());
  EXPECT_EQ(witness.status().code(), util::StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace bagcq::core
