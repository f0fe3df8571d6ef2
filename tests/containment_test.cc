#include "core/decider.h"

#include <gtest/gtest.h>

#include "core/set_containment.h"
#include "cq/bag_semantics.h"
#include "cq/parser.h"
#include "entropy/mobius.h"

namespace bagcq::core {
namespace {

cq::ConjunctiveQuery Parse(const std::string& text) {
  return cq::ParseQuery(text).ValueOrDie();
}

cq::ConjunctiveQuery ParseWith(const std::string& text,
                               const cq::Vocabulary& vocab) {
  return cq::ParseQueryWithVocabulary(text, vocab).ValueOrDie();
}

TEST(DeciderTest, Example43TriangleContainedInFork) {
  // Example 4.3 (Eric Vee): Q1 = triangle, Q2 = fork; Q1 ⪯ Q2.
  cq::ConjunctiveQuery q1 = Parse("R(x1,x2), R(x2,x3), R(x3,x1)");
  cq::ConjunctiveQuery q2 = ParseWith("R(y1,y2), R(y1,y3)", q1.vocab());
  Decision d = DecideBagContainmentWithContext(q1, q2, {}, {}).ValueOrDie();
  EXPECT_EQ(d.verdict, Verdict::kContained) << d.ToString();
  EXPECT_TRUE(d.analysis.chordal);
  EXPECT_TRUE(d.analysis.simple_junction_tree);
  EXPECT_TRUE(d.analysis.acyclic);
  ASSERT_TRUE(d.inequality.has_value());
  EXPECT_EQ(d.inequality->homs.size(), 3u);
  EXPECT_TRUE(d.inequality->simple);
  // λ weights and Shannon certificate come with the verdict.
  ASSERT_TRUE(d.validity.has_value());
  EXPECT_TRUE(d.validity->valid);
  EXPECT_TRUE(d.validity->certificate.has_value());
}

TEST(DeciderTest, Example43ReverseFails) {
  // Fork ⪯ triangle is false; there is no hom triangle → fork at all.
  cq::ConjunctiveQuery q1 = Parse("R(y1,y2), R(y1,y3)");
  cq::ConjunctiveQuery q2 = ParseWith("R(x1,x2), R(x2,x3), R(x3,x1)",
                                      q1.vocab());
  Decision d = DecideBagContainmentWithContext(q1, q2, {}, {}).ValueOrDie();
  EXPECT_EQ(d.verdict, Verdict::kNotContained) << d.ToString();
  ASSERT_TRUE(d.witness.has_value());
  EXPECT_GT(d.witness->hom_q1, d.witness->hom_q2);
}

TEST(DeciderTest, Example35NotContainedWithWitness) {
  // Example 3.5: Q1 ⋢ Q2 with a normal witness (and no product witness).
  cq::ConjunctiveQuery q1 = Parse(
      "A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')");
  cq::ConjunctiveQuery q2 =
      ParseWith("A(y1,y2), B(y1,y3), C(y4,y2)", q1.vocab());
  Decision d = DecideBagContainmentWithContext(q1, q2, {}, {}).ValueOrDie();
  EXPECT_EQ(d.verdict, Verdict::kNotContained) << d.ToString();
  EXPECT_TRUE(d.analysis.decidable());
  ASSERT_TRUE(d.counterexample.has_value());
  EXPECT_TRUE(entropy::IsNormal(*d.counterexample));
  ASSERT_TRUE(d.witness.has_value());
  EXPECT_TRUE(d.witness->counts_verified);
  EXPECT_TRUE(d.witness->symbolic_certificate_holds);
  EXPECT_GT(d.witness->hom_q1, d.witness->hom_q2);
  // The witness database genuinely violates containment.
  EXPECT_FALSE(cq::BagLeqOn(q1, q2, d.witness->database));
}

TEST(DeciderTest, Example35IsSetContainedButNotBagContained) {
  // The separation the paper's introduction turns on.
  cq::ConjunctiveQuery q1 = Parse(
      "A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')");
  cq::ConjunctiveQuery q2 =
      ParseWith("A(y1,y2), B(y1,y3), C(y4,y2)", q1.vocab());
  EXPECT_TRUE(SetContained(q1, q2));
  EXPECT_EQ(DecideBagContainmentWithContext(q1, q2, {}, {}).ValueOrDie().verdict,
            Verdict::kNotContained);
}

TEST(DeciderTest, SelfContainment) {
  for (const char* text :
       {"R(x,y)", "R(x,y), R(y,z)", "R(x,y), R(y,z), R(z,x)", "R(x,x)"}) {
    cq::ConjunctiveQuery q = Parse(text);
    Decision d = DecideBagContainmentWithContext(q, q, {}, {}).ValueOrDie();
    EXPECT_EQ(d.verdict, Verdict::kContained) << text << ": " << d.ToString();
  }
}

TEST(DeciderTest, EmptyHomSetRefutedByCanonicalDatabase) {
  // Q2 = R(x,x) needs a self-loop; Q1 = R(x,y) has none.
  cq::ConjunctiveQuery q1 = Parse("R(x,y)");
  cq::ConjunctiveQuery q2 = ParseWith("R(x,x)", q1.vocab());
  Decision d = DecideBagContainmentWithContext(q1, q2, {}, {}).ValueOrDie();
  EXPECT_EQ(d.verdict, Verdict::kNotContained);
  ASSERT_TRUE(d.witness.has_value());
  EXPECT_EQ(d.witness->hom_q2, 0);
  EXPECT_GE(d.witness->hom_q1, 1);
}

TEST(DeciderTest, PathInLongerPathDirections) {
  // Q1 = 2-path, Q2 = 1-edge: counts satisfy paths2(D) ≤ edges(D)? No:
  // a star has deg² paths — not contained. Conversely 1-edge ⪯ 2-path also
  // fails (graph with isolated edge: 1 edge, 0 2-paths... wait R(x,y),R(y,z)
  // maps x,z freely: an isolated edge a->b gives 2-path count 0? x->y needs
  // R(x,y), y->z needs R(y,z): a->b,b->? none... with loops absent: 0. So
  // edge ⪯ 2-path fails on that database.
  cq::ConjunctiveQuery path2 = Parse("R(x,y), R(y,z)");
  cq::ConjunctiveQuery edge = ParseWith("R(a,b)", path2.vocab());
  Decision d1 = DecideBagContainmentWithContext(path2, edge, {}, {}).ValueOrDie();
  EXPECT_EQ(d1.verdict, Verdict::kNotContained) << d1.ToString();
  ASSERT_TRUE(d1.witness.has_value());
  EXPECT_TRUE(d1.witness->counts_verified);

  Decision d2 = DecideBagContainmentWithContext(edge, path2, {}, {}).ValueOrDie();
  EXPECT_EQ(d2.verdict, Verdict::kNotContained) << d2.ToString();
}

TEST(DeciderTest, ChaudhuriVardiExampleA2EndToEnd) {
  // Example A.2 with heads; containment holds by Cauchy–Schwarz and the
  // decider proves it through Lemma A.1 + Theorem 3.1.
  cq::ConjunctiveQuery q1 = Parse("Q(x,z) :- P(x), S(u,x), S(v,z), R(z).");
  cq::ConjunctiveQuery q2 =
      ParseWith("Q(x,z) :- P(x), S(u,y), S(v,y), R(z).", q1.vocab());
  Decision d = DecideBagContainmentWithContext(q1, q2, {}, {}).ValueOrDie();
  EXPECT_EQ(d.verdict, Verdict::kContained) << d.ToString();
}

TEST(DeciderTest, ChaudhuriVardiReverseFails) {
  cq::ConjunctiveQuery q1 = Parse("Q(x,z) :- P(x), S(u,y), S(v,y), R(z).");
  cq::ConjunctiveQuery q2 =
      ParseWith("Q(x,z) :- P(x), S(u,x), S(v,z), R(z).", q1.vocab());
  Decision d = DecideBagContainmentWithContext(q1, q2, {}, {}).ValueOrDie();
  EXPECT_EQ(d.verdict, Verdict::kNotContained) << d.ToString();
  ASSERT_TRUE(d.witness.has_value());
  EXPECT_TRUE(d.witness->counts_verified);
}

TEST(DeciderTest, ProjectionFreeQueriesAlwaysDecided) {
  // With no existential variables both directions are decidable [ADG10];
  // our decider handles these through the same machinery.
  cq::ConjunctiveQuery q1 = Parse("Q(x,y) :- R(x,y), R(y,x).");
  cq::ConjunctiveQuery q2 = ParseWith("Q(x,y) :- R(x,y).", q1.vocab());
  Decision d = DecideBagContainmentWithContext(q1, q2, {}, {}).ValueOrDie();
  EXPECT_EQ(d.verdict, Verdict::kContained) << d.ToString();
  Decision rev = DecideBagContainmentWithContext(q2, q1, {}, {}).ValueOrDie();
  EXPECT_EQ(rev.verdict, Verdict::kNotContained) << rev.ToString();
}

TEST(DeciderTest, BagContainmentImpliesSetContainment) {
  // Soundness cross-check on a batch of Boolean pairs.
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"R(x,y)", "R(a,b)"},
      {"R(x,y), R(y,z)", "R(a,b)"},
      {"R(x,y), R(y,x)", "R(a,a)"},
      {"R(x,x)", "R(a,b)"},
      {"R(x,y), R(y,z), R(z,x)", "R(y1,y2), R(y1,y3)"},
  };
  for (const auto& [t1, t2] : pairs) {
    cq::ConjunctiveQuery q1 = Parse(t1);
    cq::ConjunctiveQuery q2 = ParseWith(t2, q1.vocab());
    Decision d = DecideBagContainmentWithContext(q1, q2, {}, {}).ValueOrDie();
    if (d.verdict == Verdict::kContained) {
      EXPECT_TRUE(SetContained(q1, q2)) << t1 << " vs " << t2;
    }
    if (!SetContained(q1, q2)) {
      EXPECT_NE(d.verdict, Verdict::kContained) << t1 << " vs " << t2;
    }
  }
}

TEST(DeciderTest, VerdictsConsistentWithBruteForce) {
  // Ground truth on small instances: whenever the decider says Contained,
  // exhaustive domain-2 search finds no counterexample; when NotContained,
  // the produced witness violates.
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"R(x,y)", "R(a,b)"},
      {"R(x,y), R(u,v)", "R(a,b)"},
      {"R(x,y)", "R(a,b), R(c,d)"},
      {"R(x,y), R(y,z)", "R(a,b), R(b,c)"},
      {"R(x,x)", "R(a,b)"},
      {"R(x,y), R(y,x)", "R(a,b)"},
  };
  for (const auto& [t1, t2] : pairs) {
    cq::ConjunctiveQuery q1 = Parse(t1);
    cq::ConjunctiveQuery q2 = ParseWith(t2, q1.vocab());
    Decision d = DecideBagContainmentWithContext(q1, q2, {}, {}).ValueOrDie();
    auto brute = cq::SearchBagCounterexample(q1, q2);
    if (d.verdict == Verdict::kContained) {
      EXPECT_FALSE(brute.has_value()) << t1 << " vs " << t2;
    } else if (d.verdict == Verdict::kNotContained) {
      ASSERT_TRUE(d.witness.has_value());
      EXPECT_FALSE(cq::BagLeqOn(q1, q2, d.witness->database))
          << t1 << " vs " << t2;
    }
  }
}

TEST(DeciderTest, MismatchedVocabularyRejected) {
  cq::ConjunctiveQuery q1 = Parse("R(x,y)");
  cq::ConjunctiveQuery q2 = Parse("S(x,y)");
  EXPECT_FALSE(DecideBagContainmentWithContext(q1, q2, {}, {}).ok());
}

TEST(DeciderTest, MismatchedHeadArityRejected) {
  cq::ConjunctiveQuery q1 = Parse("Q(x) :- R(x,y).");
  cq::ConjunctiveQuery q2 = ParseWith("Q(x,y) :- R(x,y).", q1.vocab());
  EXPECT_FALSE(DecideBagContainmentWithContext(q1, q2, {}, {}).ok());
}

}  // namespace
}  // namespace bagcq::core
