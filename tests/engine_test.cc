#include "api/engine.h"

#include <gtest/gtest.h>

#include "entropy/expr_parser.h"
#include "entropy/known_inequalities.h"
#include "entropy/mobius.h"

namespace bagcq::api {
namespace {

using entropy::ConeKind;
using entropy::LinearExpr;
using util::Rational;
using util::StatusCode;
using util::VarSet;

// ---------------------------------------------------------------- Decide

TEST(EngineDecideTest, Example43TriangleContainedInFork) {
  // Example 4.3 (Eric Vee): Q1 = triangle, Q2 = fork; Q1 ⪯ Q2, certified.
  Engine engine;
  auto d = engine.Decide("R(x1,x2), R(x2,x3), R(x3,x1)", "R(y1,y2), R(y1,y3)")
               .ValueOrDie();
  EXPECT_EQ(d.verdict, Verdict::kContained) << d.ToString();
  EXPECT_TRUE(d.analysis.acyclic);
  EXPECT_TRUE(d.analysis.decidable());
  ASSERT_TRUE(d.inequality.has_value());
  EXPECT_EQ(d.inequality->homs.size(), 3u);
  ASSERT_TRUE(d.validity.has_value());
  EXPECT_TRUE(d.validity->certificate.has_value());
  EXPECT_GT(d.stats.lp_pivots, 0);
  EXPECT_GE(d.stats.elapsed_ms, 0.0);
}

TEST(EngineDecideTest, Example35NotContainedWithWitness) {
  // Example 3.5: Q1 ⋢ Q2 with a normal counterexample and verified witness;
  // still contained under set semantics (the paper's separation).
  Engine engine;
  auto pair = engine
                  .ParsePair(
                      "A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), "
                      "C(x1',x2')",
                      "A(y1,y2), B(y1,y3), C(y4,y2)")
                  .ValueOrDie();
  auto d = engine.Decide(pair.q1, pair.q2).ValueOrDie();
  EXPECT_EQ(d.verdict, Verdict::kNotContained) << d.ToString();
  ASSERT_TRUE(d.counterexample.has_value());
  EXPECT_TRUE(entropy::IsNormal(*d.counterexample));
  ASSERT_TRUE(d.witness.has_value());
  EXPECT_TRUE(d.witness->counts_verified);
  EXPECT_GT(d.witness->hom_q1, d.witness->hom_q2);
  EXPECT_TRUE(engine.SetContained(pair.q1, pair.q2));
}

TEST(EngineDecideTest, BagBagSemantics) {
  Engine engine;
  auto d = engine.DecideBagBag("R(x,y)", "R(a,b)").ValueOrDie();
  EXPECT_EQ(d.verdict, Verdict::kContained) << d.ToString();
}

// ------------------------------------------------------- error discipline

TEST(EngineErrorTest, MismatchedVocabularyIsInvalidArgument) {
  Engine engine;
  auto q1 = engine.ParseQuery("R(x,y)").ValueOrDie();
  auto q2 = engine.ParseQuery("S(x,y)").ValueOrDie();
  auto result = engine.Decide(q1, q2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineErrorTest, MismatchedHeadArityIsInvalidArgument) {
  Engine engine;
  auto pair =
      engine.ParsePair("Q(x) :- R(x,y).", "Q(x,y) :- R(x,y).").ValueOrDie();
  auto result = engine.Decide(pair.q1, pair.q2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineErrorTest, UnparsableQueryIsParseError) {
  Engine engine;
  auto result = engine.Decide("this is not a query((", "R(x,y)");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  // Parse failures are accounted like every other failed decision.
  EXPECT_EQ(engine.stats().decisions, 1);
  EXPECT_EQ(engine.stats().errors, 1);
}

TEST(EngineErrorTest, VariableFreeQueryIsInvalidArgument) {
  // "R()" parses (nullary relation) but is a degenerate constant query; the
  // pipeline must reject it instead of CHECK-aborting in the junction tree.
  Engine engine;
  auto result = engine.Decide("R()", "R()");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  auto mixed = engine.Decide("R(), S(x)", "R()");
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
  // Zero-variable atoms alongside real variables on both sides still decide.
  EXPECT_TRUE(engine.Decide("R(), S(x)", "S(a)").ok());
}

TEST(EngineErrorTest, UnparsableInequalityIsParseError) {
  Engine engine;
  auto result = engine.ProveInequality("H(A >= nonsense");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(EngineErrorTest, EmptyBranchListIsInvalidArgument) {
  Engine engine;
  auto result = engine.CheckMaxInequality({});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineErrorTest, MixedVariableSpacesAreInvalidArgument) {
  Engine engine;
  auto result = engine.CheckMaxInequality(
      {LinearExpr::H(3, VarSet::Of({0})), LinearExpr::H(4, VarSet::Of({0}))});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineErrorTest, ZeroVariableInequalityIsInvalidArgument) {
  Engine engine;
  auto result = engine.ProveInequality(LinearExpr(0));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineErrorTest, BatchReportsPerPairErrorsWithoutAborting) {
  Engine engine;
  auto good = engine.ParsePair("R(x,y), R(y,z)", "R(a,b)").ValueOrDie();
  QueryPair bad{engine.ParseQuery("R(x,y)").ValueOrDie(),
                engine.ParseQuery("S(x,y)").ValueOrDie()};
  std::vector<QueryPair> pairs = {good, bad, good};
  auto results = engine.DecideBatch(pairs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(engine.stats().errors, 1);
}

// ----------------------------------------------------------------- prover

TEST(EngineProverTest, BasicShannonInequalities) {
  Engine engine;
  EXPECT_TRUE(engine.ProveInequality("H(A) + H(B) >= H(A,B)")
                  .ValueOrDie()
                  .valid);
  EXPECT_TRUE(engine.ProveInequality("H(A,B) >= H(A)").ValueOrDie().valid);
  auto invalid = engine.ProveInequality("H(A) >= H(B)").ValueOrDie();
  EXPECT_FALSE(invalid.valid);
  ASSERT_TRUE(invalid.counterexample.has_value());
  EXPECT_LT(invalid.violation.sign(), 0);
  // The text entry point reports variable names.
  EXPECT_EQ(invalid.var_names.size(), 2u);
}

TEST(EngineProverTest, WideCoefficientsNeverPivotInTheWordTier) {
  // Denominators near 2^31 and 2^32 integerize to LP data wider than 62
  // bits, so the ladder's staged fill starts above the int64 tier: the
  // proof and the refutation stay exact with no word-tier pivot.
  Engine engine;
  const auto valid_text = entropy::ParseInequality(
      "1/2147483647*H(A) + 1/2147483659*H(B) >= 1/4294967311*H(A,B)");
  ASSERT_TRUE(valid_text.ok());
  auto valid = engine.ProveInequality(valid_text->expr).ValueOrDie();
  EXPECT_TRUE(valid.valid);
  ASSERT_TRUE(valid.certificate.has_value());
  EXPECT_TRUE(valid.certificate->Verify(valid_text->expr));
  EXPECT_GT(valid.stats.lp_pivots, 0);
  EXPECT_EQ(valid.stats.lp_word_pivots, 0);

  const auto invalid_text = entropy::ParseInequality(
      "1/2147483659*H(A) >= 1/2147483647*H(A,B)");
  ASSERT_TRUE(invalid_text.ok());
  auto invalid = engine.ProveInequality(invalid_text->expr).ValueOrDie();
  EXPECT_FALSE(invalid.valid);
  ASSERT_TRUE(invalid.counterexample.has_value());
  EXPECT_TRUE(invalid.counterexample->IsPolymatroid());
  EXPECT_LT(invalid.violation.sign(), 0);
  EXPECT_EQ(invalid_text->expr.Evaluate(*invalid.counterexample),
            invalid.violation);
  EXPECT_GT(invalid.stats.lp_pivots, 0);
  EXPECT_EQ(invalid.stats.lp_word_pivots, 0);
  EXPECT_EQ(engine.stats().lp_word_pivots, 0);
}

TEST(EngineProverTest, ZhangYeungSeparatesGammaFromEntropic) {
  // Section 3.2: ZY is NOT Shannon (a Γ4 polymatroid refutes it) yet holds
  // over N4 ⊆ Γ*4 — the non-Shannon phenomenon.
  Engine engine;
  auto zy = engine.ProveInequality(entropy::ZhangYeungExpr()).ValueOrDie();
  EXPECT_FALSE(zy.valid);
  ASSERT_TRUE(zy.counterexample.has_value());
  EXPECT_TRUE(zy.counterexample->IsPolymatroid());
  EXPECT_FALSE(entropy::IsNormal(*zy.counterexample));

  auto over_normal =
      engine.CheckMaxInequality({entropy::ZhangYeungExpr()}, ConeKind::kNormal)
          .ValueOrDie();
  EXPECT_TRUE(over_normal.valid);
}

TEST(EngineProverTest, MaxInequalityExample38) {
  // Example 3.8: the triangle bound needs all three branches; λ = 1/3 each.
  Engine engine;
  const int n = 3;
  VarSet x1 = VarSet::Of({0}), x2 = VarSet::Of({1}), x3 = VarSet::Of({2});
  std::vector<LinearExpr> exprs;
  exprs.push_back(LinearExpr::H(n, x1.Union(x2)) +
                  LinearExpr::HCond(n, x2, x1));
  exprs.push_back(LinearExpr::H(n, x2.Union(x3)) +
                  LinearExpr::HCond(n, x3, x2));
  exprs.push_back(LinearExpr::H(n, x1.Union(x3)) +
                  LinearExpr::HCond(n, x1, x3));
  auto branches = entropy::BranchesForBoundedForm(n, Rational(1), exprs);
  auto result = engine.CheckMaxInequality(branches).ValueOrDie();
  EXPECT_TRUE(result.valid);
  ASSERT_EQ(result.lambda.size(), 3u);
  ASSERT_TRUE(result.certificate.has_value());
  // No single branch suffices.
  for (const LinearExpr& branch : branches) {
    EXPECT_FALSE(engine.CheckMaxInequality({branch}).ValueOrDie().valid);
  }
}

// ------------------------------------------------------------ cache reuse

TEST(EngineCacheTest, BatchOf100ConstructsElementalSystemOnce) {
  // The acceptance property of the session API: at a fixed variable count,
  // a batch of 100 decisions builds the Γn elemental system exactly once.
  Engine engine;
  auto pair = engine
                  .ParsePair("R(x1,x2), R(x2,x3), R(x3,x1)",
                             "R(y1,y2), R(y1,y3)")
                  .ValueOrDie();
  std::vector<QueryPair> pairs(100, pair);
  auto results = engine.DecideBatch(pairs);
  ASSERT_EQ(results.size(), 100u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->verdict, Verdict::kContained);
  }
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.decisions, 100);
  EXPECT_EQ(stats.prover_constructions, 1);  // built once, reused 99 times
  EXPECT_EQ(stats.prover_cache_hits, 99);
  // Per-call stats agree: only the first call misses.
  EXPECT_FALSE(results[0]->stats.prover_cache_hit);
  EXPECT_TRUE(results[1]->stats.prover_cache_hit);
  EXPECT_TRUE(results[99]->stats.prover_cache_hit);
}

TEST(EngineCacheTest, RefutationsNeverBuildTheElementalSystem) {
  // The Γn elemental system is fetched lazily: a decision refuted on the
  // cheap generator-form cone (Example 3.5) must not pay for it.
  Engine engine;
  auto pair = engine
                  .ParsePair(
                      "A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), "
                      "C(x1',x2')",
                      "A(y1,y2), B(y1,y3), C(y4,y2)")
                  .ValueOrDie();
  auto d = engine.Decide(pair.q1, pair.q2).ValueOrDie();
  EXPECT_EQ(d.verdict, Verdict::kNotContained);
  EXPECT_EQ(engine.stats().prover_constructions, 0);
  EXPECT_TRUE(d.stats.prover_cache_hit);  // "never needed one" counts as hit
}

TEST(EngineCacheTest, RepeatedProofsHitTheCache) {
  Engine engine;
  auto first = engine.ProveInequality("H(A) + H(B) >= H(A,B)").ValueOrDie();
  EXPECT_FALSE(first.stats.prover_cache_hit);
  auto second = engine.ProveInequality("H(A,B) >= H(B)").ValueOrDie();
  EXPECT_TRUE(second.stats.prover_cache_hit);
  EXPECT_EQ(engine.stats().prover_constructions, 1);
}

TEST(EngineCacheTest, DistinctVariableCountsGetDistinctProvers) {
  Engine engine;
  engine.ProveInequality(LinearExpr::H(2, VarSet::Of({0}))).ValueOrDie();
  engine.ProveInequality(LinearExpr::H(3, VarSet::Of({0}))).ValueOrDie();
  engine.ProveInequality(LinearExpr::H(2, VarSet::Of({1}))).ValueOrDie();
  EXPECT_EQ(engine.stats().prover_constructions, 2);
  EXPECT_EQ(engine.prover(2).num_vars(), 2);
  EXPECT_EQ(engine.prover(3).num_vars(), 3);
}

TEST(EngineCacheTest, ClearCacheResetsSessionState) {
  Engine engine;
  engine.ProveInequality("H(A) + H(B) >= H(A,B)").ValueOrDie();
  EXPECT_GT(engine.stats().prover_constructions, 0);
  EXPECT_GT(engine.stats().lp_solves, 0);
  engine.ClearCache();
  EXPECT_EQ(engine.stats().prover_constructions, 0);
  EXPECT_EQ(engine.stats().lp_solves, 0);
  EXPECT_EQ(engine.stats().proofs, 0);
  // The session still works after a reset.
  EXPECT_TRUE(
      engine.ProveInequality("H(A) + H(B) >= H(A,B)").ValueOrDie().valid);
}

TEST(EngineCacheTest, SharedSolverWorkspaceAccumulatesSolves) {
  Engine engine;
  engine.Decide("R(x,y), R(y,z)", "R(a,b)").ValueOrDie();
  int64_t after_one = engine.stats().lp_solves;
  EXPECT_GT(after_one, 0);
  engine.Decide("R(x,y), R(y,z)", "R(a,b)").ValueOrDie();
  EXPECT_GT(engine.stats().lp_solves, after_one);
}

// --------------------------------------------------------------- options

TEST(EngineOptionsTest, CertificateCanBeDisabled) {
  Engine engine{EngineOptions().set_want_shannon_certificate(false)};
  auto d = engine.Decide("R(x1,x2), R(x2,x3), R(x3,x1)", "R(y1,y2), R(y1,y3)")
               .ValueOrDie();
  EXPECT_EQ(d.verdict, Verdict::kContained);
  ASSERT_TRUE(d.validity.has_value());
  EXPECT_FALSE(d.validity->certificate.has_value());
}

// ------------------------------------------------------------ LP stats

// The decision rows of exp_decidability: every verdict class (Contained,
// NotContained, Unknown) and every structural class of Q2.
std::vector<QueryPair> DecisionSuite(Engine& engine) {
  const std::pair<const char*, const char*> rows[] = {
      {"R(x,y), R(y,z), R(z,x)", "R(a,b), R(a,c)"},
      {"R(a,b), R(a,c)", "R(x,y), R(y,z), R(z,x)"},
      {"A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')",
       "A(y1,y2), B(y1,y3), C(y4,y2)"},
      {"R(x,y), R(u,v)", "R(a,b)"},
      {"R(a,b)", "R(x,y), R(u,v)"},
      {"R(x,y), R(y,z)", "R(a,b), R(b,c)"},
      {"R(x,y), R(y,z), R(z,x)", "R(a,b), R(b,c), R(c,a)"},
      {"R(x,y), R(y,z), R(z,x)", "R(a,b), R(b,c), R(c,d), R(d,a)"},
      {"R(x,y), R(y,z), R(z,x), R(x,x)", "R(a,b), R(b,c), R(c,a), R(a,a)"},
  };
  std::vector<QueryPair> pairs;
  for (const auto& [q1, q2] : rows) {
    pairs.push_back(engine.ParsePair(q1, q2).ValueOrDie());
  }
  return pairs;
}

TEST(EngineStatsTest, RetiredScreenCountersStayZero) {
  // lp_screen_accepts and lp_exact_fallbacks belonged to an LP backend that
  // no longer exists. They stay in EngineStats (and on the wire) as slots
  // that are always zero, however much LP work the session does.
  Engine engine;
  engine.ProveInequality("H(A) + H(B) >= H(A,B)").ValueOrDie();
  for (const QueryPair& pair : DecisionSuite(engine)) {
    engine.Decide(pair.q1, pair.q2).ValueOrDie();
  }
  EngineStats stats = engine.stats();
  EXPECT_GT(stats.lp_solves, 0);
  EXPECT_EQ(stats.lp_screen_accepts, 0);
  EXPECT_EQ(stats.lp_exact_fallbacks, 0);
}

// ------------------------------------------------------------ memoization

TEST(EngineMemoTest, RepeatedDecisionsAreServedFromTheMemo) {
  Engine engine{EngineOptions().set_memoize_decisions(true)};
  auto pair = engine
                  .ParsePair("R(x1,x2), R(x2,x3), R(x3,x1)",
                             "R(y1,y2), R(y1,y3)")
                  .ValueOrDie();
  auto first = engine.Decide(pair.q1, pair.q2).ValueOrDie();
  EXPECT_FALSE(first.stats.memo_hit);
  const int64_t solves_after_first = engine.stats().lp_solves;
  auto second = engine.Decide(pair.q1, pair.q2).ValueOrDie();
  EXPECT_TRUE(second.stats.memo_hit);
  EXPECT_EQ(second.verdict, first.verdict);
  EXPECT_EQ(second.method, first.method);
  EXPECT_EQ(engine.stats().lp_solves, solves_after_first);  // no LP re-run
  EXPECT_EQ(engine.stats().decision_memo_hits, 1);
  EXPECT_EQ(engine.stats().decisions, 2);
  // ClearCache drops the memo too.
  engine.ClearCache();
  auto third = engine.Decide(pair.q1, pair.q2).ValueOrDie();
  EXPECT_FALSE(third.stats.memo_hit);
}

TEST(EngineMemoTest, TextualVariantsOfOnePairShareOneMemoEntry) {
  // The memo key is the canonical wire encoding of the pair (structure, not
  // text): resubmitting the same question with different whitespace and
  // variable names must hit the entry the first submission created.
  Engine engine{EngineOptions().set_memoize_decisions(true)};
  auto first = engine.Decide("R(x,y), R(y,z), R(z,x)", "R(a,b), R(a,c)")
                   .ValueOrDie();
  EXPECT_FALSE(first.stats.memo_hit);
  auto respaced =
      engine.Decide("R(x,y),R(y,z),  R(z,x)", "R(a,b),   R(a,c)")
          .ValueOrDie();
  EXPECT_TRUE(respaced.stats.memo_hit);
  auto renamed =
      engine.Decide("R(u,v), R(v,w), R(w,u)", "R(p,q), R(p,r)").ValueOrDie();
  EXPECT_TRUE(renamed.stats.memo_hit);
  EXPECT_EQ(renamed.verdict, first.verdict);
  EXPECT_EQ(renamed.method, first.method);
  EXPECT_EQ(engine.stats().decision_memo_hits, 2);  // one entry, two hits
  // A structurally different pair must not collide.
  auto different =
      engine.Decide("R(x,y), R(y,z)", "R(a,b), R(a,c)").ValueOrDie();
  EXPECT_FALSE(different.stats.memo_hit);
}

TEST(EngineMemoTest, MemoEvictsOldestFirstAtTheCap) {
  // Cap 2, three distinct pairs: the third insert must evict the first
  // (FIFO), and re-deciding the first must re-insert it (evicting the
  // second) — the memo is bounded but never stops admitting new entries.
  Engine engine{
      EngineOptions().set_memoize_decisions(true).set_memo_max_entries(2)};
  const char* p1[2] = {"R(x,y)", "R(a,b)"};
  const char* p2[2] = {"R(x,y), R(y,z)", "R(a,b), R(b,c)"};
  const char* p3[2] = {"R(x,y), R(y,z), R(z,x)", "R(a,b), R(a,c)"};
  engine.Decide(p1[0], p1[1]).ValueOrDie();
  engine.Decide(p2[0], p2[1]).ValueOrDie();
  EXPECT_TRUE(engine.Decide(p1[0], p1[1]).ValueOrDie().stats.memo_hit);
  engine.Decide(p3[0], p3[1]).ValueOrDie();  // cap reached: evicts p1
  EXPECT_FALSE(engine.Decide(p1[0], p1[1]).ValueOrDie().stats.memo_hit);
  // That re-decide re-inserted p1, evicting p2; p3 is still resident.
  EXPECT_TRUE(engine.Decide(p3[0], p3[1]).ValueOrDie().stats.memo_hit);
  EXPECT_FALSE(engine.Decide(p2[0], p2[1]).ValueOrDie().stats.memo_hit);
  EXPECT_EQ(engine.stats().decision_memo_hits, 2);
}

TEST(EngineMemoTest, ZeroCapDisablesTheMemo) {
  Engine engine{
      EngineOptions().set_memoize_decisions(true).set_memo_max_entries(0)};
  engine.Decide("R(x,y)", "R(a,b)").ValueOrDie();
  EXPECT_FALSE(engine.Decide("R(x,y)", "R(a,b)").ValueOrDie().stats.memo_hit);
  EXPECT_EQ(engine.stats().decision_memo_hits, 0);
}

TEST(EngineMemoTest, MemoDistinguishesBagBagFromBagSet) {
  Engine engine{EngineOptions().set_memoize_decisions(true)};
  auto pair = engine.ParsePair("R(x,y)", "R(a,b)").ValueOrDie();
  engine.Decide(pair.q1, pair.q2).ValueOrDie();
  auto bag_bag = engine.DecideBagBag(pair.q1, pair.q2).ValueOrDie();
  EXPECT_FALSE(bag_bag.stats.memo_hit);
}

TEST(EngineMemoTest, MemoizedParallelBatchCountsHits) {
  Engine engine{EngineOptions().set_memoize_decisions(true)};
  auto pair = engine
                  .ParsePair("R(x1,x2), R(x2,x3), R(x3,x1)",
                             "R(y1,y2), R(y1,y3)")
                  .ValueOrDie();
  std::vector<QueryPair> pairs(20, pair);
  auto results = engine.DecideBatch(pairs);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->verdict, Verdict::kContained);
  }
  // The first pair is decided; the other 19 are served from the memo.
  EXPECT_EQ(engine.stats().decision_memo_hits, 19);
  EXPECT_EQ(engine.stats().decisions, 20);
}

TEST(EngineOptionsTest, BuilderFoldsDeciderAndWitnessOptions) {
  EngineOptions options = EngineOptions()
                              .set_want_shannon_certificate(false)
                              .set_witness_max_tuples(42)
                              .set_verify_witness_counts(false);
  core::DeciderOptions legacy = options.ToDeciderOptions();
  EXPECT_FALSE(legacy.want_shannon_certificate);
  EXPECT_EQ(legacy.witness.max_tuples, 42);
  EXPECT_FALSE(legacy.witness.verify_counts);
}

// ------------------------------------------------------------- warm starts

TEST(EngineWarmStartTest, RepeatedProofsResumeFromWarmBases) {
  Engine engine;  // warm starts default on
  LinearExpr e = entropy::SubmodularityExpr(4, VarSet::Of({0, 1}),
                                            VarSet::Of({1, 2, 3}));
  auto first = engine.ProveInequality(e).ValueOrDie();
  EXPECT_TRUE(first.valid);
  EXPECT_EQ(first.stats.lp_warm_accepts, 0);

  auto second = engine.ProveInequality(e).ValueOrDie();
  EXPECT_TRUE(second.valid);
  ASSERT_TRUE(second.certificate.has_value());
  EXPECT_TRUE(second.certificate->Verify(e));
  EXPECT_GE(second.stats.lp_warm_accepts, 1);
  EXPECT_LE(second.stats.lp_pivots, first.stats.lp_pivots);

  EngineStats stats = engine.stats();
  EXPECT_GE(stats.lp_warm_accepts, 1);
}

TEST(EngineWarmStartTest, WarmAndColdEnginesAgreeOnTheDecisionSuite) {
  const char* pairs[][2] = {
      {"R(x1,x2), R(x2,x3), R(x3,x1)", "R(y1,y2), R(y1,y3)"},
      {"R(x,y), R(y,z)", "R(a,b), R(b,c)"},
      {"R(x,y), R(y,x)", "R(a,b)"},
      {"R(x,y), R(y,z), R(z,x)", "R(a,b), R(b,c), R(c,a)"},
  };
  Engine warm;
  Engine cold{EngineOptions().set_warm_starts(false)};
  for (int round = 0; round < 2; ++round) {  // round 2 hits warm slots
    for (const auto& row : pairs) {
      auto w = warm.Decide(row[0], row[1]).ValueOrDie();
      auto c = cold.Decide(row[0], row[1]).ValueOrDie();
      EXPECT_EQ(w.verdict, c.verdict) << row[0] << " vs " << row[1];
      ASSERT_EQ(w.validity.has_value(), c.validity.has_value());
      if (w.validity.has_value()) {
        EXPECT_EQ(w.validity->lambda, c.validity->lambda);
      }
    }
  }
  EXPECT_GT(warm.stats().lp_warm_accepts, 0);
  EXPECT_EQ(cold.stats().lp_warm_accepts, 0);
  EXPECT_EQ(cold.stats().lp_warm_pivots_saved, 0);
}

TEST(EngineWarmStartTest, RefutationsWarmStartThePhaseOneResume) {
  // Repeated Zhang–Yeung refutations: the warm slot carries the previous
  // Farkas basis, and the resumed phase I re-certifies infeasibility with
  // the counterexample intact.
  Engine engine;
  auto first = engine.ProveInequality(entropy::ZhangYeungExpr()).ValueOrDie();
  ASSERT_FALSE(first.valid);
  auto second = engine.ProveInequality(entropy::ZhangYeungExpr()).ValueOrDie();
  ASSERT_FALSE(second.valid);
  ASSERT_TRUE(second.counterexample.has_value());
  EXPECT_EQ(second.violation, first.violation);
  EXPECT_GE(second.stats.lp_warm_accepts, 1);
}

TEST(EngineWarmStartTest, ClearCacheDropsWarmSlots) {
  Engine engine;
  LinearExpr e = entropy::SubmodularityExpr(3, VarSet::Of({0}),
                                            VarSet::Of({1, 2}));
  engine.ProveInequality(e).ValueOrDie();
  engine.ProveInequality(e).ValueOrDie();
  EXPECT_GE(engine.stats().lp_warm_accepts, 1);
  engine.ClearCache();
  EXPECT_EQ(engine.stats().lp_warm_accepts, 0);
  // The first post-clear proof runs cold again (no slot to resume from).
  auto result = engine.ProveInequality(e).ValueOrDie();
  EXPECT_EQ(result.stats.lp_warm_accepts, 0);
}

TEST(EngineWarmStartTest, ParallelBatchFoldsWarmCountersIntoSessionStats) {
  Engine engine;
  std::vector<QueryPair> pairs(
      12, engine.ParsePair("R(x,y), R(y,z)", "R(a,b), R(b,c)").ValueOrDie());
  auto results = engine.DecideBatch(pairs);
  ASSERT_EQ(results.size(), pairs.size());
  for (const auto& r : results) ASSERT_TRUE(r.ok());
  // The batch decides the same shape repeatedly, so the session solver's
  // warm accepts must surface in the session stats.
  EXPECT_GT(engine.stats().lp_warm_accepts, 0);
}

}  // namespace
}  // namespace bagcq::api
