// Wire-format tests: exact round-trips for every serializable type (including
// Engine-produced certificates, counterexamples, and witness databases), the
// canonicality contract (one value = one byte sequence), a randomized
// round-trip property sweep, and the corrupt-input suite — truncation at
// every byte offset and single-byte corruption must come back as
// InvalidArgument, never a crash (this file runs under the ASan+UBSan job).
#include "wire/wire.h"

#include <gtest/gtest.h>

#include <random>

#include "api/engine.h"
#include "cq/parser.h"
#include "entropy/expr_parser.h"
#include "entropy/known_inequalities.h"

namespace bagcq::wire {
namespace {

using util::BigInt;
using util::Rational;
using util::VarSet;

template <typename T, typename EncodeFn>
std::string EncodeToString(const T& value, EncodeFn encode) {
  Encoder e;
  encode(value, &e);
  return e.Take();
}

/// Encode → decode → re-encode; the re-encoding must be byte-identical (the
/// strongest equality available, and exactly the conformance criterion).
template <typename T, typename EncodeFn, typename DecodeFn>
T RoundTrip(const T& value, EncodeFn encode, DecodeFn decode) {
  const std::string bytes = EncodeToString(value, encode);
  Decoder d(bytes);
  auto decoded = decode(&d);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(d.exhausted()) << "decoder left " << d.remaining() << " bytes";
  T out = std::move(decoded).ValueOrDie();
  EXPECT_EQ(EncodeToString(out, encode), bytes) << "re-encode drifted";
  return out;
}

// ----------------------------------------------------------- primitives

TEST(CodecTest, VarintRoundTripsAndIsMinimal) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 32,
                     ~0ull}) {
    Encoder e;
    e.PutVarint(v);
    Decoder d(e.buffer());
    uint64_t out;
    ASSERT_TRUE(d.GetVarint(&out));
    EXPECT_EQ(out, v);
    EXPECT_TRUE(d.exhausted());
  }
  // The over-long spelling of 0 ("\x80\x00") must be rejected.
  Decoder overlong(std::string_view("\x80\x00", 2));
  uint64_t out;
  EXPECT_FALSE(overlong.GetVarint(&out));
}

TEST(CodecTest, SignedZigzagRoundTrips) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-123456789},
                    INT64_MAX, INT64_MIN}) {
    Encoder e;
    e.PutSigned(v);
    Decoder d(e.buffer());
    int64_t out;
    ASSERT_TRUE(d.GetSigned(&out));
    EXPECT_EQ(out, v);
  }
}

TEST(CodecTest, BoolRejectsNonCanonicalBytes) {
  Decoder d(std::string_view("\x02", 1));
  bool out;
  EXPECT_FALSE(d.GetBool(&out));
}

TEST(CodecTest, BytesLengthBeyondBufferFails) {
  Encoder e;
  e.PutVarint(100);  // claims 100 bytes, provides none
  Decoder d(e.buffer());
  std::string out;
  EXPECT_FALSE(d.GetBytes(&out));
}

// -------------------------------------------------------------- scalars

TEST(WireScalarTest, BigIntRoundTrips) {
  for (const BigInt& v :
       {BigInt(0), BigInt(-1), BigInt(42), BigInt::Pow(BigInt(7), 100),
        -BigInt::TwoToThe(200)}) {
    EXPECT_EQ(RoundTrip(v, EncodeBigInt, DecodeBigInt), v);
  }
}

TEST(WireScalarTest, BigIntRejectsNonCanonicalText) {
  for (const char* text : {"", "007", "-0", "1x", "+5", " 1"}) {
    Encoder e;
    e.PutBytes(text);
    Decoder d(e.buffer());
    EXPECT_FALSE(DecodeBigInt(&d).ok()) << text;
  }
}

TEST(WireScalarTest, RationalRoundTripsExactly) {
  for (const Rational& v :
       {Rational(0), Rational(1, 3), Rational(-22, 7),
        Rational(BigInt::Pow(BigInt(3), 80), BigInt::TwoToThe(100))}) {
    EXPECT_EQ(RoundTrip(v, EncodeRational, DecodeRational), v);
  }
}

TEST(WireScalarTest, RationalRejectsUnreducedAndBadDenominators) {
  auto encode_fraction = [](const char* num, const char* den) {
    Encoder e;
    e.PutBytes(num);
    e.PutBytes(den);
    return e.Take();
  };
  for (const auto& [num, den] : std::vector<std::pair<const char*, const char*>>{
           {"2", "4"}, {"1", "0"}, {"1", "-3"}, {"0", "2"}}) {
    const std::string bytes = encode_fraction(num, den);
    Decoder d(bytes);
    EXPECT_FALSE(DecodeRational(&d).ok()) << num << "/" << den;
  }
}

TEST(WireScalarTest, StatusRoundTripsEveryCode) {
  for (auto code : {util::StatusCode::kOk, util::StatusCode::kInvalidArgument,
                    util::StatusCode::kNotSupported,
                    util::StatusCode::kResourceExhausted,
                    util::StatusCode::kParseError, util::StatusCode::kInternal}) {
    util::Status original(code, code == util::StatusCode::kOk ? "" : "msg");
    Encoder e;
    EncodeStatus(original, &e);
    Decoder d(e.buffer());
    util::Status out;
    ASSERT_TRUE(DecodeStatus(&d, &out).ok());
    EXPECT_EQ(out.code(), original.code());
    EXPECT_EQ(out.message(), original.message());
  }
  Encoder e;
  e.PutVarint(99);
  e.PutBytes("bad");
  Decoder d(e.buffer());
  util::Status out;
  EXPECT_FALSE(DecodeStatus(&d, &out).ok());
}

// -------------------------------------------------------------- queries

bool QueryEq(const cq::ConjunctiveQuery& a, const cq::ConjunctiveQuery& b) {
  return a.vocab() == b.vocab() && a.var_names() == b.var_names() &&
         a.head() == b.head() && a.atoms() == b.atoms();
}

TEST(WireQueryTest, QueriesRoundTrip) {
  for (const char* text :
       {"R(x,y)", "R(x,y), R(y,z), R(z,x)", "R(x,x)",
        "Q(x,z) :- P(x), S(u,x), S(v,z), R(z).",
        "A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')"}) {
    cq::ConjunctiveQuery q = cq::ParseQuery(text).ValueOrDie();
    cq::ConjunctiveQuery out = RoundTrip(q, EncodeQuery, DecodeQuery);
    EXPECT_TRUE(QueryEq(q, out)) << text;
    EXPECT_EQ(q.ToString(), out.ToString());
  }
}

TEST(WireQueryTest, QueryRejectsOutOfRangeReferences) {
  cq::ConjunctiveQuery q = cq::ParseQuery("R(x,y)").ValueOrDie();
  std::string bytes = EncodeToString(q, EncodeQuery);
  // Flip every byte in turn; decode must never crash, and the specific
  // corruptions below must be caught.
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    Decoder d(corrupt);
    (void)DecodeQuery(&d);  // must not crash; outcome may be either
  }
  // Duplicate variable names would CHECK-abort in AddVariable if they ever
  // reached it.
  Encoder e;
  EncodeVocabulary(q.vocab(), &e);
  e.PutVarint(2);
  e.PutBytes("x");
  e.PutBytes("x");
  e.PutVarint(0);  // head
  e.PutVarint(0);  // atoms
  Decoder d(e.buffer());
  EXPECT_FALSE(DecodeQuery(&d).ok());
}

TEST(WireQueryTest, StructureRoundTrips) {
  cq::Structure s = cq::ParseStructure("R = {(0,1),(1,2),(2,0)}").ValueOrDie();
  cq::Structure out = RoundTrip(s, EncodeStructure, DecodeStructure);
  EXPECT_EQ(s.ToString(), out.ToString());
}

// -------------------------------------------------------------- entropy

TEST(WireEntropyTest, LinearExprRoundTrips) {
  entropy::LinearExpr e = entropy::ZhangYeungExpr();
  EXPECT_EQ(RoundTrip(e, EncodeLinearExpr, DecodeLinearExpr), e);
  entropy::LinearExpr mi = entropy::LinearExpr::MI(
      3, VarSet::Of({0}), VarSet::Of({1}), VarSet::Of({2}));
  EXPECT_EQ(RoundTrip(mi, EncodeLinearExpr, DecodeLinearExpr), mi);
}

TEST(WireEntropyTest, LinearExprRejectsZeroCoeffAndDisorder) {
  // A zero coefficient is a second spelling of the same value (Add prunes
  // them); out-of-order terms likewise.
  Encoder e;
  e.PutSigned(2);
  e.PutVarint(1);
  EncodeVarSet(VarSet::Of({0}), &e);
  EncodeRational(Rational(0), &e);
  Decoder d(e.buffer());
  EXPECT_FALSE(DecodeLinearExpr(&d).ok());
}

TEST(WireEntropyTest, SetFunctionRoundTrips) {
  entropy::SetFunction h(3);
  ForEachSubset(VarSet::Full(3), [&h](VarSet s) {
    if (!s.empty()) h[s] = Rational(s.size(), 3);
  });
  EXPECT_EQ(RoundTrip(h, EncodeSetFunction, DecodeSetFunction), h);
}

TEST(WireEntropyTest, SetFunctionRejectsOversizedVariableCount) {
  Encoder e;
  e.PutSigned(40);  // 2^40 coordinates: must fail before any allocation
  Decoder d(e.buffer());
  EXPECT_FALSE(DecodeSetFunction(&d).ok());
}

TEST(WireEntropyTest, SetFunctionRejectsCountsTheBufferCannotBack) {
  // A rational costs ≥ 4 wire bytes, so an in-range n whose 2^n - 1
  // coordinates outweigh the buffer is corrupt — and must be rejected
  // BEFORE the eager 2^n allocation (n=24 would otherwise conjure tens of
  // millions of Rationals out of a few KB of hostile input).
  Encoder e;
  e.PutSigned(24);
  for (int i = 0; i < 4096; ++i) e.PutByte(0);
  Decoder d(e.buffer());
  EXPECT_FALSE(DecodeSetFunction(&d).ok());
}

TEST(WireEntropyTest, RelationRoundTrips) {
  entropy::Relation r = entropy::Relation::StepRelation(3, VarSet::Of({1}), 4);
  entropy::Relation out = RoundTrip(r, EncodeRelation, DecodeRelation);
  EXPECT_EQ(r.tuples(), out.tuples());
  EXPECT_EQ(r.num_vars(), out.num_vars());
}

TEST(WireEntropyTest, CondExprRoundTrips) {
  entropy::CondExpr cond(4);
  cond.Add(VarSet::Of({0, 1}), VarSet::Of({2}), Rational(3, 2));
  cond.Add(VarSet::Of({3}), VarSet(), Rational(1));
  entropy::CondExpr out = RoundTrip(cond, EncodeCondExpr, DecodeCondExpr);
  EXPECT_EQ(cond.ToLinear(), out.ToLinear());
  EXPECT_EQ(cond.ToString(), out.ToString());
}

// ----------------------------------------------- Engine-produced results

api::DecisionResult Decide(const char* q1, const char* q2) {
  Engine engine;
  return engine.Decide(q1, q2).ValueOrDie();
}

TEST(WireResultTest, ContainedDecisionRoundTripsWithCertificate) {
  api::DecisionResult result =
      Decide("R(x1,x2), R(x2,x3), R(x3,x1)", "R(y1,y2), R(y1,y3)");
  ASSERT_TRUE(result.validity.has_value());
  ASSERT_TRUE(result.validity->certificate.has_value());
  api::DecisionResult out =
      RoundTrip(result, EncodeDecisionResult, DecodeDecisionResult);
  EXPECT_EQ(out.verdict, result.verdict);
  EXPECT_EQ(out.method, result.method);
  ASSERT_TRUE(out.validity.has_value());
  EXPECT_EQ(out.validity->lambda, result.validity->lambda);
  // The decoded certificate still verifies the λ-combination exactly — the
  // lossless-Rational claim, checked semantically.
  ASSERT_TRUE(out.inequality.has_value());
  EXPECT_TRUE(out.validity->certificate->Verify(out.inequality->branches,
                                                out.validity->lambda));
}

TEST(WireResultTest, RefutedDecisionRoundTripsWitnessAndCounterexample) {
  api::DecisionResult result = Decide("R(y1,y2), R(y1,y3)",
                                      "R(x1,x2), R(x2,x3), R(x3,x1)");
  ASSERT_TRUE(result.witness.has_value());
  api::DecisionResult out =
      RoundTrip(result, EncodeDecisionResult, DecodeDecisionResult);
  ASSERT_TRUE(out.witness.has_value());
  EXPECT_EQ(out.witness->hom_q1, result.witness->hom_q1);
  EXPECT_EQ(out.witness->hom_q2, result.witness->hom_q2);
  EXPECT_EQ(out.witness->database.ToString(),
            result.witness->database.ToString());
  EXPECT_EQ(out.counterexample, result.counterexample);
}

TEST(WireResultTest, ProofResultsRoundTrip) {
  Engine engine;
  api::ProofResult valid =
      engine.ProveInequality("I(A;B|C) + I(A;B) >= 0").ValueOrDie();
  api::ProofResult out =
      RoundTrip(valid, EncodeProofResult, DecodeProofResult);
  EXPECT_TRUE(out.valid);
  EXPECT_EQ(out.var_names, valid.var_names);

  api::ProofResult refuted =
      engine.ProveInequality(entropy::ZhangYeungExpr()).ValueOrDie();
  ASSERT_FALSE(refuted.valid);
  api::ProofResult refuted_out =
      RoundTrip(refuted, EncodeProofResult, DecodeProofResult);
  EXPECT_EQ(refuted_out.violation, refuted.violation);
  EXPECT_EQ(refuted_out.counterexample, refuted.counterexample);
}

TEST(WireResultTest, EngineStatsRoundTrip) {
  Engine engine;
  engine.Decide("R(x,y)", "R(a,b)").ValueOrDie();
  api::EngineStats stats = engine.stats();
  // Fill the store counters too (no store ran here): every appended field
  // must survive the trip, not just the ones a bare Decide populates.
  stats.store_hits = 7;
  stats.store_misses = 8;
  stats.store_appends = 9;
  stats.store_rejects = 10;
  stats.lp_wide_pivots = 11;
  stats.lp_bigint_promotions = 12;
  api::EngineStats out =
      RoundTrip(stats, EncodeEngineStats, DecodeEngineStats);
  EXPECT_EQ(out.decisions, stats.decisions);
  EXPECT_EQ(out.lp_solves, stats.lp_solves);
  EXPECT_EQ(out.total_ms, stats.total_ms);
  EXPECT_EQ(out.store_hits, 7);
  EXPECT_EQ(out.store_misses, 8);
  EXPECT_EQ(out.store_appends, 9);
  EXPECT_EQ(out.store_rejects, 10);
  EXPECT_EQ(out.lp_word_pivots, stats.lp_word_pivots);
  EXPECT_EQ(out.lp_wide_pivots, 11);
  EXPECT_EQ(out.lp_bigint_promotions, 12);
}

TEST(WireResultTest, CallStatsStoreHitRoundTrips) {
  api::CallStats stats;
  stats.elapsed_ms = 1.5;
  stats.lp_pivots = 3;
  stats.memo_hit = true;
  stats.store_hit = true;
  stats.lp_word_pivots = 21;
  stats.lp_wide_pivots = 22;
  stats.lp_bigint_promotions = 23;
  api::CallStats out = RoundTrip(stats, EncodeCallStats, DecodeCallStats);
  EXPECT_TRUE(out.memo_hit);
  EXPECT_TRUE(out.store_hit);
  EXPECT_EQ(out.lp_pivots, 3);
  EXPECT_EQ(out.lp_word_pivots, 21);
  EXPECT_EQ(out.lp_wide_pivots, 22);
  EXPECT_EQ(out.lp_bigint_promotions, 23);
}

// tools/check_wire_evolution.py reads each stats struct's declaration order
// as its byte layout. Positional initialization gives every field a
// distinct value in declaration order, so the encoded fields must read
// back in that same order.
TEST(WireTest, StatsStructsEncodeInDeclarationOrder) {
  const api::EngineStats engine_stats{1,  2,  3,  4,  5,  6,  7,
                                      8,  9,  10, 11, 12, 13, 14,
                                      15, 16, 17, 18, 19, 20.5};
  const std::string engine_bytes =
      EncodeToString(engine_stats, EncodeEngineStats);
  Decoder engine_in(engine_bytes);
  for (int64_t want = 1; want <= 19; ++want) {
    int64_t got = 0;
    ASSERT_TRUE(engine_in.GetSigned(&got));
    EXPECT_EQ(got, want) << "EngineStats field " << want - 1;
  }
  double total_ms = 0;
  ASSERT_TRUE(engine_in.GetDouble(&total_ms));
  EXPECT_EQ(total_ms, 20.5);
  EXPECT_TRUE(engine_in.exhausted());

  const api::CallStats call_stats{0.5, 2, 3, 4, true, false, true, 8, 9, 10};
  const std::string call_bytes = EncodeToString(call_stats, EncodeCallStats);
  Decoder call_in(call_bytes);
  double elapsed_ms = 0;
  ASSERT_TRUE(call_in.GetDouble(&elapsed_ms));
  EXPECT_EQ(elapsed_ms, 0.5);
  for (int64_t want : {2, 3, 4}) {
    int64_t got = 0;
    ASSERT_TRUE(call_in.GetSigned(&got));
    EXPECT_EQ(got, want);
  }
  for (bool want : {true, false, true}) {
    bool got = !want;
    ASSERT_TRUE(call_in.GetBool(&got));
    EXPECT_EQ(got, want);
  }
  for (int64_t want : {8, 9, 10}) {
    int64_t got = 0;
    ASSERT_TRUE(call_in.GetSigned(&got));
    EXPECT_EQ(got, want);
  }
  EXPECT_TRUE(call_in.exhausted());
}

// ------------------------------------------------------- property sweep

TEST(WirePropertyTest, RandomizedValuesReEncodeByteIdentically) {
  std::mt19937_64 rng(20260731);
  auto random_rational = [&rng]() {
    const int64_t num = static_cast<int64_t>(rng() % 2001) - 1000;
    const int64_t den = 1 + static_cast<int64_t>(rng() % 50);
    return Rational(num, den);
  };
  for (int iter = 0; iter < 200; ++iter) {
    const int n = 1 + static_cast<int>(rng() % 4);
    entropy::LinearExpr expr(n);
    const int terms = static_cast<int>(rng() % 6);
    for (int t = 0; t < terms; ++t) {
      const uint64_t mask = 1 + rng() % ((uint64_t{1} << n) - 1);
      expr.Add(VarSet(mask), random_rational());
    }
    EXPECT_EQ(RoundTrip(expr, EncodeLinearExpr, DecodeLinearExpr), expr);

    entropy::SetFunction h(n);
    ForEachSubset(VarSet::Full(n), [&](VarSet s) {
      if (!s.empty()) h[s] = random_rational();
    });
    EXPECT_EQ(RoundTrip(h, EncodeSetFunction, DecodeSetFunction), h);
  }
}

TEST(WirePropertyTest, RandomizedQueriesRoundTrip) {
  std::mt19937_64 rng(424242);
  for (int iter = 0; iter < 100; ++iter) {
    cq::Vocabulary vocab;
    vocab.AddRelation("R", 2);
    vocab.AddRelation("S", 1 + static_cast<int>(rng() % 3));
    cq::ConjunctiveQuery q(vocab);
    const int num_vars = 1 + static_cast<int>(rng() % 5);
    for (int v = 0; v < num_vars; ++v) {
      q.AddVariable("x" + std::to_string(v));
    }
    const int atoms = 1 + static_cast<int>(rng() % 4);
    for (int a = 0; a < atoms; ++a) {
      const int rel = static_cast<int>(rng() % 2);
      std::vector<int> vars(vocab.arity(rel));
      for (int& v : vars) v = static_cast<int>(rng() % num_vars);
      q.AddAtom(rel, std::move(vars));
    }
    cq::ConjunctiveQuery out = RoundTrip(q, EncodeQuery, DecodeQuery);
    EXPECT_TRUE(QueryEq(q, out));
  }
}

// ------------------------------------------------------- corrupt inputs

TEST(WireRobustnessTest, TruncationAtEveryOffsetFailsCleanly) {
  api::DecisionResult result = Decide("R(x,y), R(y,x)", "R(a,b)");
  const std::string bytes = EncodeToString(result, EncodeDecisionResult);
  ASSERT_GT(bytes.size(), 0u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    Decoder d(std::string_view(bytes).substr(0, len));
    auto decoded = DecodeDecisionResult(&d);
    // A strict prefix can never be a complete message: the full decode
    // consumes every byte, so the prefix must fail (not crash, not succeed).
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), util::StatusCode::kInvalidArgument);
    }
  }
}

TEST(WireRobustnessTest, SingleByteCorruptionNeverCrashes) {
  api::DecisionResult result =
      Decide("R(x,y), R(y,z), R(z,x)", "R(a,b), R(a,c)");
  const std::string bytes = EncodeToString(result, EncodeDecisionResult);
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (uint8_t delta : {0x01, 0x80, 0xFF}) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ delta);
      Decoder d(corrupt);
      auto decoded = DecodeDecisionResult(&d);
      // Outcome may be success (a mutated but well-formed message) or
      // InvalidArgument — under ASan/UBSan this is the no-crash guarantee.
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.status().code(),
                  util::StatusCode::kInvalidArgument);
      }
    }
  }
}

// ------------------------------------------------------------- memo key

TEST(CanonicalPairKeyTest, NamingAndWhitespaceVariantsCollide) {
  Engine engine;
  api::QueryPair a =
      engine.ParsePair("R(x,y), R(y,z), R(z,x)", "R(a,b), R(a,c)")
          .ValueOrDie();
  api::QueryPair b =
      engine.ParsePair("R( u ,v ),R(v, w),  R(w,u)", "R(p,q),R(p,r)")
          .ValueOrDie();
  EXPECT_EQ(CanonicalPairKey(a.q1, a.q2, false),
            CanonicalPairKey(b.q1, b.q2, false));
  // Different semantics and different structure both split the key.
  EXPECT_NE(CanonicalPairKey(a.q1, a.q2, false),
            CanonicalPairKey(a.q1, a.q2, true));
  api::QueryPair c =
      engine.ParsePair("R(x,y), R(y,z)", "R(a,b), R(a,c)").ValueOrDie();
  EXPECT_NE(CanonicalPairKey(a.q1, a.q2, false),
            CanonicalPairKey(c.q1, c.q2, false));
}

}  // namespace
}  // namespace bagcq::wire
