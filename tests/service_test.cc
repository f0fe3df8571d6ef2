// Service-layer tests: every Request tag round-trips the envelope, Handle()
// agrees with a directly-driven Engine, and the byte surface (HandleBytes)
// answers garbage with an encoded ErrorResponse instead of dying.
#include "service/service.h"

#include <gtest/gtest.h>

#include "entropy/expr_parser.h"
#include "entropy/known_inequalities.h"
#include "service/message.h"
#include "wire/wire.h"

namespace bagcq::service {
namespace {

api::QueryPair ParsePair(const char* q1, const char* q2) {
  api::Engine engine;
  return engine.ParsePair(q1, q2).ValueOrDie();
}

/// Per-call stats carry wall-clock times; zero them so encoded results
/// compare byte-for-byte across surfaces.
api::DecisionResult Normalized(api::DecisionResult result) {
  result.stats = api::CallStats{};
  return result;
}

std::string EncodeNormalized(const api::DecisionResult& result) {
  wire::Encoder e;
  wire::EncodeDecisionResult(Normalized(result), &e);
  return e.Take();
}

TEST(ServiceMessageTest, EveryRequestTagRoundTripsTheEnvelope) {
  api::QueryPair pair = ParsePair("R(x,y), R(y,z)", "R(a,b)");
  entropy::LinearExpr expr =
      entropy::ParseInequality("H(A)+H(B) >= H(A,B)").ValueOrDie().expr;
  std::vector<Request> requests = {
      DecideRequest{pair},
      DecideBagBagRequest{pair},
      DecideBatchRequest{{pair, pair}},
      ProveInequalityRequest{expr, {"A", "B"}},
      CheckMaxInequalityRequest{{expr}, entropy::ConeKind::kNormal},
      AnalyzeRequest{pair.q2},
      StatsRequest{},
      ClearCacheRequest{},
  };
  for (const Request& request : requests) {
    const std::string bytes = EncodeRequest(request);
    auto decoded = DecodeRequest(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->index(), request.index());
    // Canonical: re-encoding the decoded request reproduces the bytes.
    EXPECT_EQ(EncodeRequest(*decoded), bytes);
  }
}

TEST(ServiceMessageTest, EnvelopeRejectsWrongMagicVersionAndTag) {
  const std::string good = EncodeRequest(StatsRequest{});
  std::string bad_magic = good;
  bad_magic[0] = 'x';
  EXPECT_FALSE(DecodeRequest(bad_magic).ok());
  std::string bad_version = good;
  bad_version[2] = 99;
  EXPECT_FALSE(DecodeRequest(bad_version).ok());
  std::string bad_tag = good;
  bad_tag[3] = 0;
  EXPECT_FALSE(DecodeRequest(bad_tag).ok());
  EXPECT_FALSE(DecodeRequest(good + "trailing").ok());
  EXPECT_FALSE(DecodeRequest("").ok());
}

TEST(ServiceHandleTest, DecideMatchesDirectEngineUse) {
  api::QueryPair pair =
      ParsePair("R(x1,x2), R(x2,x3), R(x3,x1)", "R(y1,y2), R(y1,y3)");
  Service service{api::EngineOptions().set_warm_starts(false)};
  api::Engine direct{api::EngineOptions().set_warm_starts(false)};

  Response response = service.Handle(DecideRequest{pair});
  const auto* decision = std::get_if<DecisionResponse>(&response);
  ASSERT_NE(decision, nullptr);
  ASSERT_TRUE(decision->status.ok());
  ASSERT_TRUE(decision->result.has_value());

  api::DecisionResult expected = direct.Decide(pair.q1, pair.q2).ValueOrDie();
  EXPECT_EQ(EncodeNormalized(*decision->result), EncodeNormalized(expected));
}

TEST(ServiceHandleTest, BatchKeepsPerPairErrorsInOrder) {
  api::Engine parser;
  DecideBatchRequest batch;
  batch.pairs.push_back(ParsePair("R(x,y), R(y,z)", "R(a,b)"));
  // Mismatched vocabularies: a per-slot error, not a dead batch.
  batch.pairs.push_back(
      api::QueryPair{parser.ParseQuery("R(x,y)").ValueOrDie(),
                     parser.ParseQuery("S(x,y)").ValueOrDie()});
  batch.pairs.push_back(ParsePair("R(x,y)", "R(a,b)"));

  Service service;
  Response response = service.Handle(batch);
  const auto* reply = std::get_if<BatchResponse>(&response);
  ASSERT_NE(reply, nullptr);
  ASSERT_EQ(reply->results.size(), 3u);
  EXPECT_TRUE(reply->results[0].status.ok());
  EXPECT_FALSE(reply->results[1].status.ok());
  EXPECT_EQ(reply->results[1].status.code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(reply->results[2].status.ok());
}

TEST(ServiceHandleTest, ProveEchoesClientVariableNames) {
  auto parsed = entropy::ParseInequality("I(Alpha;Beta) >= 0").ValueOrDie();
  Service service;
  Response response =
      service.Handle(ProveInequalityRequest{parsed.expr, parsed.var_names});
  const auto* proof = std::get_if<ProofResponse>(&response);
  ASSERT_NE(proof, nullptr);
  ASSERT_TRUE(proof->status.ok());
  ASSERT_TRUE(proof->result.has_value());
  EXPECT_TRUE(proof->result->valid);
  EXPECT_EQ(proof->result->var_names,
            (std::vector<std::string>{"Alpha", "Beta"}));
}

TEST(ServiceHandleTest, CheckMaxInequalityAndAnalyzeWork) {
  Service service;
  entropy::LinearExpr mi = entropy::LinearExpr::MI(
      2, util::VarSet::Of({0}), util::VarSet::Of({1}));
  Response response = service.Handle(
      CheckMaxInequalityRequest{{mi}, entropy::ConeKind::kPolymatroid});
  const auto* proof = std::get_if<ProofResponse>(&response);
  ASSERT_NE(proof, nullptr);
  ASSERT_TRUE(proof->status.ok());
  EXPECT_TRUE(proof->result->valid);

  api::Engine parser;
  Response analysis_response = service.Handle(
      AnalyzeRequest{parser.ParseQuery("R(x,y), R(y,z)").ValueOrDie()});
  const auto* analysis = std::get_if<AnalysisResponse>(&analysis_response);
  ASSERT_NE(analysis, nullptr);
  EXPECT_TRUE(analysis->analysis.acyclic);
}

TEST(ServiceHandleTest, InvalidInputIsAPerRequestStatusNotACrash) {
  Service service;
  // Zero-variable inequality: the Engine's InvalidArgument must surface in
  // the ProofResponse status.
  Response response =
      service.Handle(ProveInequalityRequest{entropy::LinearExpr(0), {}});
  const auto* proof = std::get_if<ProofResponse>(&response);
  ASSERT_NE(proof, nullptr);
  EXPECT_EQ(proof->status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(proof->result.has_value());
}

TEST(ServiceHandleTest, StatsAndClearCacheDriveTheEngineSession) {
  Service service;
  api::QueryPair pair = ParsePair("R(x,y), R(y,z)", "R(a,b), R(b,c)");
  service.Handle(DecideRequest{pair});
  service.Handle(DecideRequest{pair});

  Response stats_response = service.Handle(StatsRequest{});
  const auto* stats = std::get_if<StatsResponse>(&stats_response);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->stats.decisions, 2);
  EXPECT_EQ(stats->workers, 1);

  Response ack_response = service.Handle(ClearCacheRequest{});
  ASSERT_TRUE(std::get_if<AckResponse>(&ack_response) != nullptr);
  stats_response = service.Handle(StatsRequest{});
  EXPECT_EQ(std::get_if<StatsResponse>(&stats_response)->stats.decisions, 0);
}

TEST(ServiceMessageTest, StatsDebugStringShowsEveryCounter) {
  StatsResponse stats;
  stats.workers = 4;
  stats.respawns = 1;
  stats.stats.decisions = 500;
  stats.stats.prover_constructions = 7;
  stats.stats.prover_cache_hits = 493;
  stats.stats.lp_warm_accepts = 320;
  stats.stats.lp_warm_pivots_saved = 1100;
  stats.stats.total_ms = 2.5;
  stats.queue_depth_hwm = {1, 2};
  const std::string text = DebugString(Response{stats});
  for (const char* token :
       {"workers=4", "respawns=1", "decisions=500", "proofs=", "errors=",
        "lp_solves=", "lp_pivots=", "lp_word_pivots=",
        "lp_bigint_promotions=", "memo_hits=", "store_hits=",
        "store_misses=", "store_appends=", "store_rejects=", "connections=",
        "in_flight=", "steals=", "bytes_in=", "bytes_out=",
        "queue_hwm=[1,2]", "prover_constructions=7",
        "prover_cache_hits=493", "lp_warm_accepts=320",
        "lp_warm_pivots_saved=1100", "total_ms=2.5"}) {
    EXPECT_NE(text.find(token), std::string::npos) << token << " in " << text;
  }
  // The retired wire slots, which always hold 0, are not shown.
  for (const char* token :
       {"lp_wide_pivots", "lp_screen_accepts", "lp_exact_fallbacks"}) {
    EXPECT_EQ(text.find(token), std::string::npos) << token << " in " << text;
  }
}

TEST(ServiceBytesTest, GarbageBytesComeBackAsEncodedErrorResponse) {
  Service service;
  for (const std::string& garbage :
       {std::string(""), std::string("hello"), std::string(200, '\xFF'),
        EncodeRequest(StatsRequest{}).substr(0, 3)}) {
    const std::string reply_bytes = service.HandleBytes(garbage);
    auto reply = DecodeResponse(reply_bytes);
    ASSERT_TRUE(reply.ok());
    const auto* error = std::get_if<ErrorResponse>(&*reply);
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->status.code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(ServiceBytesTest, BytesInBytesOutMatchesHandle) {
  api::QueryPair pair = ParsePair("R(x,y), R(y,x)", "R(a,b)");
  Service bytes_service{api::EngineOptions().set_warm_starts(false)};
  Service direct_service{api::EngineOptions().set_warm_starts(false)};

  const std::string reply_bytes =
      bytes_service.HandleBytes(EncodeRequest(DecideRequest{pair}));
  auto reply = DecodeResponse(reply_bytes);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();

  Response direct = direct_service.Handle(DecideRequest{pair});
  const auto* via_bytes = std::get_if<DecisionResponse>(&*reply);
  const auto* via_handle = std::get_if<DecisionResponse>(&direct);
  ASSERT_NE(via_bytes, nullptr);
  ASSERT_NE(via_handle, nullptr);
  ASSERT_TRUE(via_bytes->result.has_value());
  ASSERT_TRUE(via_handle->result.has_value());
  EXPECT_EQ(EncodeNormalized(*via_bytes->result),
            EncodeNormalized(*via_handle->result));
}

}  // namespace
}  // namespace bagcq::service
