#include "service/message.h"

#include <sstream>

#include "core/decider.h"
#include "wire/wire.h"

namespace bagcq::service {

namespace {

using wire::Decoder;
using wire::Encoder;

constexpr char kMagic0 = 'b';
constexpr char kMagic1 = 'q';

#define WIRE_GET(call, what) \
  if (!(call)) return d->Fail(what)

void PutEnvelope(uint8_t tag, Encoder* e) {
  e->PutByte(kMagic0);
  e->PutByte(kMagic1);
  e->PutByte(wire::kWireVersion);
  e->PutByte(tag);
}

/// Strips and checks magic + version; hands back the tag.
util::Result<uint8_t> GetEnvelope(Decoder* d) {
  uint8_t m0, m1, version, tag;
  if (!d->GetByte(&m0) || !d->GetByte(&m1) || m0 != kMagic0 || m1 != kMagic1) {
    return d->Fail("envelope magic");
  }
  WIRE_GET(d->GetByte(&version), "envelope version");
  if (version != wire::kWireVersion) {
    return util::Status::InvalidArgument(
        "wire: unsupported version " + std::to_string(version) +
        " (this build speaks " + std::to_string(wire::kWireVersion) + ")");
  }
  WIRE_GET(d->GetByte(&tag), "envelope tag");
  return tag;
}

template <typename T>
void EncodeQueryPairs(const std::vector<T>& pairs, Encoder* e) {
  e->PutVarint(pairs.size());
  for (const api::QueryPair& pair : pairs) wire::EncodeQueryPair(pair, e);
}

util::Result<std::vector<api::QueryPair>> DecodeQueryPairs(Decoder* d) {
  uint64_t count;
  WIRE_GET(d->GetVarint(&count), "batch size");
  if (count > d->remaining()) return d->Fail("batch size");
  std::vector<api::QueryPair> pairs;
  pairs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    BAGCQ_ASSIGN_OR_RETURN(api::QueryPair pair, wire::DecodeQueryPair(d));
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

void EncodeExprList(const std::vector<entropy::LinearExpr>& exprs,
                    Encoder* e) {
  e->PutVarint(exprs.size());
  for (const entropy::LinearExpr& expr : exprs) {
    wire::EncodeLinearExpr(expr, e);
  }
}

util::Result<std::vector<entropy::LinearExpr>> DecodeExprList(Decoder* d) {
  uint64_t count;
  WIRE_GET(d->GetVarint(&count), "branch count");
  if (count > d->remaining()) return d->Fail("branch count");
  std::vector<entropy::LinearExpr> exprs;
  exprs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    BAGCQ_ASSIGN_OR_RETURN(entropy::LinearExpr expr,
                           wire::DecodeLinearExpr(d));
    exprs.push_back(std::move(expr));
  }
  return exprs;
}

void EncodeNameList(const std::vector<std::string>& names, Encoder* e) {
  e->PutVarint(names.size());
  for (const std::string& name : names) e->PutBytes(name);
}

util::Result<std::vector<std::string>> DecodeNameList(Decoder* d) {
  uint64_t count;
  WIRE_GET(d->GetVarint(&count), "name count");
  if (count > d->remaining()) return d->Fail("name count");
  std::vector<std::string> names;
  names.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    WIRE_GET(d->GetBytes(&name), "name");
    names.push_back(std::move(name));
  }
  return names;
}

void EncodeDecisionResponse(const DecisionResponse& v, Encoder* e) {
  wire::EncodeStatus(v.status, e);
  e->PutBool(v.result.has_value());
  if (v.result.has_value()) wire::EncodeDecisionResult(*v.result, e);
}

util::Result<DecisionResponse> DecodeDecisionResponse(Decoder* d) {
  DecisionResponse out;
  BAGCQ_RETURN_NOT_OK(wire::DecodeStatus(d, &out.status));
  bool present;
  WIRE_GET(d->GetBool(&present), "decision presence");
  if (present) {
    BAGCQ_ASSIGN_OR_RETURN(out.result, wire::DecodeDecisionResult(d));
  }
  return out;
}

}  // namespace

std::string EncodeRequest(const Request& request) {
  Encoder e;
  PutEnvelope(static_cast<uint8_t>(request.index()) + 1, &e);
  std::visit(
      [&e](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, DecideRequest> ||
                      std::is_same_v<T, DecideBagBagRequest>) {
          wire::EncodeQueryPair(r.pair, &e);
        } else if constexpr (std::is_same_v<T, DecideBatchRequest>) {
          EncodeQueryPairs(r.pairs, &e);
        } else if constexpr (std::is_same_v<T, ProveInequalityRequest>) {
          wire::EncodeLinearExpr(r.expr, &e);
          EncodeNameList(r.var_names, &e);
        } else if constexpr (std::is_same_v<T, CheckMaxInequalityRequest>) {
          EncodeExprList(r.branches, &e);
          e.PutByte(static_cast<uint8_t>(r.cone));
        } else if constexpr (std::is_same_v<T, AnalyzeRequest>) {
          wire::EncodeQuery(r.q2, &e);
        } else if constexpr (std::is_same_v<T, DecideBatchStreamRequest>) {
          e.PutVarint(r.first_index);
          e.PutBool(r.final_chunk);
          EncodeQueryPairs(r.pairs, &e);
        }
        // StatsRequest / ClearCacheRequest: tag only, empty payload.
      },
      request);
  return e.Take();
}

util::Result<Request> DecodeRequest(std::string_view bytes) {
  Decoder decoder(bytes);
  Decoder* d = &decoder;
  BAGCQ_ASSIGN_OR_RETURN(uint8_t tag, GetEnvelope(d));
  Request out = StatsRequest{};
  switch (static_cast<RequestTag>(tag)) {
    case RequestTag::kDecide: {
      BAGCQ_ASSIGN_OR_RETURN(api::QueryPair pair, wire::DecodeQueryPair(d));
      out = DecideRequest{std::move(pair)};
      break;
    }
    case RequestTag::kDecideBagBag: {
      BAGCQ_ASSIGN_OR_RETURN(api::QueryPair pair, wire::DecodeQueryPair(d));
      out = DecideBagBagRequest{std::move(pair)};
      break;
    }
    case RequestTag::kDecideBatch: {
      BAGCQ_ASSIGN_OR_RETURN(std::vector<api::QueryPair> pairs,
                             DecodeQueryPairs(d));
      out = DecideBatchRequest{std::move(pairs)};
      break;
    }
    case RequestTag::kProveInequality: {
      ProveInequalityRequest req;
      BAGCQ_ASSIGN_OR_RETURN(req.expr, wire::DecodeLinearExpr(d));
      BAGCQ_ASSIGN_OR_RETURN(req.var_names, DecodeNameList(d));
      out = std::move(req);
      break;
    }
    case RequestTag::kCheckMaxInequality: {
      CheckMaxInequalityRequest req;
      BAGCQ_ASSIGN_OR_RETURN(req.branches, DecodeExprList(d));
      uint8_t cone;
      WIRE_GET(d->GetByte(&cone), "cone kind");
      if (cone > static_cast<uint8_t>(entropy::ConeKind::kModular)) {
        return d->Fail("cone kind");
      }
      req.cone = static_cast<entropy::ConeKind>(cone);
      out = std::move(req);
      break;
    }
    case RequestTag::kAnalyze: {
      BAGCQ_ASSIGN_OR_RETURN(cq::ConjunctiveQuery q2, wire::DecodeQuery(d));
      out = AnalyzeRequest{std::move(q2)};
      break;
    }
    case RequestTag::kStats:
      out = StatsRequest{};
      break;
    case RequestTag::kClearCache:
      out = ClearCacheRequest{};
      break;
    case RequestTag::kDecideBatchStream: {
      DecideBatchStreamRequest req;
      WIRE_GET(d->GetVarint(&req.first_index), "stream first index");
      WIRE_GET(d->GetBool(&req.final_chunk), "stream final flag");
      BAGCQ_ASSIGN_OR_RETURN(req.pairs, DecodeQueryPairs(d));
      out = std::move(req);
      break;
    }
    default:
      return d->Fail("request tag");
  }
  BAGCQ_RETURN_NOT_OK(d->ExpectExhausted("request"));
  return out;
}

std::string EncodeResponse(const Response& response) {
  Encoder e;
  PutEnvelope(static_cast<uint8_t>(response.index()) + 1, &e);
  std::visit(
      [&e](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, DecisionResponse>) {
          EncodeDecisionResponse(r, &e);
        } else if constexpr (std::is_same_v<T, BatchResponse>) {
          e.PutVarint(r.results.size());
          for (const DecisionResponse& one : r.results) {
            EncodeDecisionResponse(one, &e);
          }
        } else if constexpr (std::is_same_v<T, ProofResponse>) {
          wire::EncodeStatus(r.status, &e);
          e.PutBool(r.result.has_value());
          if (r.result.has_value()) wire::EncodeProofResult(*r.result, &e);
        } else if constexpr (std::is_same_v<T, AnalysisResponse>) {
          wire::EncodeQ2Analysis(r.analysis, &e);
        } else if constexpr (std::is_same_v<T, StatsResponse>) {
          wire::EncodeEngineStats(r.stats, &e);
          e.PutSigned(r.workers);
          e.PutSigned(r.respawns);
          // v4 appended the front-level serving counters.
          e.PutSigned(r.connections);
          e.PutSigned(r.in_flight);
          e.PutSigned(r.steals);
          e.PutSigned(r.bytes_in);
          e.PutSigned(r.bytes_out);
          e.PutVarint(r.queue_depth_hwm.size());
          for (int64_t depth : r.queue_depth_hwm) e.PutSigned(depth);
        } else if constexpr (std::is_same_v<T, AckResponse> ||
                             std::is_same_v<T, ErrorResponse>) {
          wire::EncodeStatus(r.status, &e);
        } else if constexpr (std::is_same_v<T, BatchChunkResponse>) {
          e.PutVarint(r.first_index);
          e.PutBool(r.final_chunk);
          e.PutVarint(r.results.size());
          for (const DecisionResponse& one : r.results) {
            EncodeDecisionResponse(one, &e);
          }
        }
      },
      response);
  return e.Take();
}

util::Result<Response> DecodeResponse(std::string_view bytes) {
  Decoder decoder(bytes);
  Decoder* d = &decoder;
  BAGCQ_ASSIGN_OR_RETURN(uint8_t tag, GetEnvelope(d));
  Response out = ErrorResponse{};
  switch (static_cast<ResponseTag>(tag)) {
    case ResponseTag::kDecision: {
      BAGCQ_ASSIGN_OR_RETURN(DecisionResponse one, DecodeDecisionResponse(d));
      out = std::move(one);
      break;
    }
    case ResponseTag::kBatch: {
      uint64_t count;
      WIRE_GET(d->GetVarint(&count), "batch results");
      if (count > d->remaining()) return d->Fail("batch results");
      BatchResponse batch;
      batch.results.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        BAGCQ_ASSIGN_OR_RETURN(DecisionResponse one,
                               DecodeDecisionResponse(d));
        batch.results.push_back(std::move(one));
      }
      out = std::move(batch);
      break;
    }
    case ResponseTag::kProof: {
      ProofResponse proof;
      BAGCQ_RETURN_NOT_OK(wire::DecodeStatus(d, &proof.status));
      bool present;
      WIRE_GET(d->GetBool(&present), "proof presence");
      if (present) {
        BAGCQ_ASSIGN_OR_RETURN(proof.result, wire::DecodeProofResult(d));
      }
      out = std::move(proof);
      break;
    }
    case ResponseTag::kAnalysis: {
      AnalysisResponse analysis;
      BAGCQ_ASSIGN_OR_RETURN(analysis.analysis, wire::DecodeQ2Analysis(d));
      out = analysis;
      break;
    }
    case ResponseTag::kStats: {
      StatsResponse stats;
      BAGCQ_ASSIGN_OR_RETURN(stats.stats, wire::DecodeEngineStats(d));
      WIRE_GET(d->GetSigned(&stats.workers), "stats workers");
      WIRE_GET(d->GetSigned(&stats.respawns), "stats respawns");
      WIRE_GET(d->GetSigned(&stats.connections), "stats connections");
      WIRE_GET(d->GetSigned(&stats.in_flight), "stats in_flight");
      WIRE_GET(d->GetSigned(&stats.steals), "stats steals");
      WIRE_GET(d->GetSigned(&stats.bytes_in), "stats bytes_in");
      WIRE_GET(d->GetSigned(&stats.bytes_out), "stats bytes_out");
      uint64_t queues;
      WIRE_GET(d->GetVarint(&queues), "stats queue count");
      if (queues > d->remaining()) return d->Fail("stats queue count");
      stats.queue_depth_hwm.resize(queues);
      for (uint64_t i = 0; i < queues; ++i) {
        WIRE_GET(d->GetSigned(&stats.queue_depth_hwm[i]), "stats queue hwm");
      }
      out = std::move(stats);
      break;
    }
    case ResponseTag::kAck: {
      AckResponse ack;
      BAGCQ_RETURN_NOT_OK(wire::DecodeStatus(d, &ack.status));
      out = std::move(ack);
      break;
    }
    case ResponseTag::kError: {
      ErrorResponse error;
      BAGCQ_RETURN_NOT_OK(wire::DecodeStatus(d, &error.status));
      out = std::move(error);
      break;
    }
    case ResponseTag::kBatchChunk: {
      BatchChunkResponse chunk;
      WIRE_GET(d->GetVarint(&chunk.first_index), "chunk first index");
      WIRE_GET(d->GetBool(&chunk.final_chunk), "chunk final flag");
      uint64_t count;
      WIRE_GET(d->GetVarint(&count), "chunk results");
      if (count > d->remaining()) return d->Fail("chunk results");
      chunk.results.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        BAGCQ_ASSIGN_OR_RETURN(DecisionResponse one,
                               DecodeDecisionResponse(d));
        chunk.results.push_back(std::move(one));
      }
      out = std::move(chunk);
      break;
    }
    default:
      return d->Fail("response tag");
  }
  BAGCQ_RETURN_NOT_OK(d->ExpectExhausted("response"));
  return out;
}

std::string DebugString(const Request& request) {
  std::ostringstream os;
  std::visit(
      [&os](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, DecideRequest>) {
          os << "Decide{" << r.pair.q1.ToString() << " vs "
             << r.pair.q2.ToString() << "}";
        } else if constexpr (std::is_same_v<T, DecideBagBagRequest>) {
          os << "DecideBagBag{" << r.pair.q1.ToString() << " vs "
             << r.pair.q2.ToString() << "}";
        } else if constexpr (std::is_same_v<T, DecideBatchRequest>) {
          os << "DecideBatch{" << r.pairs.size() << " pairs}";
        } else if constexpr (std::is_same_v<T, ProveInequalityRequest>) {
          os << "ProveInequality{" << r.expr.ToString() << "}";
        } else if constexpr (std::is_same_v<T, CheckMaxInequalityRequest>) {
          os << "CheckMaxInequality{" << r.branches.size() << " branches over "
             << entropy::ConeKindToString(r.cone) << "}";
        } else if constexpr (std::is_same_v<T, AnalyzeRequest>) {
          os << "Analyze{" << r.q2.ToString() << "}";
        } else if constexpr (std::is_same_v<T, StatsRequest>) {
          os << "Stats{}";
        } else if constexpr (std::is_same_v<T, DecideBatchStreamRequest>) {
          os << "DecideBatchStream{" << r.pairs.size() << " pairs at "
             << r.first_index << (r.final_chunk ? ", final}" : "}");
        } else {
          os << "ClearCache{}";
        }
      },
      request);
  return os.str();
}

std::string DebugString(const Response& response) {
  std::ostringstream os;
  auto one_decision = [&os](const DecisionResponse& r) {
    if (!r.status.ok()) {
      os << "error: " << r.status.ToString();
    } else if (r.result.has_value()) {
      os << core::VerdictToString(r.result->verdict) << " ["
         << r.result->method << "]";
    } else {
      os << "empty";
    }
  };
  std::visit(
      [&](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, DecisionResponse>) {
          os << "Decision{";
          one_decision(r);
          os << "}";
        } else if constexpr (std::is_same_v<T, BatchResponse>) {
          os << "Batch{" << r.results.size() << " results}";
        } else if constexpr (std::is_same_v<T, ProofResponse>) {
          os << "Proof{";
          if (!r.status.ok()) {
            os << "error: " << r.status.ToString();
          } else if (r.result.has_value()) {
            os << r.result->ToString();
          }
          os << "}";
        } else if constexpr (std::is_same_v<T, AnalysisResponse>) {
          os << "Analysis{acyclic=" << (r.analysis.acyclic ? "yes" : "no")
             << ", chordal=" << (r.analysis.chordal ? "yes" : "no")
             << ", simple-JT="
             << (r.analysis.simple_junction_tree ? "yes" : "no") << "}";
        } else if constexpr (std::is_same_v<T, StatsResponse>) {
          os << "Stats{workers=" << r.workers
             << ", respawns=" << r.respawns
             << ", decisions=" << r.stats.decisions
             << ", proofs=" << r.stats.proofs << ", errors=" << r.stats.errors
             << ", lp_solves=" << r.stats.lp_solves
             << ", lp_pivots=" << r.stats.lp_pivots
             << ", lp_word_pivots=" << r.stats.lp_word_pivots
             << ", lp_bigint_promotions=" << r.stats.lp_bigint_promotions
             << ", memo_hits=" << r.stats.decision_memo_hits
             << ", store_hits=" << r.stats.store_hits
             << ", store_misses=" << r.stats.store_misses
             << ", store_appends=" << r.stats.store_appends
             << ", store_rejects=" << r.stats.store_rejects
             << ", connections=" << r.connections
             << ", in_flight=" << r.in_flight << ", steals=" << r.steals
             << ", bytes_in=" << r.bytes_in << ", bytes_out=" << r.bytes_out
             << ", queue_hwm=[";
          for (size_t i = 0; i < r.queue_depth_hwm.size(); ++i) {
            os << (i > 0 ? "," : "") << r.queue_depth_hwm[i];
          }
          os << "], prover_constructions=" << r.stats.prover_constructions
             << ", prover_cache_hits=" << r.stats.prover_cache_hits
             << ", lp_warm_accepts=" << r.stats.lp_warm_accepts
             << ", lp_warm_pivots_saved=" << r.stats.lp_warm_pivots_saved
             << ", total_ms=" << r.stats.total_ms << "}";
        } else if constexpr (std::is_same_v<T, AckResponse>) {
          os << "Ack{" << r.status.ToString() << "}";
        } else if constexpr (std::is_same_v<T, BatchChunkResponse>) {
          os << "BatchChunk{" << r.results.size() << " results at "
             << r.first_index << (r.final_chunk ? ", final}" : "}");
        } else {
          os << "Error{" << r.status.ToString() << "}";
        }
      },
      response);
  return os.str();
}

#undef WIRE_GET

}  // namespace bagcq::service
