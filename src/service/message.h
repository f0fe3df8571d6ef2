// The service protocol: one tagged Request union covering every Engine
// capability, one tagged Response union carrying the outcome, and the
// versioned wire envelope that frames them —
//
//   [0] 'b'  [1] 'q'        magic
//   [2] version             wire::kWireVersion
//   [3] tag                 RequestTag / ResponseTag
//   [4..] payload           wire/wire.h encoding of the tagged struct
//
// Decode rejects wrong magic, unknown versions, unknown tags, corrupt
// payloads, and trailing bytes — always as util::Status, never a crash — so
// `bytes in / bytes out` is a safe public boundary. Requests carry parsed
// structures (queries, expressions), not raw text: clients parse locally
// and the server never re-parses, which is also what makes the canonical
// encoding usable as a routing hash.
#pragma once

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "api/engine.h"
#include "api/result.h"
#include "entropy/linear_expr.h"
#include "entropy/max_ii.h"
#include "util/status.h"

namespace bagcq::service {

// ---------------------------------------------------------------- requests

struct DecideRequest {
  api::QueryPair pair;
};

struct DecideBagBagRequest {
  api::QueryPair pair;
};

struct DecideBatchRequest {
  std::vector<api::QueryPair> pairs;
};

struct ProveInequalityRequest {
  entropy::LinearExpr expr{0};
  /// Variable names in index order (optional); echoed into the result so a
  /// text client gets its own names back in certificates.
  std::vector<std::string> var_names;
};

struct CheckMaxInequalityRequest {
  std::vector<entropy::LinearExpr> branches;
  entropy::ConeKind cone = entropy::ConeKind::kPolymatroid;
};

struct AnalyzeRequest {
  cq::ConjunctiveQuery q2{cq::Vocabulary()};
};

struct StatsRequest {};

struct ClearCacheRequest {};

/// One chunk of a streamed batch (wire v5). A client slices a large batch
/// into chunk requests on one connection and bounds how many it keeps in
/// flight; the server answers each with a BatchChunkResponse, so results
/// flow incrementally and neither side ever materializes the whole stream.
/// `first_index`/`final_chunk` are opaque to the engines — the server
/// echoes them so the client can verify reassembly order and termination.
struct DecideBatchStreamRequest {
  std::vector<api::QueryPair> pairs;
  /// Stream position of pairs[0] (the chunks of one stream are contiguous:
  /// each chunk starts where the previous one ended).
  uint64_t first_index = 0;
  /// True on the stream's last chunk; a final chunk may be empty (a way to
  /// terminate a stream without new work).
  bool final_chunk = false;
};

using Request =
    std::variant<DecideRequest, DecideBagBagRequest, DecideBatchRequest,
                 ProveInequalityRequest, CheckMaxInequalityRequest,
                 AnalyzeRequest, StatsRequest, ClearCacheRequest,
                 DecideBatchStreamRequest>;

/// Wire tags are a stable contract: values never change meaning, new
/// requests append. Kept in variant-index order so tag = index + 1.
enum class RequestTag : uint8_t {
  kDecide = 1,
  kDecideBagBag = 2,
  kDecideBatch = 3,
  kProveInequality = 4,
  kCheckMaxInequality = 5,
  kAnalyze = 6,
  kStats = 7,
  kClearCache = 8,
  kDecideBatchStream = 9,
};

// --------------------------------------------------------------- responses

/// Outcome of one decision: an error status (per-pair, the batch never
/// aborts) or the full DecisionResult.
struct DecisionResponse {
  util::Status status;
  std::optional<api::DecisionResult> result;
};

struct BatchResponse {
  /// One entry per input pair, in input order.
  std::vector<DecisionResponse> results;
};

struct ProofResponse {
  util::Status status;
  std::optional<api::ProofResult> result;
};

struct AnalysisResponse {
  core::Q2Analysis analysis;
};

struct StatsResponse {
  /// Aggregate across every worker Engine behind the serving surface (one
  /// for an in-process Service; per-worker counters summed through
  /// EngineStats::operator+= for a sharded server).
  api::EngineStats stats;
  int64_t workers = 1;
  /// Worker processes re-forked after a crash since the pool started (0 for
  /// an in-process Service, which has no workers to lose). A respawned
  /// worker starts with a fresh Engine, so its counters restart from zero —
  /// a nonzero value here explains a stats aggregate that appears to have
  /// gone backwards.
  int64_t respawns = 0;

  // Front-level serving counters (wire v4, appended after respawns). They
  // describe the serving front the Stats request entered through, not the
  // engines behind it: an in-process Service reports zeros. All are filled
  // by the event loop on its own thread — readers never race the workers.

  /// Client connections open at the instant the Stats request was answered.
  int64_t connections = 0;
  /// Requests accepted but not yet fully replied at that instant (the
  /// drain barrier: SIGTERM waits for exactly this to reach zero).
  int64_t in_flight = 0;
  /// Thread mode only: requests executed by a worker other than their
  /// fingerprint-affine one because that worker's queue ran deep while the
  /// thief sat idle. Zero in fork mode (processes cannot steal). A nonzero
  /// value under single-pair traffic is the work-stealing tier operating
  /// as designed, not a routing bug.
  int64_t steals = 0;
  /// Request bytes read from / response bytes written to client
  /// connections since the server started (frame headers included,
  /// worker-link traffic excluded).
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  /// Per-worker queue-depth high-water mark since start, index = worker.
  /// Thread mode counts queued-not-yet-started requests; fork mode counts
  /// frames in flight to that worker process. Sized workers() when served
  /// by a server front, empty from an in-process Service.
  std::vector<int64_t> queue_depth_hwm;
};

struct AckResponse {
  util::Status status;
};

/// The request itself could not be served (undecodable, unroutable, worker
/// lost) — the transport-level failure reply.
struct ErrorResponse {
  util::Status status;
};

/// Reply to one DecideBatchStreamRequest chunk (wire v5): the chunk's
/// results in input order, with the request's stream position and final
/// marker echoed back. A client reassembling a stream concatenates the
/// results of consecutive chunks; the echoes make a reordering or a
/// dropped chunk detectable instead of silently mis-indexed.
struct BatchChunkResponse {
  uint64_t first_index = 0;
  bool final_chunk = false;
  /// One entry per chunk pair, in chunk order (per-pair failures are
  /// per-slot statuses, exactly like BatchResponse).
  std::vector<DecisionResponse> results;
};

using Response =
    std::variant<DecisionResponse, BatchResponse, ProofResponse,
                 AnalysisResponse, StatsResponse, AckResponse, ErrorResponse,
                 BatchChunkResponse>;

enum class ResponseTag : uint8_t {
  kDecision = 1,
  kBatch = 2,
  kProof = 3,
  kAnalysis = 4,
  kStats = 5,
  kAck = 6,
  kError = 7,
  kBatchChunk = 8,
};

// ---------------------------------------------------------------- envelope
// Free, stateless functions (thread-safe). Encode* is total and canonical
// (equal values → equal bytes); Decode* returns InvalidArgument on wrong
// magic, unknown version or tag, corrupt payload, or trailing bytes —
// never a crash. The byte-level layout is docs/wire-format.md §3.

[[nodiscard]] std::string EncodeRequest(const Request& request);
util::Result<Request> DecodeRequest(std::string_view bytes);

[[nodiscard]] std::string EncodeResponse(const Response& response);
util::Result<Response> DecodeResponse(std::string_view bytes);

/// The text debug form of the protocol: one-line human-readable summaries
/// (tag, sizes, verdicts, statuses) — what the CLI tools print.
std::string DebugString(const Request& request);
std::string DebugString(const Response& response);

}  // namespace bagcq::service
