// The bagcq wire format (version 2): a versioned, compact, canonical binary
// encoding for every type that crosses the service boundary — queries,
// entropy expressions, decisions with their exact certificates,
// counterexample polymatroids and witness databases, and util::Status with
// stable error codes.
//
// Shape: length-prefixed binary over the codec primitives (wire/codec.h).
// Exact values (Rational / BigInt) round-trip losslessly via canonical
// decimal magnitudes; doubles travel as IEEE-754 bits. Collections are
// encoded in their container's deterministic order, so Encode is canonical:
// equal values produce equal bytes (which is what makes the encoding usable
// as the Engine's decision-memo key, and byte-diffs a conformance check).
//
// Every DecodeX validates strictly before touching a library constructor —
// range checks, uniqueness, forest-ness, cone membership of enum tags —
// because the underlying types CHECK-abort on invariant violations and a
// corrupt or truncated buffer must come back as util::Status
// InvalidArgument, never a crash. Allocation is bounded by the buffer size
// (a claimed element count is checked against the remaining bytes before
// any reserve), so hostile lengths cannot OOM the decoder.
//
// The envelope (magic + version + tag) for request/response messages lives
// with the Service types in service/message.h; this header is the payload
// layer.
//
// Contract shared by every Encode*/Decode* pair below (stated once here,
// not repeated per function):
//   * EncodeX(v, e) appends the canonical byte sequence for v to the
//     Encoder — total, deterministic, and never fails (any X the library
//     can construct is encodable).
//   * DecodeX(d) consumes exactly one X from the Decoder and returns it,
//     or returns InvalidArgument ("wire: truncated or corrupt ...") on any
//     malformed, truncated, or non-canonical input, leaving no other error
//     mode: no exceptions, no CHECK aborts, no reads past the buffer.
//   * DecodeX(EncodeX(v)) == v, and re-encoding the result reproduces the
//     input bytes exactly (byte-compare equals value-compare).
//   * Free functions with no shared state: safe to call concurrently from
//     any number of threads (distinct Encoder/Decoder instances are not
//     thread-safe themselves — one thread per codec object).
//   * Every DecodeX return is effectively [[nodiscard]] (util::Result and
//     util::Status carry the class attribute): ignoring a decode outcome
//     and using a half-filled value is the exact bug the strict-validation
//     contract exists to prevent, so it fails the -Werror=unused-result
//     build.
//
// The normative byte-level specification, field by field, is
// docs/wire-format.md; layouts here are frozen within kWireVersion.
#pragma once

#include <string>

#include "api/engine.h"
#include "api/result.h"
#include "core/containment_inequality.h"
#include "core/witness.h"
#include "cq/query.h"
#include "cq/structure.h"
#include "entropy/linear_expr.h"
#include "entropy/max_ii.h"
#include "entropy/relation.h"
#include "entropy/set_function.h"
#include "entropy/shannon.h"
#include "graph/tree_decomposition.h"
#include "util/bigint.h"
#include "util/rational.h"
#include "util/status.h"
#include "util/varset.h"
#include "wire/codec.h"

namespace bagcq::wire {

/// Bumped on any incompatible layout change; checked by the envelope.
/// History: 1 → 2 appended the persistent-store counters to CallStats
/// (store_hit) and EngineStats (store_hits/misses/appends/rejects).
/// 2 → 3 appended the escalation-ladder counters (int64-tier pivots,
/// 128-bit-tier pivots, BigInt promotions) to CallStats and EngineStats
/// (before total_ms). The 128-bit tier is gone; its slot always holds 0.
/// 3 → 4 appended the front-level serving counters to the kStats response
/// body (connections/in_flight/steals/bytes_in/bytes_out and the
/// per-worker queue-depth high-water list).
/// 4 → 5 appended the streaming-batch arm: RequestTag kDecideBatchStream
/// (a chunk of a client-sliced batch, carrying its stream offset and a
/// final marker) and ResponseTag kBatchChunk (the per-chunk reply echoing
/// both), so a million-pair batch flows as bounded chunks instead of one
/// giant frame each way. Proof-store records carry no envelope, so
/// persisted logs survive version bumps unchanged.
inline constexpr uint8_t kWireVersion = 5;

// ------------------------------------------------------------- scalars
void EncodeBigInt(const util::BigInt& v, Encoder* e);
util::Result<util::BigInt> DecodeBigInt(Decoder* d);

void EncodeRational(const util::Rational& v, Encoder* e);
util::Result<util::Rational> DecodeRational(Decoder* d);

void EncodeVarSet(util::VarSet v, Encoder* e);
util::Result<util::VarSet> DecodeVarSet(Decoder* d);

/// StatusCode values are part of the wire contract (stable across versions).
/// (Out-param signature: Result<Status> would be a status-or-status.)
void EncodeStatus(const util::Status& v, Encoder* e);
util::Status DecodeStatus(Decoder* d, util::Status* out);

// ------------------------------------------------------------- queries
void EncodeVocabulary(const cq::Vocabulary& v, Encoder* e);
util::Result<cq::Vocabulary> DecodeVocabulary(Decoder* d);

void EncodeQuery(const cq::ConjunctiveQuery& q, Encoder* e);
util::Result<cq::ConjunctiveQuery> DecodeQuery(Decoder* d);

void EncodeQueryPair(const api::QueryPair& p, Encoder* e);
util::Result<api::QueryPair> DecodeQueryPair(Decoder* d);

void EncodeStructure(const cq::Structure& s, Encoder* e);
util::Result<cq::Structure> DecodeStructure(Decoder* d);

// ------------------------------------------------------------- entropy
void EncodeLinearExpr(const entropy::LinearExpr& v, Encoder* e);
util::Result<entropy::LinearExpr> DecodeLinearExpr(Decoder* d);

void EncodeCondExpr(const entropy::CondExpr& v, Encoder* e);
util::Result<entropy::CondExpr> DecodeCondExpr(Decoder* d);

void EncodeSetFunction(const entropy::SetFunction& v, Encoder* e);
util::Result<entropy::SetFunction> DecodeSetFunction(Decoder* d);

void EncodeRelation(const entropy::Relation& v, Encoder* e);
util::Result<entropy::Relation> DecodeRelation(Decoder* d);

void EncodeElemental(const entropy::ElementalInequality& v, Encoder* e);
util::Result<entropy::ElementalInequality> DecodeElemental(Decoder* d);

void EncodeShannonCertificate(const entropy::ShannonCertificate& v,
                              Encoder* e);
util::Result<entropy::ShannonCertificate> DecodeShannonCertificate(Decoder* d);

void EncodeMaxIIResult(const entropy::MaxIIResult& v, Encoder* e);
util::Result<entropy::MaxIIResult> DecodeMaxIIResult(Decoder* d);

// ----------------------------------------------------- decision results
void EncodeTreeDecomposition(const graph::TreeDecomposition& v, Encoder* e);
util::Result<graph::TreeDecomposition> DecodeTreeDecomposition(Decoder* d);

void EncodeQ2Analysis(const core::Q2Analysis& v, Encoder* e);
util::Result<core::Q2Analysis> DecodeQ2Analysis(Decoder* d);

void EncodeContainmentInequality(const core::ContainmentInequality& v,
                                 Encoder* e);
util::Result<core::ContainmentInequality> DecodeContainmentInequality(
    Decoder* d);

void EncodeWitness(const core::Witness& v, Encoder* e);
util::Result<core::Witness> DecodeWitness(Decoder* d);

void EncodeCallStats(const api::CallStats& v, Encoder* e);
util::Result<api::CallStats> DecodeCallStats(Decoder* d);

void EncodeDecisionResult(const api::DecisionResult& v, Encoder* e);
util::Result<api::DecisionResult> DecodeDecisionResult(Decoder* d);

void EncodeProofResult(const api::ProofResult& v, Encoder* e);
util::Result<api::ProofResult> DecodeProofResult(Decoder* d);

void EncodeEngineStats(const api::EngineStats& v, Encoder* e);
util::Result<api::EngineStats> DecodeEngineStats(Decoder* d);

// ----------------------------------------------------------- memo key
/// The canonical *structural* key of a containment question: vocabulary,
/// variable count, head, and atoms of both queries plus the semantics flag —
/// variable *names* are deliberately excluded, so whitespace- and
/// renaming-variants of one pair produce one key. This is the Engine's
/// decision-memo key and the server's shard-routing key (hash it with
/// Fingerprint).
[[nodiscard]] std::string CanonicalPairKey(const cq::ConjunctiveQuery& q1,
                                           const cq::ConjunctiveQuery& q2,
                                           bool bag_bag);

}  // namespace bagcq::wire
