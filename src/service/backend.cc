#include "service/backend.h"

#include <cerrno>
#include <cstring>
#include <optional>
#include <poll.h>
#include <type_traits>
#include <utility>
#include <variant>

#include "wire/wire.h"

namespace bagcq::service {

// ================================================================ Backend

size_t Backend::ShardFor(const api::QueryPair& pair, bool bag_bag) const {
  return wire::Fingerprint(wire::CanonicalPairKey(pair.q1, pair.q2, bag_bag)) %
         static_cast<size_t>(num_workers());
}

std::string Backend::DispatchBytes(std::string_view request_bytes) {
  if (num_workers() == 0) {
    return EncodeResponse(
        ErrorResponse{util::Status::Internal("serving pool not started")});
  }
  std::optional<std::string> reply;
  CallTable calls(this, [&reply](uint64_t, uint64_t, std::string bytes) {
    reply = std::move(bytes);
  });
  calls.Start(0, 0, request_bytes);
  while (!reply.has_value()) {
    pollfd pfd{completion_fd(), POLLIN, 0};
    if (::poll(&pfd, 1, -1) < 0) {
      if (errno == EINTR) continue;
      // The exchanges stay in flight; the next front drops them by id.
      return EncodeResponse(ErrorResponse{util::Status::Internal(
          std::string("dispatch: poll failed: ") + std::strerror(errno))});
    }
    for (Completion& done : TakeCompletions()) calls.Complete(std::move(done));
  }
  return *std::move(reply);
}

Response Backend::Dispatch(const Request& request) {
  auto reply = DecodeResponse(DispatchBytes(EncodeRequest(request)));
  if (!reply.ok()) return ErrorResponse{reply.status()};
  return *std::move(reply);
}

// ============================================================== CallTable

CallTable::CallTable(Backend* backend, DeliverFn deliver,
                     FrontStatsFn front_stats)
    : backend_(backend),
      deliver_(std::move(deliver)),
      front_stats_(std::move(front_stats)) {}

uint64_t CallTable::NewCall(Call call) {
  const uint64_t id = next_call_id_++;
  calls_.emplace(id, std::move(call));
  return id;
}

void CallTable::Submit(uint64_t call_id, size_t worker,
                       std::vector<size_t> positions, std::string payload,
                       bool pinned) {
  const uint64_t id = backend_->NextId();
  exchanges_.emplace(id, Exchange{call_id, std::move(positions)});
  const util::Status submitted =
      backend_->Submit(worker, id, std::move(payload), pinned);
  // A rejected submit (full queue, worker down) fails only this exchange's
  // slots, exactly like a worker lost with the exchange in flight.
  if (!submitted.ok()) Complete(Backend::Completion{id, {}, submitted});
}

void CallTable::Start(uint64_t conn, uint64_t seq, std::string_view payload) {
  auto request = DecodeRequest(payload);
  if (!request.ok()) {
    deliver_(conn, seq, EncodeResponse(ErrorResponse{request.status()}));
    return;
  }
  const size_t workers = static_cast<size_t>(backend_->num_workers());
  Call call;
  call.conn = conn;
  call.seq = seq;
  std::visit(
      [&](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, DecideRequest> ||
                      std::is_same_v<T, DecideBagBagRequest>) {
          call.outstanding = 1;
          const size_t w = backend_->ShardFor(
              r.pair, std::is_same_v<T, DecideBagBagRequest>);
          Submit(NewCall(std::move(call)), w, {}, std::string(payload));
        } else if constexpr (std::is_same_v<T, DecideBatchRequest> ||
                             std::is_same_v<T, DecideBatchStreamRequest>) {
          // A stream chunk is a batch with an echoed position: the workers
          // only ever see plain sub-batches, one per shard, and the merged
          // slots keep input order.
          constexpr bool is_stream =
              std::is_same_v<T, DecideBatchStreamRequest>;
          std::vector<std::vector<size_t>> positions(workers);
          std::vector<DecideBatchRequest> shards(workers);
          for (size_t i = 0; i < r.pairs.size(); ++i) {
            const size_t w = backend_->ShardFor(r.pairs[i], /*bag_bag=*/false);
            positions[w].push_back(i);
            shards[w].pairs.push_back(r.pairs[i]);
          }
          call.kind = is_stream ? CallKind::kStreamChunk : CallKind::kBatch;
          if constexpr (is_stream) {
            call.chunk_first = r.first_index;
            call.chunk_final = r.final_chunk;
          }
          call.merged.results.resize(r.pairs.size());
          for (size_t w = 0; w < workers; ++w) {
            if (!positions[w].empty()) ++call.outstanding;
          }
          const uint64_t call_id = NewCall(std::move(call));
          if (calls_.at(call_id).outstanding == 0) {  // empty batch
            Finish(call_id);
            return;
          }
          for (size_t w = 0; w < workers; ++w) {
            if (positions[w].empty()) continue;
            Submit(call_id, w, std::move(positions[w]),
                   EncodeRequest(shards[w]));
          }
        } else if constexpr (std::is_same_v<T, StatsRequest> ||
                             std::is_same_v<T, ClearCacheRequest>) {
          call.kind = CallKind::kFanout;
          call.is_stats = std::is_same_v<T, StatsRequest>;
          call.outstanding = static_cast<int>(workers);
          call.folded.workers = 0;
          const uint64_t call_id = NewCall(std::move(call));
          for (size_t w = 0; w < workers; ++w) {
            Submit(call_id, w, {}, std::string(payload), /*pinned=*/true);
          }
        } else {
          // Proofs and analyses have no pair key; hash the request bytes
          // (the decoder is strict, so an accepted payload is canonical).
          call.outstanding = 1;
          const size_t w = wire::Fingerprint(payload) % workers;
          Submit(NewCall(std::move(call)), w, {}, std::string(payload));
        }
      },
      *request);
}

void CallTable::Complete(Backend::Completion done) {
  auto it = exchanges_.find(done.id);
  if (it == exchanges_.end()) return;
  const Exchange exchange = std::move(it->second);
  exchanges_.erase(it);
  Call& call = calls_.at(exchange.call_id);
  switch (call.kind) {
    case CallKind::kSingle:
      // The worker's envelope is the client's reply: forward the bytes.
      call.direct = done.status.ok()
                        ? std::move(done.payload)
                        : EncodeResponse(ErrorResponse{done.status});
      break;
    case CallKind::kBatch:
    case CallKind::kStreamChunk: {
      // A failed shard fails only its own slots: for a stream, that is
      // exactly the chunk that was in flight.
      util::Status shard_error = done.status;
      if (shard_error.ok()) {
        auto reply = DecodeResponse(done.payload);
        Response response =
            reply.ok() ? std::move(reply).ValueOrDie() : Response{};
        BatchResponse* shard = std::get_if<BatchResponse>(&response);
        if (shard != nullptr &&
            shard->results.size() == exchange.positions.size()) {
          for (size_t i = 0; i < exchange.positions.size(); ++i) {
            call.merged.results[exchange.positions[i]] =
                std::move(shard->results[i]);
          }
          break;
        }
        shard_error =
            util::Status::Internal("worker returned a malformed batch reply");
      }
      for (size_t pos : exchange.positions) {
        call.merged.results[pos] = DecisionResponse{shard_error, std::nullopt};
      }
      break;
    }
    case CallKind::kFanout: {
      util::Status error = done.status;
      if (error.ok()) {
        auto reply = DecodeResponse(done.payload);
        if (!reply.ok()) {
          error = reply.status();
        } else if (const auto* failed = std::get_if<ErrorResponse>(&*reply)) {
          error = failed->status;
        } else if (const auto* stats = std::get_if<StatsResponse>(&*reply);
                   stats != nullptr && call.is_stats) {
          call.folded.stats += stats->stats;
          call.folded.workers += stats->workers;
        }
      }
      if (call.error.ok()) call.error = error;
      break;
    }
  }
  if (--call.outstanding == 0) Finish(exchange.call_id);
}

void CallTable::Finish(uint64_t call_id) {
  auto it = calls_.find(call_id);
  Call call = std::move(it->second);
  calls_.erase(it);
  std::string bytes;
  switch (call.kind) {
    case CallKind::kSingle:
      bytes = std::move(call.direct);
      break;
    case CallKind::kBatch:
      bytes = EncodeResponse(call.merged);
      break;
    case CallKind::kStreamChunk:
      bytes = EncodeResponse(BatchChunkResponse{
          call.chunk_first, call.chunk_final, std::move(call.merged.results)});
      break;
    case CallKind::kFanout:
      if (!call.error.ok()) {
        bytes = EncodeResponse(ErrorResponse{call.error});
      } else if (call.is_stats) {
        // The engines cannot see the serving layers above them: overlay
        // the calls still in flight, the backend's counters and the
        // front's own.
        call.folded.in_flight = static_cast<int64_t>(calls_.size());
        backend_->AddBackendCounters(&call.folded);
        if (front_stats_) front_stats_(&call.folded);
        bytes = EncodeResponse(call.folded);
      } else {
        bytes = EncodeResponse(AckResponse{util::Status::OK()});
      }
      break;
  }
  deliver_(call.conn, call.seq, std::move(bytes));
}

}  // namespace bagcq::service
