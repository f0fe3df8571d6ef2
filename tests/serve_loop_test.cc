// The multi-connection event-loop front under hostile and concurrent
// traffic: ≥4 concurrent clients (Unix and TCP) must agree byte-for-byte
// with the in-process Service, pipelined requests come back in send order,
// a slow-loris connection dribbling partial frames must not stall anyone
// else, disconnects mid-request and mid-frame leave the server healthy,
// oversized frame headers get the connection dropped before any
// allocation, and a worker killed -9 mid-batch is respawned with the lost
// slots failing soft as Unavailable.
// The threaded engine mode rides the same harness: thread-mode serving
// must agree byte-for-byte with the in-process Service AND with fork mode,
// skewed single-shard traffic must spread across workers via stealing, a
// full worker queue must fail soft with kUnavailable, and a drain must
// deliver every accepted reply before Serve returns OK.
#include <atomic>
#include <csignal>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "service/engine_pool.h"
#include "service/server.h"
#include "service/service.h"
#include "service/transport.h"
#include "wire/wire.h"

namespace bagcq::service {
namespace {

/// Cold, memo-less engines everywhere: certificates and pivot counts are
/// then fully deterministic per pair, independent of which worker (or
/// which call order) computed them.
api::EngineOptions ColdOptions() {
  return api::EngineOptions().set_warm_starts(false).set_memoize_decisions(
      false);
}

std::string EncodeNormalized(api::DecisionResult result) {
  result.stats = api::CallStats{};
  wire::Encoder e;
  wire::EncodeDecisionResult(result, &e);
  return e.Take();
}

std::string NormalizedBytes(const DecisionResponse& response) {
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  return response.result.has_value() ? EncodeNormalized(*response.result)
                                     : std::string();
}

std::vector<api::QueryPair> SuitePairs(api::Engine& engine, int reps = 1) {
  const std::pair<const char*, const char*> rows[] = {
      {"R(x,y), R(y,z), R(z,x)", "R(a,b), R(a,c)"},
      {"R(a,b), R(a,c)", "R(x,y), R(y,z), R(z,x)"},
      {"R(x,y), R(y,z)", "R(a,b), R(b,c)"},
      {"R(x,y), R(y,x)", "R(a,b)"},
      {"R(x,y), R(y,z), R(z,x)", "R(a,b), R(b,c), R(c,a)"},
  };
  std::vector<api::QueryPair> pairs;
  for (int rep = 0; rep < reps; ++rep) {
    for (const auto& [q1, q2] : rows) {
      pairs.push_back(engine.ParsePair(q1, q2).ValueOrDie());
    }
  }
  return pairs;
}

/// One blocking framed client connection (what bagcq_client is, minus the
/// argv parsing).
class TestClient {
 public:
  explicit TestClient(int fd) : fd_(fd) {}
  ~TestClient() { Close(); }
  TestClient(TestClient&& other) : fd_(other.fd_) { other.fd_ = -1; }

  int fd() const { return fd_; }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  util::Status Send(const Request& request) {
    return WriteFrame(fd_, EncodeRequest(request));
  }
  util::Result<Response> Receive() {
    std::string reply;
    bool clean_eof = false;
    BAGCQ_RETURN_NOT_OK(ReadFrame(fd_, &reply, &clean_eof));
    if (clean_eof) return util::Status::Internal("server closed connection");
    return DecodeResponse(reply);
  }
  util::Result<Response> Call(const Request& request) {
    BAGCQ_RETURN_NOT_OK(Send(request));
    return Receive();
  }

 private:
  int fd_;
};

/// A 2-worker pool behind a Server with one Unix and one TCP listener,
/// served on a background thread for the duration of a test.
class ServeLoopTest : public ::testing::Test {
 protected:
  void StartServer(api::EngineOptions engine_options = ColdOptions()) {
    ServerOptions options;
    options.num_workers = 2;
    options.engine = std::move(engine_options);
    ASSERT_TRUE(pool_.Start(options).ok());
    server_ = std::make_unique<Server>(&pool_);

    socket_path_ = ::testing::TempDir() + "bagcq_loop_" +
                   std::to_string(::getpid()) + "_" +
                   std::to_string(++instances_) + ".sock";
    auto unix_listener = ListenUnix(socket_path_);
    ASSERT_TRUE(unix_listener.ok()) << unix_listener.status().ToString();
    ASSERT_TRUE(server_->AddListener(*unix_listener).ok());

    auto tcp_listener = ListenTcp("127.0.0.1:0");
    ASSERT_TRUE(tcp_listener.ok()) << tcp_listener.status().ToString();
    auto address = ListenerAddress(*tcp_listener);
    ASSERT_TRUE(address.ok()) << address.status().ToString();
    tcp_address_ = *address;
    ASSERT_TRUE(server_->AddListener(*tcp_listener).ok());

    serve_thread_ = std::thread([this] {
      const util::Status status = server_->Serve();
      EXPECT_TRUE(status.ok()) << status.ToString();
    });
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
    if (serve_thread_.joinable()) serve_thread_.join();
    server_.reset();
    pool_.Stop();
    ::unlink(socket_path_.c_str());
  }

  TestClient ConnectUnix() {
    auto fd = DialUnix(socket_path_);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    return TestClient(fd.ok() ? *fd : -1);
  }
  TestClient ConnectTcp() {
    auto fd = DialTcp(tcp_address_);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    return TestClient(fd.ok() ? *fd : -1);
  }

  WorkerPool pool_;
  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
  std::string socket_path_;
  std::string tcp_address_;
  static int instances_;
};

int ServeLoopTest::instances_ = 0;

TEST_F(ServeLoopTest, ConcurrentClientsOnBothTransportsMatchInproc) {
  StartServer();
  api::Engine parser{ColdOptions()};
  const std::vector<api::QueryPair> pairs = SuitePairs(parser);

  // The in-process reference: same wire path, no server.
  Service inproc{ColdOptions()};
  Response reference_response = inproc.Handle(DecideBatchRequest{pairs});
  const auto* reference = std::get_if<BatchResponse>(&reference_response);
  ASSERT_NE(reference, nullptr);
  std::vector<std::string> expected;
  for (const DecisionResponse& one : reference->results) {
    expected.push_back(NormalizedBytes(one));
  }

  // 6 concurrent clients (3 Unix + 3 TCP), each its own batch.
  constexpr int kClients = 6;
  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TestClient client = (c % 2 == 0) ? ConnectUnix() : ConnectTcp();
      auto response = client.Call(DecideBatchRequest{pairs});
      if (!response.ok()) {
        ++failures;
        return;
      }
      const auto* batch = std::get_if<BatchResponse>(&*response);
      if (batch == nullptr || batch->results.size() != pairs.size()) {
        ++failures;
        return;
      }
      for (const DecisionResponse& one : batch->results) {
        got[c].push_back(NormalizedBytes(one));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(got[c], expected) << "client " << c
                                << " drifted from the in-process Service";
  }
}

TEST_F(ServeLoopTest, PipelinedRequestsReplyInSendOrder) {
  StartServer();
  api::Engine parser{ColdOptions()};
  const std::vector<api::QueryPair> pairs = SuitePairs(parser);

  Service inproc{ColdOptions()};
  std::vector<std::string> expected;
  for (const api::QueryPair& pair : pairs) {
    Response response = inproc.Handle(DecideRequest{pair});
    const auto* decision = std::get_if<DecisionResponse>(&response);
    ASSERT_NE(decision, nullptr);
    expected.push_back(NormalizedBytes(*decision));
  }

  // Write every request before reading any reply: the replies must come
  // back in send order even though the decisions run on different workers.
  // 60 rounds of 5 = 300 requests, past the server's pipelining
  // backpressure gate — which must pace the socket, never stall it.
  constexpr size_t kRounds = 60;
  TestClient client = ConnectUnix();
  std::thread sender([&] {
    for (size_t round = 0; round < kRounds; ++round) {
      for (const api::QueryPair& pair : pairs) {
        ASSERT_TRUE(client.Send(DecideRequest{pair}).ok());
      }
    }
  });
  for (size_t i = 0; i < kRounds * pairs.size(); ++i) {
    auto response = client.Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const auto* decision = std::get_if<DecisionResponse>(&*response);
    ASSERT_NE(decision, nullptr) << "reply " << i;
    EXPECT_EQ(NormalizedBytes(*decision), expected[i % pairs.size()])
        << "reply " << i << " out of order";
  }
  sender.join();
}

TEST_F(ServeLoopTest, SlowLorisConnectionsDoNotStallOthers) {
  StartServer();
  api::Engine parser{ColdOptions()};
  const api::QueryPair pair =
      parser.ParsePair("R(x,y), R(y,z)", "R(a,b), R(b,c)").ValueOrDie();
  const std::string payload = EncodeRequest(Request{DecideRequest{pair}});

  // 8 connections each park a partial frame on the server: a length header
  // promising more than they send, then silence.
  std::vector<TestClient> loris;
  for (int i = 0; i < 8; ++i) {
    loris.push_back(i % 2 == 0 ? ConnectUnix() : ConnectTcp());
    const uint32_t claimed = static_cast<uint32_t>(payload.size());
    char header[4];
    for (int b = 0; b < 4; ++b) {
      header[b] = static_cast<char>(claimed >> (8 * b));
    }
    ASSERT_EQ(::send(loris[i].fd(), header, sizeof(header), 0), 4);
    // Half the payload, then stall.
    ASSERT_GT(::send(loris[i].fd(), payload.data(), payload.size() / 2, 0), 0);
  }

  // A healthy client must get served while all 8 are mid-frame. (The old
  // one-connection-at-a-time accept loop would hang right here.)
  TestClient healthy = ConnectTcp();
  auto response = healthy.Call(DecideRequest{pair});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_NE(std::get_if<DecisionResponse>(&*response), nullptr);

  // The stalled frames complete fine afterwards — buffered, not corrupted.
  for (TestClient& slow : loris) {
    const size_t half = payload.size() / 2;
    ASSERT_GT(::send(slow.fd(), payload.data() + half, payload.size() - half,
                     0),
              0);
    auto late = slow.Receive();
    ASSERT_TRUE(late.ok()) << late.status().ToString();
    EXPECT_NE(std::get_if<DecisionResponse>(&*late), nullptr);
  }
}

TEST_F(ServeLoopTest, DisconnectMidRequestAndMidFrameLeaveServerHealthy) {
  StartServer();
  api::Engine parser{ColdOptions()};
  const api::QueryPair pair =
      parser.ParsePair("R(x,y), R(y,z), R(z,x)", "R(a,b), R(a,c)")
          .ValueOrDie();

  {
    // Full request sent, connection dropped before the reply: the worker
    // still computes; the reply is discarded, not delivered to anyone else.
    TestClient vanishing = ConnectUnix();
    ASSERT_TRUE(vanishing.Send(DecideRequest{pair}).ok());
    vanishing.Close();
  }
  {
    // Half a frame, then gone.
    TestClient torn = ConnectTcp();
    const char half_header[2] = {0x10, 0x00};
    ASSERT_EQ(::send(torn.fd(), half_header, sizeof(half_header), 0), 2);
    torn.Close();
  }

  TestClient survivor = ConnectTcp();
  auto response = survivor.Call(DecideRequest{pair});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const auto* decision = std::get_if<DecisionResponse>(&*response);
  ASSERT_NE(decision, nullptr);
  EXPECT_TRUE(decision->status.ok());
}

TEST_F(ServeLoopTest, OversizedFrameHeaderDropsTheTcpConnection) {
  StartServer();
  TestClient hostile = ConnectTcp();
  // A header claiming a 1 GiB frame (4× the cap): the server must drop the
  // connection on the header alone, before buffering anything.
  const uint32_t huge = 1u << 30;
  char header[4];
  for (int b = 0; b < 4; ++b) {
    header[b] = static_cast<char>(huge >> (8 * b));
  }
  ASSERT_EQ(::send(hostile.fd(), header, sizeof(header), 0), 4);
  std::string reply;
  bool clean_eof = false;
  const util::Status status = ReadFrame(hostile.fd(), &reply, &clean_eof);
  // Either a clean EOF or a reset, depending on how fast the close lands —
  // but never a reply.
  EXPECT_TRUE(clean_eof || !status.ok());

  // The server itself is unharmed.
  api::Engine parser{ColdOptions()};
  TestClient healthy = ConnectTcp();
  auto response = healthy.Call(DecideRequest{
      parser.ParsePair("R(x,y), R(y,x)", "R(a,b)").ValueOrDie()});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(std::get_if<DecisionResponse>(&*response), nullptr);
}

TEST_F(ServeLoopTest, KilledWorkerIsRespawnedAndLostSlotsFailSoft) {
  StartServer();
  api::Engine parser{ColdOptions()};
  // A batch big enough that the workers are still computing when the kill
  // lands.
  const std::vector<api::QueryPair> pairs = SuitePairs(parser, /*reps=*/40);

  TestClient client = ConnectUnix();
  ASSERT_TRUE(client.Send(DecideBatchRequest{pairs}).ok());
  const pid_t victim = pool_.worker_pid(0);
  ::kill(victim, SIGKILL);

  // The batch must complete — never hang: the dead worker's slots come back
  // kUnavailable (or OK if it answered before dying), everything else OK.
  auto response = client.Receive();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const auto* batch = std::get_if<BatchResponse>(&*response);
  ASSERT_NE(batch, nullptr);
  ASSERT_EQ(batch->results.size(), pairs.size());
  int unavailable = 0;
  for (const DecisionResponse& one : batch->results) {
    if (one.status.ok()) continue;
    EXPECT_EQ(one.status.code(), util::StatusCode::kUnavailable)
        << one.status.ToString();
    ++unavailable;
  }

  // After the respawn, the same connection decides again — including pairs
  // that route to the replaced worker.
  for (const api::QueryPair& pair : SuitePairs(parser)) {
    auto retry = client.Call(DecideRequest{pair});
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    const auto* decision = std::get_if<DecisionResponse>(&*retry);
    ASSERT_NE(decision, nullptr);
    EXPECT_TRUE(decision->status.ok()) << decision->status.ToString();
  }

  // The crash is visible in Stats and the pool's own counter.
  auto stats_response = client.Call(StatsRequest{});
  ASSERT_TRUE(stats_response.ok()) << stats_response.status().ToString();
  const auto* stats = std::get_if<StatsResponse>(&*stats_response);
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(stats->respawns, 1);
  EXPECT_EQ(stats->workers, 2);
  EXPECT_GE(pool_.respawns(), 1);
  EXPECT_NE(pool_.worker_pid(0), victim);
  (void)unavailable;  // may be 0 if the worker finished before the signal
}

TEST_F(ServeLoopTest, GarbagePayloadGetsErrorResponseNotDisconnect) {
  StartServer();
  TestClient client = ConnectTcp();
  ASSERT_TRUE(WriteFrame(client.fd(), "definitely not an envelope").ok());
  auto response = client.Receive();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const auto* error = std::get_if<ErrorResponse>(&*response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->status.code(), util::StatusCode::kInvalidArgument);

  // Framed garbage is a client bug, not a protocol violation: the
  // connection survives it.
  api::Engine parser;
  auto retry = client.Call(DecideRequest{
      parser.ParsePair("R(x,y), R(y,x)", "R(a,b)").ValueOrDie()});
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_NE(std::get_if<DecisionResponse>(&*retry), nullptr);
}

// ===================================================== threaded engine mode

/// A ThreadedEnginePool behind the same Server front: one Unix and one TCP
/// listener, served on a background thread. Named so the TSan CI job can
/// select the fork-free suites with -R 'ThreadedServe|ThreadedPool'.
class ThreadedServeTest : public ::testing::Test {
 protected:
  void StartServer(int num_threads = 4,
                   api::EngineOptions engine_options = ColdOptions()) {
    ThreadedPoolOptions options;
    options.num_threads = num_threads;
    options.engine = std::move(engine_options);
    ASSERT_TRUE(pool_.Start(options).ok());
    server_ = std::make_unique<Server>(&pool_);

    socket_path_ = ::testing::TempDir() + "bagcq_tloop_" +
                   std::to_string(::getpid()) + "_" +
                   std::to_string(++instances_) + ".sock";
    auto unix_listener = ListenUnix(socket_path_);
    ASSERT_TRUE(unix_listener.ok()) << unix_listener.status().ToString();
    ASSERT_TRUE(server_->AddListener(*unix_listener).ok());

    auto tcp_listener = ListenTcp("127.0.0.1:0");
    ASSERT_TRUE(tcp_listener.ok()) << tcp_listener.status().ToString();
    auto address = ListenerAddress(*tcp_listener);
    ASSERT_TRUE(address.ok()) << address.status().ToString();
    tcp_address_ = *address;
    ASSERT_TRUE(server_->AddListener(*tcp_listener).ok());

    serve_thread_ = std::thread([this] {
      const util::Status status = server_->Serve();
      EXPECT_TRUE(status.ok()) << status.ToString();
    });
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
    if (serve_thread_.joinable()) serve_thread_.join();
    server_.reset();
    pool_.Stop();
    ::unlink(socket_path_.c_str());
  }

  TestClient ConnectUnix() {
    auto fd = DialUnix(socket_path_);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    return TestClient(fd.ok() ? *fd : -1);
  }
  TestClient ConnectTcp() {
    auto fd = DialTcp(tcp_address_);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    return TestClient(fd.ok() ? *fd : -1);
  }

  ThreadedEnginePool pool_;
  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
  std::string socket_path_;
  std::string tcp_address_;
  static int instances_;
};

int ThreadedServeTest::instances_ = 0;

TEST_F(ThreadedServeTest, ConcurrentClientsMatchInproc) {
  StartServer();
  api::Engine parser{ColdOptions()};
  const std::vector<api::QueryPair> pairs = SuitePairs(parser);

  Service inproc{ColdOptions()};
  Response reference_response = inproc.Handle(DecideBatchRequest{pairs});
  const auto* reference = std::get_if<BatchResponse>(&reference_response);
  ASSERT_NE(reference, nullptr);
  std::vector<std::string> expected;
  for (const DecisionResponse& one : reference->results) {
    expected.push_back(NormalizedBytes(one));
  }

  // 6 concurrent clients (3 Unix + 3 TCP), each its own batch — sharded
  // across the engine threads, possibly stolen, always byte-identical.
  constexpr int kClients = 6;
  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TestClient client = (c % 2 == 0) ? ConnectUnix() : ConnectTcp();
      auto response = client.Call(DecideBatchRequest{pairs});
      if (!response.ok()) {
        ++failures;
        return;
      }
      const auto* batch = std::get_if<BatchResponse>(&*response);
      if (batch == nullptr || batch->results.size() != pairs.size()) {
        ++failures;
        return;
      }
      for (const DecisionResponse& one : batch->results) {
        got[c].push_back(NormalizedBytes(one));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(got[c], expected) << "client " << c
                                << " drifted from the in-process Service";
  }
}

TEST_F(ThreadedServeTest, SkewedShardTrafficUsesAllWorkersViaStealing) {
  StartServer();
  api::Engine parser{ColdOptions()};
  // One pair, repeated: every request hashes to the same affinity worker.
  // Cold + memo-less engines re-solve each time, and this pair takes
  // milliseconds (a triangle pair takes tens of µs, which a slow client's
  // sends can keep pace with), so the affinity queue runs deep while the
  // other three workers sit idle — the exact situation stealing exists for.
  const api::QueryPair pair =
      parser.ParsePair("R(x,y), R(y,z), R(z,w), R(w,x)", "R(a,b), R(a,c)")
          .ValueOrDie();
  Service inproc{ColdOptions()};
  Response reference_response = inproc.Handle(DecideRequest{pair});
  const auto* reference = std::get_if<DecisionResponse>(&reference_response);
  ASSERT_NE(reference, nullptr);
  const std::string expected = NormalizedBytes(*reference);

  constexpr size_t kRequests = 60;
  TestClient client = ConnectUnix();
  for (size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.Send(DecideRequest{pair}).ok());
  }
  for (size_t i = 0; i < kRequests; ++i) {
    auto response = client.Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const auto* decision = std::get_if<DecisionResponse>(&*response);
    ASSERT_NE(decision, nullptr) << "reply " << i;
    // Stolen or not, the decision bytes must not drift.
    EXPECT_EQ(NormalizedBytes(*decision), expected) << "reply " << i;
  }

  // The steal counter proves more than one worker served the shard.
  auto stats_response = client.Call(StatsRequest{});
  ASSERT_TRUE(stats_response.ok()) << stats_response.status().ToString();
  const auto* stats = std::get_if<StatsResponse>(&*stats_response);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->workers, 4);
  EXPECT_GT(stats->steals, 0) << "skewed traffic never left its shard";
  ASSERT_EQ(stats->queue_depth_hwm.size(), 4u);
  const size_t affinity = pool_.ShardFor(pair, /*bag_bag=*/false);
  EXPECT_GT(stats->queue_depth_hwm[affinity], 1)
      << "the affinity queue never ran deep enough to exercise stealing";
  EXPECT_GT(stats->bytes_in, 0);
  EXPECT_GT(stats->bytes_out, 0);
  EXPECT_EQ(stats->connections, 1);
  EXPECT_GE(pool_.queue_stats().steals, stats->steals);
}

TEST_F(ThreadedServeTest, DrainDeliversInFlightRepliesAndServeReturnsOk) {
  StartServer();
  api::Engine parser{ColdOptions()};
  const api::QueryPair pair =
      parser.ParsePair("R(x,y), R(y,z), R(z,x)", "R(a,b), R(a,c)")
          .ValueOrDie();

  // Pipeline a burst, confirm the server has accepted it (first reply back),
  // then drain mid-flight.
  constexpr size_t kRequests = 20;
  TestClient client = ConnectUnix();
  for (size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.Send(DecideRequest{pair}).ok());
  }
  auto first = client.Receive();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_NE(std::get_if<DecisionResponse>(&*first), nullptr);

  server_->Drain();

  // Every remaining accepted request still answers, in order, after the
  // drain began — zero dropped replies is the rolling-restart contract.
  for (size_t i = 1; i < kRequests; ++i) {
    auto response = client.Receive();
    ASSERT_TRUE(response.ok())
        << "reply " << i << " dropped by drain: "
        << response.status().ToString();
    const auto* decision = std::get_if<DecisionResponse>(&*response);
    ASSERT_NE(decision, nullptr);
    EXPECT_TRUE(decision->status.ok()) << decision->status.ToString();
  }

  // After the last reply the server closes the connection cleanly (EOF at a
  // frame boundary, never a reset or a torn frame)...
  std::string tail;
  bool clean_eof = false;
  const util::Status eof = ReadFrame(client.fd(), &tail, &clean_eof);
  EXPECT_TRUE(eof.ok()) << eof.ToString();
  EXPECT_TRUE(clean_eof);

  // ...and Serve itself has returned OK (the fixture's serve thread asserts
  // the status; joining here proves it returned without Shutdown).
  serve_thread_.join();

  // New connections are refused — the listener left the poll set, so the
  // dial may connect into the dead backlog but never gets served.
  ASSERT_TRUE(server_ != nullptr);
}

// Fork-free pool-level suites (also TSan targets).

TEST(ThreadedPoolTest, DispatchMatchesInprocServiceAndBuildsProversPerEngine) {
  ThreadedEnginePool pool;
  ThreadedPoolOptions options;
  options.num_threads = 3;
  options.engine = ColdOptions();
  ASSERT_TRUE(pool.Start(options).ok());

  api::Engine parser{ColdOptions()};
  const std::vector<api::QueryPair> pairs = SuitePairs(parser, /*reps=*/2);
  Service inproc{ColdOptions()};

  // Singles: every pair, compared normalized against the in-process truth.
  for (const api::QueryPair& pair : pairs) {
    Response expected_response = inproc.Handle(DecideRequest{pair});
    const auto* expected = std::get_if<DecisionResponse>(&expected_response);
    ASSERT_NE(expected, nullptr);
    Response got_response = pool.Dispatch(DecideRequest{pair});
    const auto* got = std::get_if<DecisionResponse>(&got_response);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(NormalizedBytes(*got), NormalizedBytes(*expected));
  }

  // A batch shards across all three engines and merges in input order.
  Response expected_batch_response = inproc.Handle(DecideBatchRequest{pairs});
  const auto* expected_batch =
      std::get_if<BatchResponse>(&expected_batch_response);
  ASSERT_NE(expected_batch, nullptr);
  Response got_batch_response = pool.Dispatch(DecideBatchRequest{pairs});
  const auto* got_batch = std::get_if<BatchResponse>(&got_batch_response);
  ASSERT_NE(got_batch, nullptr);
  ASSERT_EQ(got_batch->results.size(), expected_batch->results.size());
  for (size_t i = 0; i < got_batch->results.size(); ++i) {
    EXPECT_EQ(NormalizedBytes(got_batch->results[i]),
              NormalizedBytes(expected_batch->results[i]))
        << "batch slot " << i;
  }

  // Each engine builds its own provers, each n at most once: the
  // constructions SUMMED over all three engines are at least what one
  // in-process Service built for the same traffic (one per distinct n, and
  // every n reached some engine) and at most three times that.
  Response inproc_stats_response = inproc.Handle(StatsRequest{});
  const auto* inproc_stats =
      std::get_if<StatsResponse>(&inproc_stats_response);
  ASSERT_NE(inproc_stats, nullptr);
  Response pool_stats_response = pool.Dispatch(StatsRequest{});
  const auto* pool_stats = std::get_if<StatsResponse>(&pool_stats_response);
  ASSERT_NE(pool_stats, nullptr);
  EXPECT_EQ(pool_stats->workers, 3);
  EXPECT_GT(inproc_stats->stats.prover_constructions, 0);
  EXPECT_GE(pool_stats->stats.prover_constructions,
            inproc_stats->stats.prover_constructions);
  EXPECT_LE(pool_stats->stats.prover_constructions,
            3 * inproc_stats->stats.prover_constructions);
  ASSERT_EQ(pool_stats->queue_depth_hwm.size(), 3u);

  pool.Stop();
}

TEST(ThreadedPoolTest, FullQueueRejectsWithUnavailableAndKeepsServing) {
  ThreadedEnginePool pool;
  ThreadedPoolOptions options;
  options.num_threads = 1;   // one ms-scale consumer...
  options.queue_capacity = 2;  // ...behind a two-slot queue
  options.engine = ColdOptions();
  ASSERT_TRUE(pool.Start(options).ok());

  api::Engine parser{ColdOptions()};
  const api::QueryPair pair =
      parser.ParsePair("R(x,y), R(y,z), R(z,x)", "R(a,b), R(a,c)")
          .ValueOrDie();
  // One decide of this pair takes tens of µs, about what a submit can cost
  // when the woken worker takes the CPU first, so each item is a batch of
  // kBatch decides: milliseconds of work per item, longer than a scheduler
  // time slice, against µs-scale submits.
  constexpr size_t kBatch = 128;
  const std::string payload = EncodeRequest(
      Request{DecideBatchRequest{std::vector<api::QueryPair>(kBatch, pair)}});

  // Flood far past the queue: submits are µs-scale, items ms-scale, so most
  // must bounce — and every bounce must be kUnavailable, never a block or a
  // crash.
  std::vector<uint64_t> accepted;
  int rejected = 0;
  for (int i = 0; i < 32; ++i) {
    const uint64_t id = pool.NextId();
    const util::Status submitted = pool.Submit(0, id, payload);
    if (submitted.ok()) {
      accepted.push_back(id);
    } else {
      EXPECT_EQ(submitted.code(), util::StatusCode::kUnavailable)
          << submitted.ToString();
      ++rejected;
    }
  }
  ASSERT_GT(rejected, 0) << "flood never filled a 2-slot queue";
  ASSERT_FALSE(accepted.empty());

  // Every ACCEPTED submit still completes, delivered through the poll
  // surface (completion_fd + TakeCompletions) like the server front uses.
  size_t done = 0;
  while (done < accepted.size()) {
    pollfd pfd{pool.completion_fd(), POLLIN, 0};
    ASSERT_GE(::poll(&pfd, 1, 10'000), 0);
    ASSERT_TRUE(pfd.revents & POLLIN) << "completions stalled";
    char drain[64];
    while (::read(pool.completion_fd(), drain, sizeof(drain)) > 0) {
    }
    for (const ThreadedEnginePool::Completion& c : pool.TakeCompletions()) {
      auto response = DecodeResponse(c.payload);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      const auto* batch = std::get_if<BatchResponse>(&*response);
      ASSERT_NE(batch, nullptr);
      EXPECT_EQ(batch->results.size(), kBatch);
      ++done;
    }
  }
  EXPECT_GE(pool.queue_stats().rejected, rejected);

  // The pool is unharmed: the synchronous surface still serves.
  Response stats_response = pool.Dispatch(StatsRequest{});
  const auto* stats = std::get_if<StatsResponse>(&stats_response);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->workers, 1);
  pool.Stop();
}

// Deliberately NOT named Threaded*: this one forks, so the TSan job's
// -R 'ThreadedServe|ThreadedPool' filter leaves it out.
TEST(ThreadVsForkConformance, DispatchAgreesAcrossEngineModes) {
  // Fork first, threads second: the worker processes are spawned before
  // this process is multithreaded.
  WorkerPool fork_pool;
  ServerOptions fork_options;
  fork_options.num_workers = 2;
  fork_options.engine = ColdOptions();
  ASSERT_TRUE(fork_pool.Start(fork_options).ok());

  ThreadedEnginePool thread_pool;
  ThreadedPoolOptions thread_options;
  thread_options.num_threads = 2;
  thread_options.engine = ColdOptions();
  ASSERT_TRUE(thread_pool.Start(thread_options).ok());

  api::Engine parser{ColdOptions()};
  const std::vector<api::QueryPair> pairs = SuitePairs(parser);
  for (const api::QueryPair& pair : pairs) {
    Response fork_response = fork_pool.Dispatch(DecideRequest{pair});
    Response thread_response = thread_pool.Dispatch(DecideRequest{pair});
    const auto* from_fork = std::get_if<DecisionResponse>(&fork_response);
    const auto* from_thread = std::get_if<DecisionResponse>(&thread_response);
    ASSERT_NE(from_fork, nullptr);
    ASSERT_NE(from_thread, nullptr);
    EXPECT_EQ(NormalizedBytes(*from_thread), NormalizedBytes(*from_fork));
  }

  Response fork_batch_response = fork_pool.Dispatch(DecideBatchRequest{pairs});
  Response thread_batch_response =
      thread_pool.Dispatch(DecideBatchRequest{pairs});
  const auto* fork_batch = std::get_if<BatchResponse>(&fork_batch_response);
  const auto* thread_batch =
      std::get_if<BatchResponse>(&thread_batch_response);
  ASSERT_NE(fork_batch, nullptr);
  ASSERT_NE(thread_batch, nullptr);
  ASSERT_EQ(thread_batch->results.size(), fork_batch->results.size());
  for (size_t i = 0; i < fork_batch->results.size(); ++i) {
    EXPECT_EQ(NormalizedBytes(thread_batch->results[i]),
              NormalizedBytes(fork_batch->results[i]))
        << "batch slot " << i;
  }

  thread_pool.Stop();
  fork_pool.Stop();
}

}  // namespace
}  // namespace bagcq::service
