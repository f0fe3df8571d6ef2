// The serving seam (service/backend.h) on both backends. Every accepted
// Submit id completes exactly once through completion_fd + TakeCompletions.
// A fork worker killed with an exchange in flight completes that exchange
// with kUnavailable; one killed while idle is respawned by polling the
// completion fd alone, with no SIGCHLD handler anywhere. A Server shut down
// with exchanges in flight leaves the pool's synchronous Dispatch
// byte-identical to the in-process Service, and a fork-mode drain delivers
// every accepted reply before Serve returns OK.
//
// Suite names are chosen for the CI filters: ServerBackendTest and
// ServeLoopForkTest run in the Release serving step (they fork);
// ThreadedPoolTest runs there and under TSan (it does not).
#include <chrono>
#include <csignal>
#include <map>
#include <memory>
#include <poll.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "service/backend.h"
#include "service/engine_pool.h"
#include "service/server.h"
#include "service/service.h"
#include "service/transport.h"
#include "wire/wire.h"

namespace bagcq::service {
namespace {

/// Cold, memo-less engines everywhere: certificates and pivot counts are
/// then fully deterministic per pair, independent of which worker computed
/// them.
api::EngineOptions ColdOptions() {
  return api::EngineOptions().set_warm_starts(false).set_memoize_decisions(
      false);
}

std::string NormalizedBytes(const DecisionResponse& response) {
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  if (!response.result.has_value()) return {};
  api::DecisionResult result = *response.result;
  result.stats = api::CallStats{};
  wire::Encoder e;
  wire::EncodeDecisionResult(result, &e);
  return e.Take();
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

ServerOptions ForkOptions() {
  ServerOptions options;
  options.num_workers = 2;
  options.engine = ColdOptions();
  return options;
}

ThreadedPoolOptions ThreadOptions() {
  ThreadedPoolOptions options;
  options.num_threads = 2;
  options.engine = ColdOptions();
  return options;
}

/// Polls the backend's completion fd until `want` completions arrived or
/// `timeout` passed; returns what it collected.
std::vector<Backend::Completion> AwaitCompletions(
    Backend& backend, size_t want, std::chrono::milliseconds timeout) {
  std::vector<Backend::Completion> got;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (got.size() < want && std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{backend.completion_fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    for (Backend::Completion& done : backend.TakeCompletions()) {
      got.push_back(std::move(done));
    }
  }
  return got;
}

/// Submits every suite pair as a single decision, spread round-robin over
/// the workers, plus a pinned Stats to each worker; requires each accepted
/// id back exactly once, with the in-process Service's decision bytes.
void ExpectEachIdCompletesOnce(Backend& backend) {
  api::Engine parser{ColdOptions()};
  const std::vector<api::QueryPair> pairs = SuitePairs(parser, /*reps=*/4);
  Service inproc{ColdOptions()};
  std::map<uint64_t, std::string> expected;  // id → normalized bytes
  const size_t workers = static_cast<size_t>(backend.num_workers());
  for (size_t i = 0; i < pairs.size(); ++i) {
    Response reference = inproc.Handle(DecideRequest{pairs[i]});
    const uint64_t id = backend.NextId();
    ASSERT_TRUE(backend
                    .Submit(i % workers, id,
                            EncodeRequest(Request{DecideRequest{pairs[i]}}))
                    .ok());
    expected[id] = NormalizedBytes(std::get<DecisionResponse>(reference));
  }
  const std::string stats_payload = EncodeRequest(Request{StatsRequest{}});
  for (size_t w = 0; w < workers; ++w) {
    const uint64_t id = backend.NextId();
    ASSERT_TRUE(backend.Submit(w, id, stats_payload, /*pinned=*/true).ok());
    expected[id] = "stats";
  }

  std::vector<Backend::Completion> got =
      AwaitCompletions(backend, expected.size(), std::chrono::seconds(30));
  ASSERT_EQ(got.size(), expected.size()) << "completions stalled";
  std::map<uint64_t, int> seen;
  for (const Backend::Completion& done : got) {
    ASSERT_TRUE(expected.count(done.id)) << "unknown id " << done.id;
    EXPECT_EQ(++seen[done.id], 1) << "id " << done.id << " completed twice";
    ASSERT_TRUE(done.status.ok()) << done.status.ToString();
    auto response = DecodeResponse(done.payload);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (expected[done.id] == "stats") {
      EXPECT_NE(std::get_if<StatsResponse>(&*response), nullptr);
      continue;
    }
    const auto* decision = std::get_if<DecisionResponse>(&*response);
    ASSERT_NE(decision, nullptr);
    EXPECT_EQ(NormalizedBytes(*decision), expected[done.id]);
  }
  // Nothing is delivered twice: a later poll finds no stragglers.
  EXPECT_TRUE(
      AwaitCompletions(backend, 1, std::chrono::milliseconds(200)).empty());
}

/// One blocking framed client connection.
class TestClient {
 public:
  explicit TestClient(int fd) : fd_(fd) {}
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  int fd() const { return fd_; }
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

 private:
  int fd_;
};

/// A Server over `backend` on one Unix listener, served on a background
/// thread until Join.
class LiveServer {
 public:
  explicit LiveServer(Backend* backend) : server_(backend) {
    static int instances = 0;
    path_ = ::testing::TempDir() + "bagcq_seam_" +
            std::to_string(::getpid()) + "_" + std::to_string(++instances) +
            ".sock";
    auto listener = ListenUnix(path_);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    EXPECT_TRUE(server_.AddListener(listener.ok() ? *listener : -1).ok());
    thread_ = std::thread([this] { status_ = server_.Serve(); });
  }
  ~LiveServer() {
    (void)Join(/*shutdown=*/true);
    ::unlink(path_.c_str());
  }

  Server& server() { return server_; }
  std::unique_ptr<TestClient> Connect() {
    auto fd = DialUnix(path_);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    return std::make_unique<TestClient>(fd.ok() ? *fd : -1);
  }
  /// Waits for Serve to return (after a Shutdown when asked) and returns
  /// its status.
  util::Status Join(bool shutdown) {
    if (shutdown) server_.Shutdown();
    if (thread_.joinable()) thread_.join();
    return status_;
  }

 private:
  Server server_;
  std::string path_;
  std::thread thread_;
  util::Status status_;
};

/// Shuts a served pool down with exchanges in flight, then requires the
/// pool's synchronous Dispatch to match the in-process Service: the late
/// completions are dropped by id, not mistaken for the new exchanges.
void ExpectDispatchCleanAfterShutdownMidFlight(Backend& backend) {
  api::Engine parser{ColdOptions()};
  const std::vector<api::QueryPair> pairs = SuitePairs(parser);
  {
    LiveServer live(&backend);
    std::unique_ptr<TestClient> client = live.Connect();
    constexpr int kRequests = 40;
    for (int i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(client->Send(DecideRequest{pairs[i % pairs.size()]}).ok());
    }
    ASSERT_TRUE(client->Send(DecideBatchRequest{pairs}).ok());
    auto first = client->Receive();  // the server has accepted the burst
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const util::Status served = live.Join(/*shutdown=*/true);
    EXPECT_TRUE(served.ok()) << served.ToString();
  }

  Service inproc{ColdOptions()};
  Response reference_response = inproc.Handle(DecideBatchRequest{pairs});
  const auto& reference = std::get<BatchResponse>(reference_response);
  Response batch_response = backend.Dispatch(DecideBatchRequest{pairs});
  const auto* batch = std::get_if<BatchResponse>(&batch_response);
  ASSERT_NE(batch, nullptr);
  ASSERT_EQ(batch->results.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(NormalizedBytes(batch->results[i]),
              NormalizedBytes(reference.results[i]))
        << "batch slot " << i;
    Response one = backend.Dispatch(DecideRequest{pairs[i]});
    const auto* decision = std::get_if<DecisionResponse>(&one);
    ASSERT_NE(decision, nullptr) << "pair " << i;
    EXPECT_EQ(NormalizedBytes(*decision),
              NormalizedBytes(reference.results[i]))
        << "pair " << i;
  }
  Response stats_response = backend.Dispatch(StatsRequest{});
  const auto* stats = std::get_if<StatsResponse>(&stats_response);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->workers, backend.num_workers());
  EXPECT_EQ(stats->in_flight, 0);
  EXPECT_EQ(stats->queue_depth_hwm.size(),
            static_cast<size_t>(backend.num_workers()));
}

TEST(ServerBackendTest, ForkSubmitCompletesEveryAcceptedIdExactlyOnce) {
  WorkerPool pool;
  ASSERT_TRUE(pool.Start(ForkOptions()).ok());
  ExpectEachIdCompletesOnce(pool);
  EXPECT_EQ(pool.respawns(), 0);
}

TEST(ThreadedPoolTest, SubmitCompletesEveryAcceptedIdExactlyOnce) {
  ThreadedEnginePool pool;
  ASSERT_TRUE(pool.Start(ThreadOptions()).ok());
  ExpectEachIdCompletesOnce(pool);
  pool.Stop();
}

TEST(ServerBackendTest, ForkWorkerKilledMidExchangeCompletesItUnavailable) {
  WorkerPool pool;
  ASSERT_TRUE(pool.Start(ForkOptions()).ok());
  api::Engine parser{ColdOptions()};
  const api::QueryPair pair =
      parser.ParsePair("R(x,y), R(y,z), R(z,x)", "R(a,b), R(a,c)")
          .ValueOrDie();
  // Hundreds of cold decisions: the worker is still computing when the
  // signal lands microseconds after the submit.
  const std::vector<api::QueryPair> heavy(300, pair);
  const uint64_t id = pool.NextId();
  ASSERT_TRUE(
      pool.Submit(0, id, EncodeRequest(Request{DecideBatchRequest{heavy}}))
          .ok());
  const pid_t victim = pool.worker_pid(0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  std::vector<Backend::Completion> got =
      AwaitCompletions(pool, 1, std::chrono::seconds(10));
  ASSERT_EQ(got.size(), 1u) << "the lost exchange never completed";
  EXPECT_EQ(got[0].id, id);
  EXPECT_EQ(got[0].status.code(), util::StatusCode::kUnavailable)
      << got[0].status.ToString();
  EXPECT_TRUE(got[0].payload.empty());
  EXPECT_EQ(pool.respawns(), 1);
  EXPECT_NE(pool.worker_pid(0), victim);

  // The respawned worker serves.
  const uint64_t retry = pool.NextId();
  ASSERT_TRUE(
      pool.Submit(0, retry, EncodeRequest(Request{DecideRequest{pair}})).ok());
  got = AwaitCompletions(pool, 1, std::chrono::seconds(10));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, retry);
  EXPECT_TRUE(got[0].status.ok()) << got[0].status.ToString();
}

TEST(ServerBackendTest, ForkIdleWorkerKillIsRespawnedByPollingAlone) {
  // Crash detection is the link's EOF, not a signal: nothing in the
  // library installs a SIGCHLD handler.
  struct sigaction current {};
  ASSERT_EQ(::sigaction(SIGCHLD, nullptr, &current), 0);
  EXPECT_EQ(current.sa_handler, SIG_DFL);

  WorkerPool pool;
  ASSERT_TRUE(pool.Start(ForkOptions()).ok());
  const pid_t victim = pool.worker_pid(1);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  // Only poll the completion fd and take what it offers, for at most 10 s.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  size_t completions = 0;
  while (pool.respawns() == 0 && std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{pool.completion_fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 100) > 0) completions += pool.TakeCompletions().size();
  }
  EXPECT_EQ(pool.respawns(), 1);
  EXPECT_NE(pool.worker_pid(1), victim);
  EXPECT_EQ(completions, 0u) << "an idle worker owed no completions";
  ASSERT_EQ(::sigaction(SIGCHLD, nullptr, &current), 0);
  EXPECT_EQ(current.sa_handler, SIG_DFL);

  Response stats_response = pool.Dispatch(StatsRequest{});
  const auto* stats = std::get_if<StatsResponse>(&stats_response);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->respawns, 1);
  EXPECT_EQ(stats->workers, 2);
}

TEST(ServerBackendTest, ForkShutdownMidFlightThenDispatchMatchesInproc) {
  WorkerPool pool;
  ASSERT_TRUE(pool.Start(ForkOptions()).ok());
  ExpectDispatchCleanAfterShutdownMidFlight(pool);
  EXPECT_EQ(pool.respawns(), 0);
}

TEST(ServerBackendTest, ThreadShutdownMidFlightThenDispatchMatchesInproc) {
  ThreadedEnginePool pool;
  ASSERT_TRUE(pool.Start(ThreadOptions()).ok());
  ExpectDispatchCleanAfterShutdownMidFlight(pool);
  pool.Stop();
}

// The fork-mode twin of ThreadedServeTest.DrainDeliversInFlightReplies-
// AndServeReturnsOk: bagcq_server arms the SIGTERM drain in both modes.
TEST(ServeLoopForkTest, DrainDeliversInFlightRepliesAndServeReturnsOk) {
  WorkerPool pool;
  ASSERT_TRUE(pool.Start(ForkOptions()).ok());
  LiveServer live(&pool);
  api::Engine parser{ColdOptions()};
  const api::QueryPair pair =
      parser.ParsePair("R(x,y), R(y,z), R(z,x)", "R(a,b), R(a,c)")
          .ValueOrDie();

  // Pipeline a burst, confirm the server has accepted it (first reply back),
  // then drain mid-flight.
  constexpr size_t kRequests = 20;
  std::unique_ptr<TestClient> client = live.Connect();
  for (size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client->Send(DecideRequest{pair}).ok());
  }
  auto first = client->Receive();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_NE(std::get_if<DecisionResponse>(&*first), nullptr);

  live.server().Drain();

  // Every remaining accepted request still answers, in order.
  for (size_t i = 1; i < kRequests; ++i) {
    auto response = client->Receive();
    ASSERT_TRUE(response.ok()) << "reply " << i << " dropped by drain: "
                               << response.status().ToString();
    const auto* decision = std::get_if<DecisionResponse>(&*response);
    ASSERT_NE(decision, nullptr);
    EXPECT_TRUE(decision->status.ok()) << decision->status.ToString();
  }

  // After the last reply the server closes the connection cleanly (EOF at a
  // frame boundary), and Serve returns OK without a Shutdown.
  std::string tail;
  bool clean_eof = false;
  const util::Status eof = ReadFrame(client->fd(), &tail, &clean_eof);
  EXPECT_TRUE(eof.ok()) << eof.ToString();
  EXPECT_TRUE(clean_eof);
  const util::Status served = live.Join(/*shutdown=*/false);
  EXPECT_TRUE(served.ok()) << served.ToString();
  EXPECT_EQ(pool.respawns(), 0);
}

}  // namespace
}  // namespace bagcq::service
