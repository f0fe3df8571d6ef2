#include "service/server.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <map>
#include <memory>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "service/service.h"
#include "store/proof_store.h"

namespace bagcq::service {

namespace {

// Worker-link frames carry an 8-byte little-endian correlation id before
// the message envelope; replies echo the id, so any number of requests can
// be in flight per worker and matched out of band.
constexpr size_t kIdBytes = 8;

// The id prefix means a client payload at exactly kMaxFrameBytes grows by
// kIdBytes on the worker link — legal there, and only there.
constexpr uint32_t kMaxLinkFrameBytes =
    kMaxFrameBytes + static_cast<uint32_t>(kIdBytes);

std::string WithId(uint64_t id, std::string payload) {
  char prefix[kIdBytes];
  for (size_t i = 0; i < kIdBytes; ++i) {
    prefix[i] = static_cast<char>(id >> (8 * i));
  }
  payload.insert(0, prefix, kIdBytes);
  return payload;
}

uint64_t ParseId(const char* data) {
  uint64_t id = 0;
  for (size_t i = 0; i < kIdBytes; ++i) {
    id |= static_cast<uint64_t>(static_cast<uint8_t>(data[i])) << (8 * i);
  }
  return id;
}

/// A freshly forked worker inherits every parent fd — listeners, client
/// connections, the other workers' links and their epoll instance, the
/// wake pipe. Holding any of
/// them open would keep peers from seeing EOFs the parent sends, so the
/// child drops everything except stdio and its own link before serving.
void CloseInheritedFds(int keep) {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) {
    for (int fd = 3; fd < 1024; ++fd) {
      if (fd != keep) ::close(fd);
    }
    return;
  }
  const int dir_fd = ::dirfd(dir);
  std::vector<int> fds;
  while (dirent* entry = ::readdir(dir)) {
    char* end = nullptr;
    const long fd = std::strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0') continue;
    if (fd > 2 && fd != keep && fd != dir_fd) fds.push_back(static_cast<int>(fd));
  }
  ::closedir(dir);
  for (int fd : fds) ::close(fd);
}

/// The worker child's whole life: answer id-tagged frames until the parent
/// closes the link, then vanish without running the parent's atexit/static
/// teardown.
[[noreturn]] void RunWorker(int fd, const ServerOptions& server_options) {
  api::EngineOptions options = server_options.engine;
  std::unique_ptr<store::ProofStore> proof_store;
  if (!server_options.store_path.empty()) {
    // Each worker holds its own handle on the shared log. No repair here:
    // sibling workers are appending concurrently, and truncating a tail one
    // of them just half-wrote would destroy a good record — the parent
    // already repaired once before any worker existed.
    store::StoreOptions store_options;
    store_options.repair = false;
    auto opened = store::ProofStore::Open(server_options.store_path,
                                          store_options);
    if (opened.ok()) {
      proof_store = std::move(opened).ValueOrDie();
      options.set_decision_store(proof_store.get());
    } else {
      // Fail soft to a storeless (cold but correct) worker: persistence is
      // an accelerator, never a liveness dependency.
      std::fprintf(stderr, "worker: %s; serving without a store\n",
                   opened.status().ToString().c_str());
    }
  }
  Service service(options);
  std::string request;
  bool clean_eof = false;
  while (true) {
    if (!ReadFrame(fd, &request, &clean_eof, kMaxLinkFrameBytes).ok() ||
        clean_eof) {
      break;
    }
    if (request.size() < kIdBytes) break;  // protocol violation
    const uint64_t id = ParseId(request.data());
    std::string reply = service.HandleBytes(
        std::string_view(request).substr(kIdBytes));
    if (reply.size() > kMaxFrameBytes) {
      // A reply that cannot be framed back to the client (a witness-laden
      // mega-batch) degrades to an error instead of killing the link.
      reply = EncodeResponse(ErrorResponse{util::Status::ResourceExhausted(
          "server: response exceeds the frame cap")});
    }
    const util::Status sent =
        WriteFrame(fd, WithId(id, std::move(reply)), kMaxLinkFrameBytes);
    if (!sent.ok()) break;
  }
  ::close(fd);
  ::_exit(0);
}

util::Status SysError(const char* op) {
  return util::Status::Internal(std::string("server: ") + op + " failed: " +
                                std::strerror(errno));
}

}  // namespace

// =========================================================== WorkerPool

WorkerPool::~WorkerPool() { Stop(); }

util::Status WorkerPool::SpawnWorker(size_t w) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return SysError("socketpair");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return SysError("fork");
  }
  if (pid == 0) {
    CloseInheritedFds(fds[1]);
    RunWorker(fds[1], options_);
  }
  ::close(fds[1]);
  WorkerLink& link = workers_[w];
  link.fd = fds[0];
  link.pid = pid;
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = w;
  util::Status status = SetNonBlocking(link.fd);
  if (status.ok() &&
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, link.fd, &event) != 0) {
    status = SysError("epoll_ctl");
  }
  if (!status.ok()) CloseLink(w, /*sigkill=*/true);
  return status;
}

void WorkerPool::CloseLink(size_t w, bool sigkill) {
  WorkerLink& link = workers_[w];
  if (link.fd >= 0) {
    // Deregister before close: a child forked a moment ago may still hold a
    // copy of this fd, and that copy would keep the registration alive.
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, link.fd, nullptr);
    ::close(link.fd);  // EOF → an idle child _exits
  }
  if (link.pid > 0) {
    if (sigkill) ::kill(link.pid, SIGKILL);
    ::waitpid(link.pid, nullptr, 0);
  }
  // Half-written requests and half-read replies died with the link.
  link.fd = -1;
  link.pid = -1;
  link.out.Clear();
  link.in.clear();
  link.in_flight.clear();
  link.watch_out = false;
}

util::Status WorkerPool::Start(const ServerOptions& options) {
  if (!workers_.empty()) {
    return util::Status::InvalidArgument("worker pool already started");
  }
  if (options.num_workers < 1) {
    return util::Status::InvalidArgument("need at least one worker");
  }
  // A worker that died mid-write must surface as an EPIPE Status on the
  // front, not kill the whole server.
  std::signal(SIGPIPE, SIG_IGN);
  options_ = options;
  respawns_ = 0;
  if (!options_.store_path.empty()) {
    // One repairing open before any worker exists: a torn tail from a
    // previous crash is truncated here, exactly once, while nobody is
    // appending. An unopenable log is not fatal — workers fail soft to
    // storeless serving and report the same error themselves.
    auto repaired = store::ProofStore::Open(options_.store_path, {});
    if (!repaired.ok()) {
      std::fprintf(stderr, "server: %s\n",
                   repaired.status().ToString().c_str());
    }
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return SysError("epoll_create1");
  const size_t n = static_cast<size_t>(options.num_workers);
  workers_.resize(n);
  in_flight_hwm_.assign(n, 0);
  for (size_t w = 0; w < n; ++w) {
    const util::Status status = SpawnWorker(w);
    if (!status.ok()) {
      Stop();
      return status;
    }
  }
  return util::Status::OK();
}

void WorkerPool::Stop() {
  // A worker with exchanges in flight would compute every frame left in its
  // socket before it saw EOF; nobody is waiting for those answers.
  for (size_t w = 0; w < workers_.size(); ++w) {
    CloseLink(w, /*sigkill=*/!workers_[w].in_flight.empty());
  }
  workers_.clear();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
}

util::Status WorkerPool::Respawn(size_t w) {
  // Usually the child is already gone (that is why we are here); a wedged
  // or frame-breaking one is recycled the hard way.
  CloseLink(w, /*sigkill=*/true);
  BAGCQ_RETURN_NOT_OK(SpawnWorker(w));
  ++respawns_;
  return util::Status::OK();
}

util::Status WorkerPool::Submit(size_t worker, uint64_t id,
                                std::string payload, bool /*pinned*/) {
  if (worker >= workers_.size()) {
    return util::Status::Unavailable("worker pool is not serving");
  }
  if (payload.size() > kMaxFrameBytes) {
    return util::Status::ResourceExhausted(
        "server: request exceeds the frame cap");
  }
  // A worker whose respawn failed earlier (a transient fork failure) is
  // retried here, so one bad fork cannot black its shard out for good.
  if (workers_[worker].fd < 0 && !Respawn(worker).ok()) {
    return util::Status::Unavailable("worker " + std::to_string(worker) +
                                     " is down and could not be respawned");
  }
  WorkerLink& link = workers_[worker];
  link.out.AppendFrame(WithId(id, std::move(payload)));
  link.in_flight.push_back(id);
  in_flight_hwm_[worker] = std::max(
      in_flight_hwm_[worker], static_cast<int64_t>(link.in_flight.size()));
  if (!Flush(worker)) {
    // The peer is gone. Shutting our end down makes the link report a
    // hangup, so the next TakeCompletions loses the worker with this
    // exchange (accepted, hence owed a completion) in flight.
    ::shutdown(link.fd, SHUT_RDWR);
  }
  return util::Status::OK();
}

bool WorkerPool::Flush(size_t w) {
  WorkerLink& link = workers_[w];
  if (!FlushTo(link.fd, &link.out).ok()) return false;
  // Watch for writability only while bytes are waiting on it.
  const bool want_out = !link.out.empty();
  if (want_out != link.watch_out) {
    epoll_event event{};
    event.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
    event.data.u64 = w;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, link.fd, &event);
    link.watch_out = want_out;
  }
  return true;
}

bool WorkerPool::ReadReplies(size_t w, std::vector<Completion>* done) {
  WorkerLink& link = workers_[w];
  bool open = true;
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::read(link.fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) {  // EOF or a read error: the worker is gone
      open = false;
      break;
    }
    link.in.append(buf, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof(buf)) break;
  }
  // Parse before judging the link: replies a crashing worker delivered
  // before it died still count.
  size_t pos = 0;
  while (link.in.size() - pos >= 4) {
    const uint32_t length = ParseFrameHeader(link.in.data() + pos);
    // A worker that breaks framing is as good as dead.
    if (length > kMaxLinkFrameBytes || length < kIdBytes) return false;
    if (link.in.size() - pos < size_t{4} + length) break;
    const uint64_t id = ParseId(link.in.data() + pos + 4);
    done->push_back(Completion{
        id, link.in.substr(pos + 4 + kIdBytes, length - kIdBytes), {}});
    // Replies come back in send order, so this finds the front.
    auto it = std::find(link.in_flight.begin(), link.in_flight.end(), id);
    if (it != link.in_flight.end()) link.in_flight.erase(it);
    pos += size_t{4} + length;
  }
  link.in.erase(0, pos);
  return open;
}

void WorkerPool::LoseWorker(size_t w, std::vector<Completion>* done) {
  const std::deque<uint64_t> lost = std::move(workers_[w].in_flight);
  const util::Status respawned = Respawn(w);
  std::string message = "worker " + std::to_string(w) + " lost mid-request; ";
  message += respawned.ok() ? "respawned with a fresh Engine — retry"
                            : "respawn failed: " + respawned.ToString();
  for (uint64_t id : lost) {
    done->push_back(Completion{id, {}, util::Status::Unavailable(message)});
  }
}

std::vector<Backend::Completion> WorkerPool::TakeCompletions() {
  std::vector<Completion> done;
  if (workers_.empty()) return done;
  std::vector<epoll_event> events(workers_.size());
  int n = 0;
  do {
    n = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                     0);
  } while (n < 0 && errno == EINTR);
  // One registration per link, so each worker appears at most once here
  // and a respawn below cannot leave a stale event behind it.
  for (int i = 0; i < n; ++i) {
    const size_t w = static_cast<size_t>(events[i].data.u64);
    const uint32_t ready = events[i].events;
    bool alive = true;
    if (ready & EPOLLOUT) alive = Flush(w);
    if (ready & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
      alive = ReadReplies(w, &done) && alive;
    }
    if (!alive) LoseWorker(w, &done);
  }
  return done;
}

void WorkerPool::AddBackendCounters(StatsResponse* stats) const {
  stats->respawns = respawns_;
  stats->queue_depth_hwm = in_flight_hwm_;
}

// =============================================================== Server

namespace {

/// A connection whose unread replies exceed this stops being read from
/// (requests already accepted still complete): a client that never drains
/// its socket must not grow the server's memory without bound.
constexpr size_t kConnBacklogCap = 4 * size_t{kMaxFrameBytes} / 16;

/// And the same for the request side: a connection with this many requests
/// accepted but not yet answered stops being read from, bounding the
/// call/exchange/worker-buffer state a fire-and-forget client can pin —
/// reads resume as the workers drain the pipeline.
constexpr uint64_t kMaxPipelinedRequests = 256;

/// The hard stop: replies for requests accepted *before* the gates closed
/// still land in the write buffer, so a client whose pipelined replies are
/// all huge can pass kConnBacklogCap by one reply per in-flight request.
/// A buffer at the hard cap means the client has stopped reading entirely
/// — drop the connection rather than buffer toward OOM.
constexpr size_t kConnHardCap = 4 * kConnBacklogCap;

/// The poll-based event loop behind Server::Serve — all state lives for one
/// Serve call. The CallTable does the routing; the loop owns sockets,
/// per-connection reply order, and the front-level Stats counters.
class EventLoop {
 public:
  EventLoop(Backend* backend, const std::vector<int>& listeners,
            std::atomic<bool>* shutdown, std::atomic<bool>* draining,
            int wake_read_fd)
      : backend_(backend),
        listeners_(listeners),
        shutdown_(shutdown),
        draining_(draining),
        wake_read_fd_(wake_read_fd),
        calls_(
            backend,
            [this](uint64_t conn_id, uint64_t seq, std::string reply) {
              Deliver(conn_id, seq, std::move(reply));
            },
            [this](StatsResponse* stats) {
              stats->connections = static_cast<int64_t>(conns_.size());
              stats->bytes_in = bytes_in_;
              stats->bytes_out = bytes_out_;
            }) {}
  // calls_ holds callbacks bound to this object.
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  util::Status Run();

 private:
  struct Conn {
    int fd = -1;
    std::string in;
    OutBuf out;
    uint64_t next_seq = 0;    // arrival index of the next request
    uint64_t next_flush = 0;  // seq whose reply goes out next
    std::map<uint64_t, std::string> ready;  // replies waiting on order
  };

  /// The backpressure gates, both directions: a connection is read from
  /// only while it drains its replies and pipelines fewer requests than the
  /// workers have left to answer.
  static bool Readable(const Conn& conn) {
    return conn.out.pending() < kConnBacklogCap &&
           conn.next_seq - conn.next_flush < kMaxPipelinedRequests;
  }

  void AcceptAll(int listener);
  void ReadConn(uint64_t conn_id);
  void ParseConnFrames(uint64_t conn_id);
  void CloseConn(uint64_t conn_id);
  void Deliver(uint64_t conn_id, uint64_t seq, std::string reply_bytes);
  /// True once a requested drain has nothing left to wait for.
  bool DrainComplete() const;

  Backend* backend_;
  const std::vector<int>& listeners_;
  std::atomic<bool>* shutdown_;
  std::atomic<bool>* draining_;
  int wake_read_fd_;

  std::map<uint64_t, Conn> conns_;
  uint64_t next_conn_id_ = 1;
  /// Set when accept() failed for lack of fds: the listeners sit out one
  /// 50 ms poll round instead of spinning on a backlog we cannot drain.
  bool accept_throttled_ = false;
  // Front-level Stats counters (wire v4).
  int64_t bytes_in_ = 0;
  int64_t bytes_out_ = 0;
  CallTable calls_;
};

void EventLoop::AcceptAll(int listener) {
  while (true) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // drained
      // EMFILE/ENFILE and friends: the pending connection stays in the
      // backlog, so the level-triggered poll would spin hot retrying.
      // Pause the listeners for one throttle interval instead.
      accept_throttled_ = true;
      return;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    // Request/response with small frames: Nagle only adds latency. Fails
    // harmlessly on Unix sockets.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn conn;
    conn.fd = fd;
    conns_.emplace(next_conn_id_++, std::move(conn));
  }
}

void EventLoop::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::close(it->second.fd);
  // In-flight calls for this connection keep running on the workers; their
  // replies are dropped at Deliver time when the conn id no longer resolves.
  conns_.erase(it);
}

void EventLoop::ReadConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(conn_id);
      return;
    }
    if (n == 0) {  // client hung up (possibly with requests still in flight)
      CloseConn(conn_id);
      return;
    }
    conn.in.append(buf, static_cast<size_t>(n));
    bytes_in_ += n;
    if (static_cast<size_t>(n) < sizeof(buf)) break;
  }
  ParseConnFrames(conn_id);
}

void EventLoop::ParseConnFrames(uint64_t conn_id) {
  // Consumed bytes are tracked by cursor and erased once at the end, so a
  // burst of pipelined frames costs one compaction, not one per frame.
  size_t pos = 0;
  while (true) {
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;  // closed while handling a frame
    Conn& conn = it->second;
    if (conn.in.size() - pos < 4) break;
    const uint32_t length = ParseFrameHeader(conn.in.data() + pos);
    if (length > kMaxFrameBytes) {
      // Framing is unrecoverable after a hostile header — drop the link.
      CloseConn(conn_id);
      return;
    }
    if (conn.in.size() - pos < size_t{4} + length) break;
    // A view suffices: nothing mutates conn.in until the erase below.
    const std::string_view payload(conn.in.data() + pos + 4, length);
    pos += size_t{4} + length;
    // Streaming backpressure is the connection's ordinary gates: a client
    // pipelining chunks faster than the workers answer stops being read at
    // kMaxPipelinedRequests, and one not draining its replies stops at
    // kConnBacklogCap — identical on fork and thread backends.
    calls_.Start(conn_id, conn.next_seq++, payload);
  }
  auto it = conns_.find(conn_id);
  if (it != conns_.end() && pos > 0) it->second.in.erase(0, pos);
}

void EventLoop::Deliver(uint64_t conn_id, uint64_t seq,
                        std::string reply_bytes) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // client left; drop the reply
  Conn& conn = it->second;
  if (reply_bytes.size() > kMaxFrameBytes) {
    reply_bytes = EncodeResponse(ErrorResponse{util::Status::ResourceExhausted(
        "server: response exceeds the frame cap")});
  }
  conn.ready.emplace(seq, std::move(reply_bytes));
  // Flush in request order: seq N's reply never leaves before seq N-1's.
  for (auto ready = conn.ready.find(conn.next_flush);
       ready != conn.ready.end();
       ready = conn.ready.find(conn.next_flush)) {
    conn.out.AppendFrame(ready->second);
    conn.ready.erase(ready);
    ++conn.next_flush;
  }
  if (conn.out.pending() > kConnHardCap) CloseConn(conn_id);
}

bool EventLoop::DrainComplete() const {
  // Drained means: every accepted request answered AND every reply byte
  // handed to the kernel. Partial request frames still sitting in conn.in
  // were never accepted, so they owe nothing.
  if (calls_.in_flight() != 0) return false;
  for (const auto& [id, conn] : conns_) {
    if (!conn.out.empty()) return false;
  }
  return true;
}

util::Status EventLoop::Run() {
  for (int listener : listeners_) {
    BAGCQ_RETURN_NOT_OK(SetNonBlocking(listener));
  }

  // Layout of the poll set: [wake][listeners][backend][conns].
  std::vector<pollfd> fds;
  std::vector<uint64_t> conn_ids;
  bool drain_read_done = false;
  while (!shutdown_->load(std::memory_order_acquire)) {
    const bool draining = draining_->load(std::memory_order_acquire);
    if (draining && !drain_read_done) {
      // A request sent before Drain() is already in its socket, but this
      // loop may not have read it yet: one last read of every readable
      // connection accepts it, so only requests sent after the drain began
      // go unanswered.
      drain_read_done = true;
      conn_ids.clear();
      for (const auto& [id, conn] : conns_) {
        if (Readable(conn)) conn_ids.push_back(id);
      }
      for (uint64_t conn_id : conn_ids) ReadConn(conn_id);
    }
    // The drain barrier: accepted work all answered and flushed → done.
    if (draining && DrainComplete()) break;
    fds.clear();
    conn_ids.clear();
    const bool throttled = accept_throttled_;
    accept_throttled_ = false;
    fds.push_back({wake_read_fd_, POLLIN, 0});
    // A draining server accepts nothing new: the listeners leave the poll
    // set (the OS backlog delivers RSTs/timeouts once we exit).
    const size_t polled_listeners =
        (throttled || draining) ? 0 : listeners_.size();
    for (size_t l = 0; l < polled_listeners; ++l) {
      fds.push_back({listeners_[l], POLLIN, 0});
    }
    fds.push_back({backend_->completion_fd(), POLLIN, 0});
    for (const auto& [id, conn] : conns_) {
      short events = 0;
      // Reads resume as buffers and the pipeline drain. A draining server
      // reads nothing new at all — only flushes.
      if (!draining && Readable(conn)) events |= POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
      conn_ids.push_back(id);
    }

    const int rc = ::poll(fds.data(), fds.size(), throttled ? 50 : -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return SysError("poll");
    }

    size_t slot = 0;
    if (fds[slot].revents & POLLIN) {  // wake pipe: Shutdown/Drain
      char drain[256];
      while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
      }
    }
    ++slot;
    if (throttled && !draining) {
      // The throttle interval elapsed — retry every listener now.
      for (int listener : listeners_) AcceptAll(listener);
    }
    for (size_t l = 0; l < polled_listeners; ++l, ++slot) {
      if (fds[slot].revents & POLLIN) AcceptAll(listeners_[l]);
    }
    if (fds[slot].revents & POLLIN) {
      for (Backend::Completion& done : backend_->TakeCompletions()) {
        calls_.Complete(std::move(done));
      }
    }
    ++slot;
    for (size_t c = 0; c < conn_ids.size(); ++c, ++slot) {
      const uint64_t conn_id = conn_ids[c];
      const short revents = fds[slot].revents;
      if (revents == 0) continue;
      auto it = conns_.find(conn_id);
      if (it == conns_.end()) continue;  // closed earlier this round
      if (revents & POLLOUT) {
        if (!FlushTo(it->second.fd, &it->second.out, &bytes_out_).ok()) {
          CloseConn(conn_id);
          continue;
        }
      }
      if (revents & (POLLIN | POLLHUP | POLLERR)) ReadConn(conn_id);
    }
  }

  // After a drain, every reply was flushed above — closing here gives each
  // client a clean EOF after its last reply, the signal to reconnect
  // elsewhere during a rolling restart. After a Shutdown, exchanges still
  // in flight complete into the backend and the next front drops them.
  for (auto& [id, conn] : conns_) ::close(conn.fd);
  conns_.clear();
  return util::Status::OK();
}

void MakeWakePipe(int wake_fds[2]) {
  if (::pipe(wake_fds) == 0) {
    (void)SetNonBlocking(wake_fds[0]);
    (void)SetNonBlocking(wake_fds[1]);
  }
}

}  // namespace

Server::Server(Backend* backend) : backend_(backend) {
  MakeWakePipe(wake_fds_);
}

Server::~Server() {
  for (int listener : listeners_) ::close(listener);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

util::Status Server::AddListener(int listener_fd) {
  if (listener_fd < 0) {
    return util::Status::InvalidArgument("server: invalid listener fd");
  }
  listeners_.push_back(listener_fd);
  return util::Status::OK();
}

util::Status Server::Serve() {
  if (backend_ == nullptr || backend_->num_workers() == 0) {
    return util::Status::InvalidArgument("server: pool not started");
  }
  if (listeners_.empty()) {
    return util::Status::InvalidArgument("server: no listeners added");
  }
  if (wake_fds_[0] < 0) return SysError("pipe");
  EventLoop loop(backend_, listeners_, &shutdown_, &draining_, wake_fds_[0]);
  return loop.Run();
}

void Server::Shutdown() {
  shutdown_.store(true, std::memory_order_release);
  if (wake_fds_[1] >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  }
}

void Server::Drain() {
  draining_.store(true, std::memory_order_release);
  if (wake_fds_[1] >= 0) {
    const char byte = 'd';
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  }
}

}  // namespace bagcq::service
