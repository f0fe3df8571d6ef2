#include "service/engine_pool.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unistd.h>
#include <utility>

#include "service/transport.h"
#include "store/proof_store.h"

namespace bagcq::service {

ThreadedEnginePool::ThreadedEnginePool() = default;

ThreadedEnginePool::~ThreadedEnginePool() { Stop(); }

util::Status ThreadedEnginePool::Start(const ThreadedPoolOptions& options) {
  if (!workers_.empty()) {
    return util::Status::InvalidArgument("threaded pool already started");
  }
  if (options.num_threads < 1) {
    return util::Status::InvalidArgument("need at least one worker thread");
  }
  if (options.queue_capacity < 1) {
    return util::Status::InvalidArgument("queue capacity must be >= 1");
  }
  options_ = options;
  {
    // No workers are running yet, but these members are lock-guarded and
    // the analysis (rightly) does not model "not yet concurrent".
    util::MutexLock lock(&mutex_);
    stopping_ = false;
    steals_ = 0;
    rejected_ = 0;
    queues_.assign(static_cast<size_t>(options.num_threads), {});
    depth_hwm_.assign(static_cast<size_t>(options.num_threads), 0);
  }
  if (::pipe(completion_fds_) != 0) {
    return util::Status::Internal(std::string("threaded pool: pipe failed: ") +
                                  std::strerror(errno));
  }
  (void)SetNonBlocking(completion_fds_[0]);
  (void)SetNonBlocking(completion_fds_[1]);

  api::EngineOptions engine = options.engine;
  if (!options.store_path.empty()) {
    // One repairing open, then the SAME handle for every engine: unlike fork
    // mode's handle-per-process, a ProofStore is thread-safe for concurrent
    // readers/appenders sharing an address space, so one open suffices and
    // its in-memory index warms every worker at once.
    auto opened = store::ProofStore::Open(options.store_path, {});
    if (opened.ok()) {
      store_ = std::move(opened).ValueOrDie();
      engine.set_decision_store(store_.get());
    } else {
      // Fail soft to storeless (cold but correct) serving, like fork mode.
      std::fprintf(stderr, "threaded pool: %s; serving without a store\n",
                   opened.status().ToString().c_str());
    }
  }

  workers_.resize(static_cast<size_t>(options.num_threads));
  for (WorkerState& w : workers_) {
    w.service = std::make_unique<Service>(engine);
  }
  for (size_t i = 0; i < workers_.size(); ++i) {
    workers_[i].thread = std::thread(&ThreadedEnginePool::WorkerLoop, this, i);
  }
  return util::Status::OK();
}

void ThreadedEnginePool::Stop() {
  {
    util::MutexLock lock(&mutex_);
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (WorkerState& w : workers_) {
    if (w.thread.joinable()) w.thread.join();
  }
  workers_.clear();
  {
    util::MutexLock lock(&mutex_);
    queues_.clear();
  }
  store_.reset();
  for (int& fd : completion_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  util::MutexLock lock(&completion_mutex_);
  completions_.clear();
}

util::Status ThreadedEnginePool::Submit(size_t worker, uint64_t id,
                                        std::string payload, bool pinned) {
  util::MutexLock lock(&mutex_);
  if (workers_.empty() || stopping_) {
    return util::Status::Unavailable("threaded pool is not serving");
  }
  std::deque<Item>& queue = queues_[worker];
  if (!pinned && queue.size() >= options_.queue_capacity) {
    ++rejected_;
    return util::Status::Unavailable(
        "worker " + std::to_string(worker) + " queue full (" +
        std::to_string(queue.size()) + " requests queued) — retry");
  }
  queue.push_back(Item{id, std::move(payload), pinned});
  depth_hwm_[worker] = std::max(depth_hwm_[worker],
                                static_cast<int64_t>(queue.size()));
  // NotifyAll, not NotifyOne: a wake could land on an idle worker whose
  // steal threshold keeps it from taking this item, and the affinity owner
  // must not stay asleep behind that consumed signal.
  work_cv_.NotifyAll();
  return util::Status::OK();
}

int ThreadedEnginePool::PickVictim(size_t self) const {
  // Deepest queue past the steal threshold that holds at least one
  // stealable (non-pinned) item; while stopping the threshold drops to 1 so
  // the drain never strands work behind a busy owner.
  const size_t threshold = stopping_ ? 1 : options_.steal_threshold;
  int victim = -1;
  size_t best_depth = 0;
  for (size_t w = 0; w < queues_.size(); ++w) {
    if (w == self) continue;
    const std::deque<Item>& queue = queues_[w];
    if (queue.size() < threshold || queue.size() <= best_depth) continue;
    const bool stealable =
        std::any_of(queue.begin(), queue.end(),
                    [](const Item& item) { return !item.pinned; });
    if (!stealable) continue;
    victim = static_cast<int>(w);
    best_depth = queue.size();
  }
  return victim;
}

void ThreadedEnginePool::WorkerLoop(size_t self) {
  while (true) {
    Item item;
    {
      util::MutexLock lock(&mutex_);
      while (true) {
        std::deque<Item>& own = queues_[self];
        if (!own.empty()) {
          item = std::move(own.front());
          own.pop_front();
          break;
        }
        if (const int victim = PickVictim(self); victim >= 0) {
          // Steal the OLDEST stealable item: latency of the longest-waiting
          // request wins over keeping its memo affinity.
          std::deque<Item>& queue = queues_[static_cast<size_t>(victim)];
          auto it = std::find_if(queue.begin(), queue.end(),
                                 [](const Item& i) { return !i.pinned; });
          item = std::move(*it);
          queue.erase(it);
          ++steals_;
          break;
        }
        if (stopping_) {
          const bool all_empty =
              std::all_of(queues_.begin(), queues_.end(),
                          [](const std::deque<Item>& q) { return q.empty(); });
          if (all_empty) return;
        }
        work_cv_.Wait(&mutex_);
      }
      // A pop may have emptied the last queue — wake the exit checks.
      if (stopping_) work_cv_.NotifyAll();
    }
    std::string reply = workers_[self].service->HandleBytes(item.payload);
    if (reply.size() > kMaxFrameBytes) {
      // Same degradation as a fork-mode worker: an unframeable reply
      // becomes an error, not a dead link.
      reply = EncodeResponse(ErrorResponse{util::Status::ResourceExhausted(
          "server: response exceeds the frame cap")});
    }
    PostCompletion(item.id, std::move(reply));
  }
}

void ThreadedEnginePool::PostCompletion(uint64_t id, std::string payload) {
  util::MutexLock lock(&completion_mutex_);
  const bool was_empty = completions_.empty();
  completions_.push_back(Completion{id, std::move(payload), {}});
  if (was_empty && completion_fds_[1] >= 0) {
    // Empty→nonempty transitions carry one pipe byte each, so the poll
    // front wakes at least once per batch of completions; EAGAIN on a full
    // pipe is fine (a byte is already in there).
    const char byte = 'w';
    [[maybe_unused]] const ssize_t n = ::write(completion_fds_[1], &byte, 1);
  }
}

std::vector<ThreadedEnginePool::Completion>
ThreadedEnginePool::TakeCompletions() {
  util::MutexLock lock(&completion_mutex_);
  // Drained under the lock PostCompletion writes under, so no byte outlives
  // the completions it announced and the next post wakes the front again.
  char drain[256];
  while (completion_fds_[0] >= 0 &&
         ::read(completion_fds_[0], drain, sizeof(drain)) > 0) {
  }
  std::vector<Completion> taken;
  taken.swap(completions_);
  return taken;
}

void ThreadedEnginePool::AddBackendCounters(StatsResponse* stats) const {
  QueueStats queues = queue_stats();
  stats->steals = queues.steals;
  stats->queue_depth_hwm = std::move(queues.depth_hwm);
}

ThreadedEnginePool::QueueStats ThreadedEnginePool::queue_stats() const {
  util::MutexLock lock(&mutex_);
  QueueStats stats;
  stats.steals = steals_;
  stats.rejected = rejected_;
  stats.depth_hwm = depth_hwm_;
  return stats;
}

}  // namespace bagcq::service
