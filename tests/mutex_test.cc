// util::Mutex / MutexLock / CondVar — the annotated capability types every
// locked layer (engine pool, proof store) now uses.
//
// Two things are under test:
//   1. Runtime semantics: mutual exclusion actually excludes and CondVar
//      wait/notify actually wakes, under real thread contention. The
//      ThreadedMutex* suites run in the TSan CI job (the tsan filter
//      matches "ThreadedMutex"), so the adopt_lock handoff inside
//      CondVar::Wait is race-checked, not just eyeballed.
//   2. Compile-time contract: on non-Clang compilers every BAGCQ_* macro
//      must expand to NOTHING — the annotations are a Clang-only analysis
//      layer, and a stray token from a macro would break the GCC build of
//      every header that uses them.

#include "util/mutex.h"

#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/thread_annotations.h"

namespace bagcq::util {
namespace {

// ---------------------------------------------------------- macro expansion
// Stringize through a second layer so the macro EXPANDS before #: on GCC
// the result must be the empty string, on Clang the attribute spelling.
#define BAGCQ_MUTEX_TEST_STR_(x) #x
#define BAGCQ_MUTEX_TEST_STR(x) BAGCQ_MUTEX_TEST_STR_(x)

#if defined(__clang__)
static_assert(sizeof(BAGCQ_MUTEX_TEST_STR(BAGCQ_GUARDED_BY(m))) > 1,
              "under Clang the annotation must expand to an attribute");
#else
static_assert(sizeof(BAGCQ_MUTEX_TEST_STR(BAGCQ_GUARDED_BY(m))) == 1 &&
                  sizeof(BAGCQ_MUTEX_TEST_STR(BAGCQ_REQUIRES(m))) == 1 &&
                  sizeof(BAGCQ_MUTEX_TEST_STR(BAGCQ_EXCLUDES(m))) == 1 &&
                  sizeof(BAGCQ_MUTEX_TEST_STR(BAGCQ_ACQUIRE(m))) == 1 &&
                  sizeof(BAGCQ_MUTEX_TEST_STR(BAGCQ_RELEASE(m))) == 1 &&
                  sizeof(BAGCQ_MUTEX_TEST_STR(BAGCQ_PT_GUARDED_BY(m))) == 1 &&
                  sizeof(BAGCQ_MUTEX_TEST_STR(BAGCQ_RETURN_CAPABILITY(m))) ==
                      1 &&
                  sizeof(BAGCQ_MUTEX_TEST_STR(
                      BAGCQ_NO_THREAD_SAFETY_ANALYSIS)) == 1,
              "on non-Clang compilers every annotation macro must expand "
              "to nothing");
// The class-level macros have no parenthesized argument list; check them
// the same way.
static_assert(sizeof(BAGCQ_MUTEX_TEST_STR(BAGCQ_CAPABILITY("x"))) == 1 &&
                  sizeof(BAGCQ_MUTEX_TEST_STR(BAGCQ_SCOPED_CAPABILITY)) == 1,
              "class-level annotation macros must also vanish");
#endif

#undef BAGCQ_MUTEX_TEST_STR
#undef BAGCQ_MUTEX_TEST_STR_

// --------------------------------------------------------------- semantics

TEST(ThreadedMutexTest, ContendedIncrementsAreMutuallyExclusive) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  Mutex mu;
  long counter = 0;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();

  MutexLock lock(&mu);
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kPerThread);
}

TEST(ThreadedMutexTest, BothLockSpellingsPairCorrectly) {
  // Mutex exposes BasicLockable spellings (lock/unlock) alongside
  // Lock/Unlock; both acquire the same capability.
  Mutex mu;
  int value = 0;
  mu.lock();
  value = 41;
  mu.unlock();
  mu.Lock();
  ++value;
  mu.Unlock();
  MutexLock lock(&mu);
  EXPECT_EQ(value, 42);
}

TEST(ThreadedMutexTest, CondVarWakesWaiterOnNotifyOne) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  long observed = 0;

  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
    observed = 1;
  });
  {
    MutexLock lock(&mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();

  MutexLock lock(&mu);
  EXPECT_EQ(observed, 1);
}

TEST(ThreadedMutexTest, CondVarNotifyAllReleasesEveryWaiter) {
  constexpr int kWaiters = 6;
  Mutex mu;
  CondVar cv;
  bool go = false;
  int woke = 0;

  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&] {
      MutexLock lock(&mu);
      while (!go) cv.Wait(&mu);
      ++woke;
    });
  }
  {
    MutexLock lock(&mu);
    go = true;
  }
  cv.NotifyAll();
  for (auto& th : waiters) th.join();

  MutexLock lock(&mu);
  EXPECT_EQ(woke, kWaiters);
}

TEST(ThreadedMutexTest, CondVarProducerConsumerHandsOffEveryItem) {
  // The adopt_lock/release dance inside CondVar::Wait must leave the mutex
  // held on every wakeup; a slip shows up here as a TSan race or a lost
  // item. One producer, two consumers, 1000 items, sentinel shutdown.
  constexpr int kItems = 1000;
  Mutex mu;
  CondVar cv;
  std::vector<int> queue;
  bool done = false;
  long consumed = 0;

  auto consumer = [&] {
    while (true) {
      MutexLock lock(&mu);
      while (queue.empty() && !done) cv.Wait(&mu);
      if (!queue.empty()) {
        queue.pop_back();
        ++consumed;
      } else if (done) {
        return;
      }
    }
  };
  std::thread c1(consumer), c2(consumer);
  for (int i = 0; i < kItems; ++i) {
    {
      MutexLock lock(&mu);
      queue.push_back(i);
    }
    cv.NotifyOne();
  }
  {
    MutexLock lock(&mu);
    done = true;
  }
  cv.NotifyAll();
  c1.join();
  c2.join();

  MutexLock lock(&mu);
  EXPECT_EQ(consumed, kItems);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace bagcq::util
