// Unit tests for the parallel runtime: ThreadPool, SpinMutex,
// SharedPriorityQueue, WorkTracker.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/spin_mutex.h"
#include "parallel/thread_pool.h"
#include "parallel/work_queue.h"

namespace harp {
namespace {

class ThreadPoolParam : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Threads, ThreadPoolParam,
                         ::testing::Values(1, 2, 4, 7));

TEST_P(ThreadPoolParam, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(GetParam());
  const int64_t n = 10001;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&](int64_t begin, int64_t end, int) {
    for (int64_t i = begin; i < end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<size_t>(i)], 1);
}

TEST_P(ThreadPoolParam, ParallelForDynamicCoversEveryIndexOnce) {
  ThreadPool pool(GetParam());
  const int64_t n = 9973;  // prime, awkward chunking
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelForDynamic(n, 17, [&](int64_t begin, int64_t end, int) {
    for (int64_t i = begin; i < end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<size_t>(i)], 1);
}

TEST_P(ThreadPoolParam, SumReduction) {
  ThreadPool pool(GetParam());
  const int64_t n = 100000;
  std::atomic<int64_t> total{0};
  pool.ParallelFor(n, [&](int64_t begin, int64_t end, int) {
    int64_t local = 0;
    for (int64_t i = begin; i < end; ++i) local += i;
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), n * (n - 1) / 2);
}

TEST_P(ThreadPoolParam, RunOnAllThreadsUniqueIds) {
  ThreadPool pool(GetParam());
  std::vector<std::atomic<int>> seen(static_cast<size_t>(GetParam()));
  pool.RunOnAllThreads([&](int id) {
    ASSERT_GE(id, 0);
    ASSERT_LT(id, GetParam());
    seen[static_cast<size_t>(id)].fetch_add(1);
  });
  for (int i = 0; i < GetParam(); ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)], 1);
  }
}

TEST_P(ThreadPoolParam, BackToBackRegions) {
  ThreadPool pool(GetParam());
  std::atomic<int64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(100, [&](int64_t begin, int64_t end, int) {
      total.fetch_add(end - begin);
    });
  }
  EXPECT_EQ(total.load(), 50 * 100);
}

TEST_P(ThreadPoolParam, ExceptionPropagatesToCaller) {
  ThreadPool pool(GetParam());
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](int64_t begin, int64_t, int) {
                         if (begin == 0) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must remain usable after an exception.
  std::atomic<int> ran{0};
  pool.ParallelFor(10, [&](int64_t b, int64_t e, int) {
    ran.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, EmptyRangeIsNoOp) {
  ThreadPool pool(3);
  bool called = false;
  pool.ParallelFor(0, [&](int64_t, int64_t, int) { called = true; });
  pool.ParallelForDynamic(-5, 1, [&](int64_t, int64_t, int) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_EQ(pool.Snapshot().parallel_regions, 0);
}

TEST(ThreadPool, CountsRegionsAndBusyTime) {
  ThreadPool pool(2);
  pool.ResetStats();
  for (int i = 0; i < 5; ++i) {
    pool.ParallelFor(1000, [&](int64_t b, int64_t e, int) {
      double x = 0;
      for (int64_t j = b; j < e; ++j) x += static_cast<double>(j);
      volatile double sink = x;
      (void)sink;
    });
  }
  const SyncSnapshot s = pool.Snapshot();
  EXPECT_EQ(s.parallel_regions, 5);
  EXPECT_GT(s.busy_ns, 0);
  EXPECT_EQ(s.threads, 2);
}

TEST(ThreadPool, SnapshotDeltaSubtracts) {
  ThreadPool pool(2);
  pool.ParallelFor(10, [](int64_t, int64_t, int) {});
  const SyncSnapshot before = pool.Snapshot();
  pool.ParallelFor(10, [](int64_t, int64_t, int) {});
  pool.ParallelFor(10, [](int64_t, int64_t, int) {});
  const SyncSnapshot delta = pool.Snapshot() - before;
  EXPECT_EQ(delta.parallel_regions, 2);
}

TEST(ThreadPool, UtilizationBounded) {
  ThreadPool pool(4);
  pool.ResetStats();
  const int64_t start = NowNs();
  pool.ParallelFor(200000, [&](int64_t b, int64_t e, int) {
    double x = 0;
    for (int64_t j = b; j < e; ++j) x += static_cast<double>(j);
    volatile double sink = x;
    (void)sink;
  });
  const int64_t wall = NowNs() - start;
  const double util = pool.Snapshot().Utilization(wall);
  EXPECT_GT(util, 0.0);
  EXPECT_LE(util, 1.05);  // small clock-skew slack
}

TEST(ThreadPool, AddSpinCountersFoldsIn) {
  ThreadPool pool(1);
  SpinCounters c;
  c.acquires = 10;
  c.contended = 2;
  c.wait_ns = 500;
  pool.AddSpinCounters(c);
  pool.AddSpinCounters(c);
  const SyncSnapshot s = pool.Snapshot();
  EXPECT_EQ(s.spin_acquires, 20);
  EXPECT_EQ(s.spin_contended, 4);
  EXPECT_EQ(s.spin_wait_ns, 1000);
}

TEST(ThreadPool, DefaultThreadsHonoursEnv) {
  ::setenv("HARP_BENCH_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 3);
  ::unsetenv("HARP_BENCH_THREADS");
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

// ---------- SyncSnapshot arithmetic ----------

TEST(SyncSnapshot, OverheadFormulas) {
  SyncSnapshot s;
  s.threads = 4;
  s.busy_ns = 600;
  s.barrier_wait_ns = 400;
  s.spin_wait_ns = 150;
  EXPECT_DOUBLE_EQ(s.BarrierOverhead(), 0.4);
  EXPECT_DOUBLE_EQ(s.SpinOverhead(), 0.2);
  EXPECT_DOUBLE_EQ(s.Utilization(1000), 600.0 / 4000.0);
  SyncSnapshot zero;
  EXPECT_DOUBLE_EQ(zero.BarrierOverhead(), 0.0);
  EXPECT_DOUBLE_EQ(zero.Utilization(0), 0.0);
}

// ---------- SpinMutex ----------

TEST(SpinMutex, MutualExclusion) {
  SpinMutex mutex;
  int64_t counter = 0;
  ThreadPool pool(4);
  pool.ParallelForDynamic(10000, 1, [&](int64_t b, int64_t e, int) {
    for (int64_t i = b; i < e; ++i) {
      std::lock_guard<SpinMutex> lock(mutex);
      ++counter;  // unprotected increment would lose updates
    }
  });
  EXPECT_EQ(counter, 10000);
  EXPECT_EQ(mutex.GetCounters().acquires, 10000);
}

TEST(SpinMutex, TryLock) {
  SpinMutex mutex;
  EXPECT_TRUE(mutex.try_lock());
  EXPECT_FALSE(mutex.try_lock());
  mutex.unlock();
  EXPECT_TRUE(mutex.try_lock());
  mutex.unlock();
}

TEST(SpinMutex, CountersResetAndContention) {
  SpinMutex mutex;
  mutex.lock();
  mutex.unlock();
  EXPECT_EQ(mutex.GetCounters().acquires, 1);
  mutex.ResetCounters();
  EXPECT_EQ(mutex.GetCounters().acquires, 0);

  // Force contention: one thread holds the lock while another waits.
  mutex.lock();
  std::thread waiter([&] {
    mutex.lock();
    mutex.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  mutex.unlock();
  waiter.join();
  const SpinCounters c = mutex.GetCounters();
  EXPECT_EQ(c.acquires, 2);
  EXPECT_EQ(c.contended, 1);
  EXPECT_GT(c.wait_ns, 0);
}

// ---------- SharedPriorityQueue ----------

TEST(SharedPriorityQueue, PopsInPriorityOrder) {
  SharedPriorityQueue<int> queue;  // std::less -> max-heap
  for (int v : {3, 1, 4, 1, 5, 9, 2, 6}) queue.Push(v);
  std::vector<int> popped;
  int v = 0;
  while (queue.TryPop(&v)) popped.push_back(v);
  const std::vector<int> expected{9, 6, 5, 4, 3, 2, 1, 1};
  EXPECT_EQ(popped, expected);
  EXPECT_FALSE(queue.TryPop(&v));
}

TEST(SharedPriorityQueue, ConcurrentPushPopConservesItems) {
  SharedPriorityQueue<int> queue;
  const int per_thread = 2000;
  ThreadPool pool(4);
  std::atomic<int64_t> pop_sum{0};
  std::atomic<int> popped_count{0};
  pool.RunOnAllThreads([&](int id) {
    if (id % 2 == 0) {
      for (int i = 0; i < per_thread; ++i) queue.Push(id * per_thread + i);
    } else {
      int v = 0;
      // Pop opportunistically while producers run.
      for (int i = 0; i < per_thread; ++i) {
        if (queue.TryPop(&v)) {
          pop_sum.fetch_add(v);
          popped_count.fetch_add(1);
        }
      }
    }
  });
  // Drain the rest single-threaded.
  int v = 0;
  while (queue.TryPop(&v)) {
    pop_sum.fetch_add(v);
    popped_count.fetch_add(1);
  }
  EXPECT_EQ(popped_count.load(), 2 * per_thread);
  int64_t expected = 0;
  for (int id : {0, 2}) {
    for (int i = 0; i < per_thread; ++i) expected += id * per_thread + i;
  }
  EXPECT_EQ(pop_sum.load(), expected);
}

// ---------- WorkTracker ----------

TEST(WorkTracker, TracksOutstanding) {
  WorkTracker tracker;
  EXPECT_TRUE(tracker.Quiescent());
  tracker.Add(3);
  EXPECT_EQ(tracker.Outstanding(), 3);
  tracker.Done();
  tracker.Done(2);
  EXPECT_TRUE(tracker.Quiescent());
}

TEST(WorkTracker, WaitQuiescentBlocksUntilDone) {
  WorkTracker tracker;
  tracker.Add();
  std::thread finisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    tracker.Done();
  });
  tracker.WaitQuiescent();
  EXPECT_TRUE(tracker.Quiescent());
  finisher.join();
}

}  // namespace
}  // namespace harp
