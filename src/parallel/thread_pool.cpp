#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/env.h"
#include "common/logging.h"
#include "common/timer.h"

namespace harp {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)),
      counters_(static_cast<size_t>(num_threads_)),
      finish_ts_(static_cast<size_t>(num_threads_), 0) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int id = 1; id < num_threads_; ++id) {
    workers_.emplace_back([this, id] { WorkerLoop(id); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

int ThreadPool::DefaultThreads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return GetEnvInt("HARP_BENCH_THREADS", std::max(1, hw));
}

void ThreadPool::RunRegionBody(int thread_id) {
  const int64_t start = NowNs();
  try {
    (*region_fn_)(thread_id);
  } catch (...) {
    std::lock_guard<std::mutex> lock(exception_mutex_);
    if (!first_exception_) first_exception_ = std::current_exception();
  }
  const int64_t end = NowNs();
  counters_[static_cast<size_t>(thread_id)].busy_ns += end - start;
  finish_ts_[static_cast<size_t>(thread_id)] = end;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--remaining_ == 0) {
      region_end_ts_ = end;
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop(int worker_id) {
  uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_cv_.wait(lock,
                    [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
    }
    RunRegionBody(worker_id);
  }
}

void ThreadPool::RunOnAllThreads(const std::function<void(int)>& fn) {
  HARP_CHECK(!in_region_) << "nested parallel regions are not supported";
  ++parallel_regions_;

  if (num_threads_ == 1) {
    const int64_t start = NowNs();
    fn(0);
    counters_[0].busy_ns += NowNs() - start;
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    region_fn_ = &fn;
    remaining_ = num_threads_;
    ++epoch_;
    in_region_ = true;
  }
  wake_cv_.notify_all();
  RunRegionBody(0);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
  }
  // Charge each thread for the gap between finishing its share and the
  // last arrival: this is exactly the end-of-region barrier wait.
  for (int id = 0; id < num_threads_; ++id) {
    const int64_t wait =
        region_end_ts_ - finish_ts_[static_cast<size_t>(id)];
    if (wait > 0) {
      counters_[static_cast<size_t>(id)].barrier_wait_ns += wait;
    }
  }
  in_region_ = false;
  region_fn_ = nullptr;

  if (first_exception_) {
    std::exception_ptr rethrown;
    {
      std::lock_guard<std::mutex> lock(exception_mutex_);
      std::swap(rethrown, first_exception_);
    }
    std::rethrow_exception(rethrown);
  }
}

void ThreadPool::FusedRegion::Run(const std::function<void(int)>& body) {
  cursor_.store(0, std::memory_order_relaxed);
  pool_.RunOnAllThreads([&](int thread_id) {
    try {
      body(thread_id);
    } catch (const AbortTag&) {
      // A peer failed; this thread was released from a spin loop and
      // unwound cleanly. The real exception is rethrown below.
    } catch (...) {
      RecordException();
      barrier_.Abort();
    }
  });
  if (exception_) {
    // Single-threaded again (the region joined), so no lock is needed.
    std::exception_ptr rethrown;
    std::swap(rethrown, exception_);
    std::rethrow_exception(rethrown);
  }
}

void ThreadPool::FusedRegion::RecordException() {
  {
    std::lock_guard<std::mutex> lock(exception_mutex_);
    if (!exception_) exception_ = std::current_exception();
  }
  failed_.store(true, std::memory_order_release);
}

void ThreadPool::ParallelFor(int64_t n, const RangeFn& fn) {
  if (n <= 0) return;
  const int64_t chunk =
      (n + static_cast<int64_t>(num_threads_) - 1) / num_threads_;
  RunOnAllThreads([&](int thread_id) {
    const int64_t begin = static_cast<int64_t>(thread_id) * chunk;
    const int64_t end = std::min<int64_t>(n, begin + chunk);
    if (begin < end) {
      fn(begin, end, thread_id);
      ++counters_[static_cast<size_t>(thread_id)].tasks;
    }
  });
}

void ThreadPool::ParallelForDynamic(int64_t n, int64_t chunk,
                                    const RangeFn& fn) {
  if (n <= 0) return;
  const int64_t step = std::max<int64_t>(1, chunk);
  std::atomic<int64_t> cursor{0};
  RunOnAllThreads([&](int thread_id) {
    for (;;) {
      const int64_t begin =
          cursor.fetch_add(step, std::memory_order_relaxed);
      if (begin >= n) break;
      const int64_t end = std::min<int64_t>(n, begin + step);
      fn(begin, end, thread_id);
      ++counters_[static_cast<size_t>(thread_id)].tasks;
    }
  });
}

SyncSnapshot ThreadPool::Snapshot() const {
  SyncSnapshot snapshot;
  snapshot.threads = num_threads_;
  for (const auto& c : counters_) {
    snapshot.busy_ns += c.busy_ns;
    snapshot.barrier_wait_ns += c.barrier_wait_ns;
    snapshot.tasks += c.tasks;
  }
  snapshot.phase_barriers = phase_barriers_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  snapshot.parallel_regions = parallel_regions_;
  snapshot.spin_acquires = extra_spin_.acquires;
  snapshot.spin_contended = extra_spin_.contended;
  snapshot.spin_wait_ns = extra_spin_.wait_ns;
  return snapshot;
}

void ThreadPool::ResetStats() {
  for (auto& c : counters_) c.Reset();
  phase_barriers_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  parallel_regions_ = 0;
  extra_spin_ = SpinCounters{};
}

void ThreadPool::AddSpinCounters(const SpinCounters& counters) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  extra_spin_.acquires += counters.acquires;
  extra_spin_.contended += counters.contended;
  extra_spin_.wait_ns += counters.wait_ns;
}

}  // namespace harp
