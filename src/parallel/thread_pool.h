// Persistent instrumented thread pool.
//
// This is the repo's stand-in for the OpenMP runtime the paper profiles.
// Owning the runtime gives us two things the reproduction needs:
//   1. OpenMP semantics made explicit — every parallel region ends in a
//      counted barrier whose per-thread wait time is measured exactly,
//      which is how the Table I / Table VI "barrier overhead" rows are
//      regenerated without VTune.
//   2. A region primitive (RunOnAllThreads) on which the ASYNC builder can
//      run a whole tree with a single barrier at the end, exactly the
//      "schedule all computation of one node as a single task" design of
//      Section IV-D.
//
// Parallel regions must not be nested: a thread inside RunOnAllThreads /
// ParallelFor must not start another region on the same pool (checked).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "parallel/phase_barrier.h"
#include "parallel/sync_stats.h"

namespace harp {

class ThreadPool {
 public:
  // Body of a parallel-for: processes [begin, end) on thread `thread_id`.
  using RangeFn = std::function<void(int64_t begin, int64_t end, int thread_id)>;

  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs fn(thread_id) on every thread (the caller participates as thread
  // 0); returns after all threads finish. Counts as one parallel region /
  // one barrier. Exceptions thrown by fn are rethrown here (first wins).
  void RunOnAllThreads(const std::function<void(int)>& fn);

  // Splits [0, n) into num_threads contiguous chunks (OpenMP static
  // schedule). Threads with no work still participate in the barrier.
  void ParallelFor(int64_t n, const RangeFn& fn);

  // Work is grabbed in `chunk`-sized pieces via an atomic cursor (OpenMP
  // dynamic schedule). Load-imbalanced loops should prefer this.
  void ParallelForDynamic(int64_t n, int64_t chunk, const RangeFn& fn);

  // Aggregated synchronization counters since construction / ResetStats().
  SyncSnapshot Snapshot() const;
  void ResetStats();

  // Folds spin-lock counters (e.g. from the ASYNC builder's queue lock)
  // into this pool's snapshot so one report covers both kinds of waiting.
  void AddSpinCounters(const SpinCounters& counters);

  // Records dynamic task executions attributed to thread `thread_id` while
  // inside a region (used by builders that do their own task accounting).
  void CountTask(int thread_id) { ++counters_[thread_id].tasks; }

  // Records one in-region phase-barrier rendezvous (FusedRegion calls this
  // from the last-arriving thread; reported as SyncSnapshot::phase_barriers
  // next to parallel_regions so the two schedulers' costs are comparable).
  void CountPhaseBarrier() {
    phase_barriers_.fetch_add(1, std::memory_order_relaxed);
  }

  // Keeps every pool thread resident inside ONE parallel region while the
  // caller sequences multiple phases through in-region barriers — the
  // fused-step primitive. One Run replaces a region launch per phase with
  // a PhaseBarrier rendezvous per phase.
  //
  // Collective contract: the body passed to Run executes on every thread,
  // and all threads must invoke the same FusedRegion services (Barrier /
  // ForDynamic / ForStatic) in the same order. At most one ForDynamic may
  // run between consecutive Barriers: the shared chunk cursor is reset at
  // Run entry and by every barrier, never by ForDynamic itself. Nesting
  // rules are unchanged — the body must not start another region on the
  // same pool (RunOnAllThreads' in_region_ check still fires).
  //
  // Exceptions: a throw from the body or a barrier epilogue aborts the
  // region. Peers are released from their spin loops, unwind via an
  // internal tag exception that Run's wrapper swallows, and the first real
  // exception is rethrown from Run on the caller. A FusedRegion that threw
  // must not be reused.
  class FusedRegion {
   public:
    explicit FusedRegion(ThreadPool& pool)
        : pool_(pool), barrier_(pool.num_threads()) {}

    int num_threads() const { return pool_.num_threads(); }

    // Runs body(thread_id) on every pool thread inside one region (counts
    // as exactly one parallel region launch, like RunOnAllThreads).
    void Run(const std::function<void(int)>& body);

    // In-region rendezvous. `epilogue` runs on the LAST arriving thread
    // while every peer is still parked — the serial glue slot between two
    // phases (scan publication, next-phase task staging, ...): it may
    // touch shared state without locks and its writes happen-before
    // everything the released threads do. Waiters' park time is recorded
    // as barrier wait, keeping utilization/overhead metrics honest.
    template <typename Fn>
    void Barrier(int thread_id, Fn&& epilogue) {
      const int64_t start = NowNs();
      bool last = false;
      const bool released = barrier_.Wait([&] {
        last = true;
        if (!failed_.load(std::memory_order_relaxed)) {
          try {
            epilogue();
          } catch (...) {
            RecordException();
          }
        }
        cursor_.store(0, std::memory_order_relaxed);
        pool_.CountPhaseBarrier();
      });
      if (!last && released) {
        pool_.ReclassifyBusyAsWait(thread_id, NowNs() - start);
      }
      if (!released || failed_.load(std::memory_order_acquire)) {
        throw AbortTag{};
      }
    }
    void Barrier(int thread_id) {
      Barrier(thread_id, [] {});
    }

    // Dynamic-schedule loop over [0, n) in `chunk`-sized pieces via the
    // region's shared cursor (the in-region ParallelForDynamic analogue).
    template <typename Fn>
    void ForDynamic(int thread_id, int64_t n, int64_t chunk, Fn&& fn) {
      const int64_t step = std::max<int64_t>(1, chunk);
      for (;;) {
        if (failed_.load(std::memory_order_acquire)) throw AbortTag{};
        const int64_t begin =
            cursor_.fetch_add(step, std::memory_order_relaxed);
        if (begin >= n) return;
        fn(begin, std::min<int64_t>(n, begin + step), thread_id);
        pool_.CountTask(thread_id);
      }
    }

    // Static-schedule loop: the ParallelFor chunking (contiguous per-thread
    // ranges) without a region launch. No cursor use, so it composes with
    // a preceding ForDynamic in the same barrier window if ever needed.
    template <typename Fn>
    void ForStatic(int thread_id, int64_t n, Fn&& fn) {
      if (failed_.load(std::memory_order_acquire)) throw AbortTag{};
      if (n <= 0) return;
      const int64_t chunk =
          (n + static_cast<int64_t>(num_threads()) - 1) / num_threads();
      const int64_t begin = static_cast<int64_t>(thread_id) * chunk;
      const int64_t end = std::min<int64_t>(n, begin + chunk);
      if (begin < end) {
        fn(begin, end, thread_id);
        pool_.CountTask(thread_id);
      }
    }

   private:
    // Thrown to unwind peers after another thread failed; swallowed by
    // Run's wrapper (the real exception is rethrown from Run).
    struct AbortTag {};

    void RecordException();

    ThreadPool& pool_;
    PhaseBarrier barrier_;
    alignas(64) std::atomic<int64_t> cursor_{0};
    std::atomic<bool> failed_{false};
    std::exception_ptr exception_;
    std::mutex exception_mutex_;
  };

  // Reclassifies `ns` of thread `thread_id`'s region time from busy to
  // barrier wait. The ASYNC builder uses this for worker starvation (spins
  // on an empty queue while peers finish): it is wait, not work, and must
  // not inflate the utilization metric.
  void ReclassifyBusyAsWait(int thread_id, int64_t ns) {
    auto& c = counters_[static_cast<size_t>(thread_id)];
    c.busy_ns -= ns;
    c.barrier_wait_ns += ns;
  }

  // Default thread count: HARP_BENCH_THREADS env var if set, otherwise
  // hardware_concurrency (min 1).
  static int DefaultThreads();

 private:
  void WorkerLoop(int worker_id);
  // Executes the current region's function as `thread_id`, recording busy
  // time and the finish timestamp used for barrier-wait accounting.
  void RunRegionBody(int thread_id);

  const int num_threads_;
  std::vector<std::thread> workers_;

  // Region hand-off state (guarded by mutex_ / signalled by wake_cv_).
  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  uint64_t epoch_ = 0;        // incremented once per region
  int remaining_ = 0;         // threads yet to finish the current region
  bool shutdown_ = false;
  const std::function<void(int)>* region_fn_ = nullptr;
  bool in_region_ = false;    // nesting guard

  // Per-thread accounting (cache-line padded; index = thread id).
  std::vector<WorkerCounters> counters_;
  std::vector<int64_t> finish_ts_;  // per-thread region finish timestamps
  int64_t region_end_ts_ = 0;       // when the last thread finished

  std::exception_ptr first_exception_;
  std::mutex exception_mutex_;

  int64_t parallel_regions_ = 0;
  // Relaxed atomic (not under stats_mutex_): bumped from inside regions by
  // the last thread of every FusedRegion barrier.
  std::atomic<int64_t> phase_barriers_{0};
  SpinCounters extra_spin_;
  mutable std::mutex stats_mutex_;
};

}  // namespace harp
