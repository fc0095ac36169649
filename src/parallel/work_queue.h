// Shared priority work queue + termination tracking for ASYNC mode.
//
// Section IV-D: ASYNC "schedules all the computation involved within one
// tree node as a single task" and replaces for-loop barriers with "a
// lightweight spin mutex" on the shared priority queue and tree. This file
// provides exactly those two pieces:
//   - SharedPriorityQueue<T, Compare>: a binary heap guarded by SpinMutex,
//     so K workers can greedily pop the best available candidate ("let K
//     threads select the top candidate as best as they can").
//   - WorkTracker: counts outstanding work items (queued + in flight) so
//     workers know when the tree is finished without a barrier.
#pragma once

#include <atomic>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "parallel/spin_mutex.h"
#include "parallel/sync_stats.h"

namespace harp {

template <typename T, typename Compare = std::less<T>>
class SharedPriorityQueue {
 public:
  explicit SharedPriorityQueue(Compare cmp = Compare())
      : heap_(std::move(cmp)) {}

  void Push(T item) {
    std::lock_guard<SpinMutex> lock(mutex_);
    heap_.push(std::move(item));
  }

  // Pops the best item into *out; returns false when the queue is empty.
  bool TryPop(T* out) {
    std::lock_guard<SpinMutex> lock(mutex_);
    if (heap_.empty()) return false;
    *out = heap_.top();
    heap_.pop();
    return true;
  }

  size_t Size() const {
    std::lock_guard<SpinMutex> lock(mutex_);
    return heap_.size();
  }

  bool Empty() const { return Size() == 0; }

  // Spin-lock contention counters for this queue's mutex.
  SpinCounters LockCounters() const { return mutex_.GetCounters(); }

 private:
  mutable SpinMutex mutex_;
  std::priority_queue<T, std::vector<T>, Compare> heap_;
};

// Counts outstanding work: a unit is outstanding from Add() until Done().
// Producers that are themselves workers (node tasks push child tasks) keep
// the count > 0 while processing, so Quiescent() never fires early.
class WorkTracker {
 public:
  void Add(int64_t n = 1) {
    outstanding_.fetch_add(n, std::memory_order_acq_rel);
  }

  void Done(int64_t n = 1) {
    outstanding_.fetch_sub(n, std::memory_order_acq_rel);
  }

  int64_t Outstanding() const {
    return outstanding_.load(std::memory_order_acquire);
  }

  bool Quiescent() const { return Outstanding() == 0; }

  // Blocks (yielding) until all outstanding work has completed.
  void WaitQuiescent() const;

 private:
  std::atomic<int64_t> outstanding_{0};
};

}  // namespace harp
