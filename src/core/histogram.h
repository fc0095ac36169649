// Node histogram storage (the GHSum structure of Fig. 5).
//
// Each node's histogram is a flat array of TotalBins() GHPair slots
// (16 bytes each), indexed by BinOffset(feature) + bin. A pool recycles
// buffers across nodes and trees — at most O(active nodes) buffers live at
// once — and supports the parent-minus-sibling subtraction trick in place:
// Transfer hands the parent's buffer to its larger child, which becomes
// parent - sibling without a second buffer. Acquire/Release are guarded by
// a spin mutex so ASYNC worker threads can allocate node histograms
// concurrently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/aligned.h"
#include "core/gh.h"
#include "parallel/spin_mutex.h"

namespace harp {

class ThreadPool;

class HistogramPool {
 public:
  explicit HistogramPool(size_t total_bins) : total_bins_(total_bins) {}

  size_t total_bins() const { return total_bins_; }

  // Returns a histogram registered under `node_id`; the node must not
  // already own one. Thread safe. Its contents are unspecified (a recycled
  // buffer comes back as it was released): every builder writes each slot
  // it owns inside its own parallel phase, so no serial fill runs here,
  // under the lock, while the other threads wait.
  GHPair* Acquire(int node_id);

  // Histogram of `node_id` (must exist). Thread safe.
  GHPair* Get(int node_id);
  const GHPair* Get(int node_id) const;

  bool Has(int node_id) const;

  // Re-registers the buffer of `from` (must exist) under `to` (must not
  // own one), contents untouched. Thread safe.
  void Transfer(int from, int to);

  // Returns the buffer of `node_id` to the free list. Thread safe.
  void Release(int node_id);

  // Releases every buffer whose node is not in `keep`. Thread safe.
  void RetainOnly(std::span<const int> keep);

  // Releases everything (start of a new tree).
  void ReleaseAll();

  // High-water mark of simultaneously live buffers x bytes per buffer.
  size_t PeakBytes() const;

 private:
  using Buffer = AlignedVector<GHPair>;

  size_t total_bins_;
  mutable SpinMutex mutex_;
  std::vector<Buffer> free_list_;
  std::unordered_map<int, Buffer> in_use_;
  size_t peak_in_use_ = 0;
};

// dst[i] += src[i] over `n` slots.
void AddHistogram(GHPair* dst, const GHPair* src, size_t n);

// hist[i] -= sibling[i] over `n` slots (the subtraction trick: a parent's
// histogram becomes its larger child's for free).
void SubtractHistogram(GHPair* hist, const GHPair* sibling, size_t n);

// Zeroes `n` slots.
void ClearHistogram(GHPair* hist, size_t n);

// Sums all slots (used to cross-check against the node's gradient total).
GHPair SumHistogramFeature(const GHPair* hist, uint32_t offset,
                           uint32_t num_bins);

}  // namespace harp
