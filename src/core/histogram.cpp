#include "core/histogram.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace harp {

GHPair* HistogramPool::Acquire(int node_id) {
  std::lock_guard<SpinMutex> lock(mutex_);
  HARP_CHECK(in_use_.find(node_id) == in_use_.end())
      << "node " << node_id << " already owns a histogram";
  Buffer buffer;
  if (!free_list_.empty()) {
    buffer = std::move(free_list_.back());
    free_list_.pop_back();
  } else {
    buffer.assign(total_bins_, GHPair{});
  }
  auto [it, inserted] = in_use_.emplace(node_id, std::move(buffer));
  HARP_CHECK(inserted);
  peak_in_use_ = std::max(peak_in_use_, in_use_.size());
  return it->second.data();
}

GHPair* HistogramPool::Get(int node_id) {
  std::lock_guard<SpinMutex> lock(mutex_);
  auto it = in_use_.find(node_id);
  HARP_CHECK(it != in_use_.end()) << "node " << node_id << " has no histogram";
  return it->second.data();
}

const GHPair* HistogramPool::Get(int node_id) const {
  std::lock_guard<SpinMutex> lock(mutex_);
  auto it = in_use_.find(node_id);
  HARP_CHECK(it != in_use_.end()) << "node " << node_id << " has no histogram";
  return it->second.data();
}

bool HistogramPool::Has(int node_id) const {
  std::lock_guard<SpinMutex> lock(mutex_);
  return in_use_.find(node_id) != in_use_.end();
}

void HistogramPool::Transfer(int from, int to) {
  std::lock_guard<SpinMutex> lock(mutex_);
  auto it = in_use_.find(from);
  HARP_CHECK(it != in_use_.end()) << "node " << from << " has no histogram";
  Buffer buffer = std::move(it->second);
  in_use_.erase(it);
  const bool inserted = in_use_.emplace(to, std::move(buffer)).second;
  HARP_CHECK(inserted) << "node " << to << " already owns a histogram";
}

void HistogramPool::Release(int node_id) {
  std::lock_guard<SpinMutex> lock(mutex_);
  auto it = in_use_.find(node_id);
  HARP_CHECK(it != in_use_.end()) << "node " << node_id << " has no histogram";
  free_list_.push_back(std::move(it->second));
  in_use_.erase(it);
}

void HistogramPool::RetainOnly(std::span<const int> keep) {
  std::lock_guard<SpinMutex> lock(mutex_);
  for (auto it = in_use_.begin(); it != in_use_.end();) {
    if (std::find(keep.begin(), keep.end(), it->first) != keep.end()) {
      ++it;
      continue;
    }
    free_list_.push_back(std::move(it->second));
    it = in_use_.erase(it);
  }
}

void HistogramPool::ReleaseAll() {
  std::lock_guard<SpinMutex> lock(mutex_);
  for (auto& [id, buffer] : in_use_) {
    free_list_.push_back(std::move(buffer));
  }
  in_use_.clear();
}

size_t HistogramPool::PeakBytes() const {
  std::lock_guard<SpinMutex> lock(mutex_);
  return peak_in_use_ * total_bins_ * sizeof(GHPair);
}

// The blocked DP reduction leans on these loops vectorizing; the restrict
// qualifiers license it (callers never pass overlapping histograms).
void AddHistogram(GHPair* __restrict dst, const GHPair* __restrict src,
                  size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void SubtractHistogram(GHPair* __restrict hist,
                       const GHPair* __restrict sibling, size_t n) {
  for (size_t i = 0; i < n; ++i) hist[i] -= sibling[i];
}

void ClearHistogram(GHPair* hist, size_t n) {
  std::fill(hist, hist + n, GHPair{});
}

GHPair SumHistogramFeature(const GHPair* hist, uint32_t offset,
                           uint32_t num_bins) {
  GHPair sum;
  for (uint32_t b = 0; b < num_bins; ++b) sum += hist[offset + b];
  return sum;
}

}  // namespace harp
