#include "core/grow_policy.h"

#include <algorithm>

#include "common/logging.h"

namespace harp {

bool GrowQueue::Before(const Candidate& a, const Candidate& b) const {
  if (policy_ == GrowPolicy::kDepthwise) {
    if (a.depth != b.depth) return a.depth < b.depth;
    return a.node_id < b.node_id;
  }
  // Gain order; node-id tie-break keeps pops deterministic.
  if (a.split.gain != b.split.gain) return a.split.gain > b.split.gain;
  return a.node_id < b.node_id;
}

void GrowQueue::FixUp() {
  // Sift the newly pushed element up.
  size_t i = heap_.size() - 1;
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!Before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

Candidate GrowQueue::PopTop() {
  HARP_CHECK(!heap_.empty());
  Candidate top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  // Sift down.
  size_t i = 0;
  const size_t n = heap_.size();
  for (;;) {
    const size_t l = 2 * i + 1;
    const size_t r = l + 1;
    size_t best = i;
    if (l < n && Before(heap_[l], heap_[best])) best = l;
    if (r < n && Before(heap_[r], heap_[best])) best = r;
    if (best == i) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
  return top;
}

void GrowQueue::PopBatchInto(int k, int max_batch,
                             std::vector<Candidate>* out) {
  out->clear();
  if (heap_.empty() || max_batch <= 0) return;

  int budget = max_batch;
  switch (policy_) {
    case GrowPolicy::kLeafwise:
      budget = std::min(budget, 1);
      break;
    case GrowPolicy::kTopK:
      budget = std::min(budget, std::max(1, k));
      break;
    case GrowPolicy::kDepthwise:
      break;  // bounded by the level size below
  }

  const int level = heap_.front().depth;
  while (!heap_.empty() && static_cast<int>(out->size()) < budget) {
    if (policy_ == GrowPolicy::kDepthwise && heap_.front().depth != level) {
      break;  // only drain one level per batch
    }
    out->push_back(PopTop());
  }
}

void GrowQueue::TopInPopOrder(size_t n, std::vector<int>* out) {
  out->clear();
  if (heap_.empty() || n == 0) return;
  // Before() is a strict total order (node ids are unique), so pop order
  // is sorted order. A heap entry's parent always pops before it, so the
  // next candidate in pop order is the top or a child of one already
  // taken: a frontier heap over those children yields them in order.
  const auto later = [this](size_t a, size_t b) {
    return Before(heap_[b], heap_[a]);
  };
  frontier_.assign(1, 0);
  while (!frontier_.empty() && out->size() < n) {
    std::pop_heap(frontier_.begin(), frontier_.end(), later);
    const size_t i = frontier_.back();
    frontier_.pop_back();
    out->push_back(heap_[i].node_id);
    for (const size_t child : {2 * i + 1, 2 * i + 2}) {
      if (child >= heap_.size()) break;
      frontier_.push_back(child);
      std::push_heap(frontier_.begin(), frontier_.end(), later);
    }
  }
}

std::vector<Candidate> GrowQueue::PopBatch(int k, int max_batch) {
  std::vector<Candidate> batch;
  PopBatchInto(k, max_batch, &batch);
  return batch;
}

}  // namespace harp
