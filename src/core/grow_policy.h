// Tree growth policies: the priority queue of Algorithm 1 with the pop
// rule parameterized (Section IV-B).
//
//   depthwise: pop every candidate of the shallowest open depth (level
//              order; same tree as classic depthwise growth).
//   leafwise:  pop the single candidate with the largest loss change.
//   topk:      pop the best K candidates (the paper's new method;
//              K=1 degenerates to leafwise).
#pragma once

#include <vector>

#include "core/params.h"
#include "core/split.h"

namespace harp {

// A leaf with a valid split waiting to be applied.
struct Candidate {
  int node_id = -1;
  int depth = 0;
  SplitInfo split;
};

class GrowQueue {
 public:
  explicit GrowQueue(GrowPolicy policy) : policy_(policy) {}

  void Push(const Candidate& candidate) { heap_.push_back(candidate); FixUp(); }
  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  // Pops the next batch per the policy; `k` is the TopK budget (ignored by
  // depthwise/leafwise). `max_batch` additionally caps the batch (the
  // remaining leaf budget). Never returns an empty vector unless empty.
  std::vector<Candidate> PopBatch(int k, int max_batch);

  // Same pop rule, appending into `out` (cleared first) so steady-state
  // growth can reuse one batch vector instead of allocating per step.
  void PopBatchInto(int k, int max_batch, std::vector<Candidate>* out);

  // Node ids of the first `n` queued candidates in pop order (the order
  // successive pops return them), into `out` (cleared first). Walks the
  // heap from its top, so it costs O(n log n) however long the queue is.
  void TopInPopOrder(size_t n, std::vector<int>* out);

  // Drops all queued candidates (start of a new tree on a reused queue).
  void Clear() { heap_.clear(); }

 private:
  // Ordering: depthwise prefers shallower depth (then node id) so whole
  // levels drain in order; gain-based policies prefer larger gain with
  // the deterministic SplitInfo tie-break.
  bool Before(const Candidate& a, const Candidate& b) const;
  void FixUp();
  Candidate PopTop();

  GrowPolicy policy_;
  std::vector<Candidate> heap_;  // binary heap ordered by Before()
  std::vector<size_t> frontier_;  // TopInPopOrder scratch: heap indices
};

}  // namespace harp
