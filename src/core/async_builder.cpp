// ASYNC growth (Section IV-D): every candidate node is one task; worker
// threads pop the best available candidate from a shared spin-mutex-guarded
// priority queue, do the node's ApplySplit + BuildHist + FindSplit
// themselves, and push the children — no parallel-for barriers at all.
// This is the paper's "loosely coupled TopK": K threads each take the best
// candidate they can get, so no global synchronization selects a strict
// top-K set.
#include <atomic>

#include "common/logging.h"
#include "common/timer.h"
#include "core/tree_builder.h"
#include "parallel/spin_mutex.h"
#include "parallel/work_queue.h"

namespace harp {
namespace {

// Pop order for the shared queue: larger gain first, deterministic
// node-id tie-break.
struct CandidateWorse {
  bool operator()(const Candidate& a, const Candidate& b) const {
    if (a.split.gain != b.split.gain) return a.split.gain < b.split.gain;
    return a.node_id > b.node_id;
  }
};

// Per-worker phase accounting, padded against false sharing.
struct alignas(64) WorkerPhase {
  int64_t build_ns = 0;
  int64_t find_ns = 0;
  int64_t apply_ns = 0;
  int64_t starve_ns = 0;  // empty-queue spinning, reclassified as wait
  int64_t hist_updates = 0;
  int64_t hist_builds = 0;
};

}  // namespace

void HarpTreeBuilder::AsyncGrow(RegTree& tree, GrowQueue& queue,
                                int64_t& leaves, TrainStats* stats) {
  const int64_t max_leaves = params_.MaxLeaves();
  const int max_depth = params_.MaxDepth();
  const uint32_t num_features = matrix_.num_features();

  // Phase 1 (the leading "X" of mix mode (X, node parallelism, X)): grow
  // batch-synchronously with DP until there is at least one candidate per
  // thread, so node-level parallelism has enough width.
  const size_t ramp_target = static_cast<size_t>(pool_.num_threads());
  SyncGrow(tree, queue, leaves, stats,
           [&] { return queue.Size() >= ramp_target; });
  if (queue.Empty() || leaves >= max_leaves) return;

  // Phase 2: node-parallel. Move the remaining candidates into the shared
  // queue.
  SharedPriorityQueue<Candidate, CandidateWorse> shared;
  WorkTracker tracker;
  while (!queue.Empty()) {
    for (const Candidate& cand : queue.PopBatch(1 << 20, 1 << 20)) {
      shared.Push(cand);
      tracker.Add();
    }
  }

  const int64_t initial_leaves = leaves;
  std::atomic<int64_t> leaf_count{leaves};
  SpinMutex tree_mutex;
  std::vector<WorkerPhase> phase(
      static_cast<size_t>(pool_.num_threads()));
  const BuildContext ctx = Context();

  pool_.RunOnAllThreads([&](int thread_id) {
    WorkerPhase& ph = phase[static_cast<size_t>(thread_id)];
    for (;;) {
      Candidate cand;
      if (!shared.TryPop(&cand)) {
        if (tracker.Quiescent()) break;
        const int64_t starve_start = NowNs();
        std::this_thread::yield();
        ph.starve_ns += NowNs() - starve_start;
        continue;
      }

      // Claim one unit of the leaf budget; failure means the tree is full
      // and this candidate stays a leaf.
      int64_t current = leaf_count.load(std::memory_order_relaxed);
      bool claimed = false;
      while (current < max_leaves) {
        if (leaf_count.compare_exchange_weak(current, current + 1,
                                             std::memory_order_acq_rel)) {
          claimed = true;
          break;
        }
      }
      if (!claimed) {
        tracker.Done();
        continue;
      }

      // --- ApplySplit: tree mutation under the spin mutex, row partition
      // outside it. Workers use the partitioner's serial path (pool ==
      // nullptr): disjoint nodes own disjoint arena windows in both
      // buffers and the serial path keeps its scratch thread-local, so
      // concurrent partitions of distinct nodes never share state.
      const int64_t apply_start = NowNs();
      int left = -1;
      int right = -1;
      {
        std::lock_guard<SpinMutex> lock(tree_mutex);
        const float cut =
            matrix_.cuts().CutFor(cand.split.feature, cand.split.bin);
        const auto ids = tree.ApplySplit(cand.node_id, cand.split, cut);
        left = ids.first;
        right = ids.second;
      }
      partitioner_.ApplySplit(cand.node_id, left, right, matrix_,
                              cand.split.feature, cand.split.bin,
                              cand.split.default_left, nullptr);
      const uint32_t left_rows = partitioner_.NodeSize(left);
      const uint32_t right_rows = partitioner_.NodeSize(right);
      {
        std::lock_guard<SpinMutex> lock(tree_mutex);
        tree.mutable_node(left).num_rows = left_rows;
        tree.mutable_node(right).num_rows = right_rows;
      }
      ph.apply_ns += NowNs() - apply_start;

      // --- BuildHist: this worker scans both children alone (the whole
      // node is one task).
      const int64_t build_start = NowNs();
      GHPair* left_hist = hists_.Acquire(left);
      GHPair* right_hist = hists_.Acquire(right);
      BuildHistSerial(ctx, left, left_hist);
      BuildHistSerial(ctx, right, right_hist);
      ph.hist_updates += static_cast<int64_t>(left_rows + right_rows) *
                         static_cast<int64_t>(num_features);
      ph.hist_builds += 2;
      ph.build_ns += NowNs() - build_start;

      // --- FindSplit for both children.
      const int64_t find_start = NowNs();
      const GHPair left_sum = cand.split.left_sum;
      const GHPair right_sum = cand.split.right_sum;
      const uint8_t* mask =
          column_mask_ != nullptr ? column_mask_->data() : nullptr;
      const SplitInfo left_split = evaluator_.FindBestSplit(
          matrix_, left_hist, left_sum, 0, num_features, mask);
      const SplitInfo right_split = evaluator_.FindBestSplit(
          matrix_, right_hist, right_sum, 0, num_features, mask);
      ph.find_ns += NowNs() - find_start;

      hists_.Release(left);
      hists_.Release(right);

      const int child_depth = cand.depth + 1;
      if (left_split.IsValid() && child_depth < max_depth) {
        tracker.Add();
        shared.Push(Candidate{left, child_depth, left_split});
      }
      if (right_split.IsValid() && child_depth < max_depth) {
        tracker.Add();
        shared.Push(Candidate{right, child_depth, right_split});
      }
      tracker.Done();
      pool_.CountTask(thread_id);
    }
  });

  leaves = leaf_count.load(std::memory_order_relaxed);
  if (stats != nullptr) stats->nodes_split += leaves - initial_leaves;

  // Fold worker phase times (thread-time, phases overlap across workers)
  // and the spin-lock contention into the shared accounting. Starvation
  // spinning is moved from busy to wait so utilization stays honest.
  for (size_t t = 0; t < phase.size(); ++t) {
    const WorkerPhase& ph = phase[t];
    build_ns_ += ph.build_ns;
    find_ns_ += ph.find_ns;
    apply_ns_ += ph.apply_ns;
    hist_updates_ += ph.hist_updates;
    hist_builds_ += ph.hist_builds;
    pool_.ReclassifyBusyAsWait(static_cast<int>(t), ph.starve_ns);
  }
  pool_.AddSpinCounters(shared.LockCounters());
  pool_.AddSpinCounters(tree_mutex.GetCounters());
}

}  // namespace harp
