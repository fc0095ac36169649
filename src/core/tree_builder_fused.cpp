// Fused-step grow scheduler: one TopK batch = ONE persistent parallel
// region. The step's phases (apply count/scatter, histogram build, DP
// reduce, subtraction, find) are sequenced through in-region PhaseBarriers
// instead of one RunOnAllThreads launch per phase, turning the per-step
// synchronization cost from region launches (cond-var epoch handoff) into
// sense-reversing barrier rendezvous.
//
// Two build schedules run inside the region:
//
//   DP: barriered phases, mirroring the region-per-phase path one barrier
//   per former region (HistBuilderDP::BuildInRegion), then subtract, then
//   the find grid. Replica reduction makes cross-phase overlap pointless
//   here: no child histogram is final before the reduce barrier anyway.
//
//   MP: an overlap work-graph. Cube tasks write disjoint regions of the
//   shared child histograms, so a node's histogram is final the moment the
//   last cube of its node block drains — long before other nodes finish.
//   A per-block drain counter detects that moment and pushes the node's
//   subtract job (if it is the built sibling) and find-grid cells into a
//   single-pass slot ring that every thread pops; subtract completion
//   pushes the large child's find cells. A node's subtract + find overlap
//   other nodes' builds, with no barrier between the phases at all.
//
// Bit-identity with the region-per-phase path holds because nothing
// schedule-dependent touches the numbers: cubes write disjoint slots in
// sequential row order, the partition chunk grid is fixed, the DP reduce
// keeps ascending thread order, and find partials merge serially in fixed
// feature-block order (tests/test_fused_step.cpp sweeps the matrix).
#include <algorithm>
#include <thread>

#include "common/logging.h"
#include "common/timer.h"
#include "core/tree_builder.h"

namespace harp {

void HarpTreeBuilder::PlanAfterPartition(RegTree& tree) {
  SetChildRows(tree);
  PlanBuild(tree);
  if (plan_mode_ == ParallelMode::kMP) StageOverlap(tree);
}

void HarpTreeBuilder::StageOverlap(const RegTree& tree) {
  const BuildContext ctx = Context();
  const size_t num_builds = mp_.StageTasks(ctx, build_list_);
  const size_t num_subs = subtract_list_.size();
  const size_t num_finds = children_.size() * fblocks_.size();
  HARP_CHECK(num_builds > 0);
  PrepareFind(tree, children_);

  // node id -> build_list_ index, for drain-counter lookups from cubes.
  size_t max_node = 0;
  for (int node : build_list_) {
    max_node = std::max(max_node, static_cast<size_t>(node));
  }
  if (build_pos_.size() <= max_node) build_pos_.resize(max_node + 1);
  for (size_t j = 0; j < build_list_.size(); ++j) {
    build_pos_[static_cast<size_t>(build_list_[j])] =
        static_cast<int32_t>(j);
  }

  // Drain counters: node j is complete when every cube of its node block
  // has run; each cube decrements every node of its block once.
  if (node_remaining_cap_ < build_list_.size()) {
    node_remaining_ = std::make_unique<std::atomic<int32_t>[]>(
        build_list_.size());
    node_remaining_cap_ = build_list_.size();
  }
  for (size_t j = 0; j < build_list_.size(); ++j) {
    node_remaining_[j].store(0, std::memory_order_relaxed);
  }
  for (size_t t = 0; t < num_builds; ++t) {
    for (int node : mp_.TaskNodes(t)) {
      node_remaining_[static_cast<size_t>(
                          build_pos_[static_cast<size_t>(node)])]
          .fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Slot ring seeded with the build tasks; subtract/find slots start
  // empty and are published by the event that makes them runnable.
  const size_t total = num_builds + num_subs + num_finds;
  if (slots_cap_ < total) {
    slots_ = std::make_unique<std::atomic<int32_t>[]>(total);
    slots_cap_ = total;
  }
  for (size_t s = 0; s < total; ++s) {
    slots_[s].store(s < num_builds ? static_cast<int32_t>(s) : -1,
                    std::memory_order_relaxed);
  }
  qtail_.store(static_cast<int64_t>(num_builds), std::memory_order_relaxed);
  qhead_.store(0, std::memory_order_relaxed);
  builds_left_.store(static_cast<int32_t>(build_list_.size()),
                     std::memory_order_relaxed);
  t_build_done_.store(0, std::memory_order_relaxed);
  overlap_total_ = static_cast<int64_t>(total);
  overlap_builds_ = static_cast<int32_t>(num_builds);
  overlap_subs_ = static_cast<int32_t>(num_subs);
  // No release fences needed: this runs in a barrier epilogue, and the
  // barrier's generation publish orders it before every peer's next read.
}

void HarpTreeBuilder::PushTask(int32_t id) {
  const int64_t s = qtail_.fetch_add(1, std::memory_order_relaxed);
  slots_[static_cast<size_t>(s)].store(id, std::memory_order_release);
}

void HarpTreeBuilder::PushFinds(uint32_t child_pos) {
  const int32_t base = overlap_builds_ + overlap_subs_;
  const int32_t nfb = static_cast<int32_t>(fblocks_.size());
  for (int32_t k = 0; k < nfb; ++k) {
    PushTask(base + static_cast<int32_t>(child_pos) * nfb + k);
  }
}

void HarpTreeBuilder::RunOverlapTask(const BuildContext& ctx, int32_t id) {
  const int32_t num_builds = overlap_builds_;
  const int32_t num_subs = overlap_subs_;
  if (id < num_builds) {
    mp_.RunTask(ctx, static_cast<size_t>(id));
    for (int node : mp_.TaskNodes(static_cast<size_t>(id))) {
      const size_t j = static_cast<size_t>(
          build_pos_[static_cast<size_t>(node)]);
      // acq_rel so the LAST decrementer synchronizes with every earlier
      // cube's histogram writes (release sequence on the counter): the
      // finds/subtract it publishes observe the node's complete histogram.
      if (node_remaining_[j].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Quantized mode: the drained accumulator becomes the node's f64
        // histogram HERE, before the subtract/find tasks that read it are
        // published (their slot-ring release stores order the conversion
        // before any consumer's acquire load).
        mp_.DequantizeNode(node);
        PushFinds(build_child_pos_[j]);
        if (sub_of_build_[j] >= 0) {
          PushTask(num_builds + sub_of_build_[j]);
        }
        if (builds_left_.fetch_sub(1, std::memory_order_relaxed) == 1) {
          t_build_done_.store(NowNs(), std::memory_order_relaxed);
        }
      }
    }
  } else if (id < num_builds + num_subs) {
    const SubtractJob& job =
        subtract_list_[static_cast<size_t>(id - num_builds)];
    SubtractHistogram(job.child_h, job.sibling_h, matrix_.TotalBins());
    PushFinds(job.child_pos);
  } else {
    RunFindTask(static_cast<size_t>(id - num_builds - num_subs));
  }
}

void HarpTreeBuilder::OverlapRun(ThreadPool::FusedRegion& region,
                                 int thread_id) {
  const BuildContext ctx = Context();
  for (;;) {
    const int64_t s = qhead_.fetch_add(1, std::memory_order_relaxed);
    if (s >= overlap_total_) break;
    // Every slot below overlap_total_ is eventually published (each task
    // id is pushed exactly once, and pushes precede the pops that need
    // them — see the drain-counter invariant above), so spinning here
    // cannot deadlock; it is waiting for upstream work, accounted as wait.
    int32_t id = slots_[static_cast<size_t>(s)].load(
        std::memory_order_acquire);
    if (id < 0) {
      const int64_t spin_start = NowNs();
      int spins = 0;
      while ((id = slots_[static_cast<size_t>(s)].load(
                  std::memory_order_acquire)) < 0) {
        region.ThrowIfFailed();
        if ((++spins & 4095) == 0) std::this_thread::yield();
      }
      pool_.ReclassifyBusyAsWait(thread_id, NowNs() - spin_start);
    }
    RunOverlapTask(ctx, id);
    pool_.CountTask(thread_id);
  }
}

void HarpTreeBuilder::FinishStep(RegTree& tree) {
  MergeFound(tree);
  t_find_end_ = NowNs();
}

void HarpTreeBuilder::FusedStep(RegTree& tree) {
  const int64_t step_start = NowNs();
  StageApply(tree);
  partitioner_.PrepareSplitBatch(split_tasks_);

  ThreadPool::FusedRegion region(pool_);
  const BuildContext ctx = Context();
  region.Run([&](int thread_id) {
    partitioner_.ApplySplitBatchInRegion(
        split_tasks_, matrix_, region, thread_id,
        // Epilogue of the partition's last barrier: rows are final, so
        // plan the build/subtract/find work before peers resume.
        [this, &tree] {
          PlanAfterPartition(tree);
          t_apply_end_ = NowNs();
        });

    if (plan_mode_ == ParallelMode::kDP) {
      dp_.BuildInRegion(ctx, build_list_, region, thread_id, &reduce_ns_);
      if (!subtract_list_.empty()) {
        region.ForDynamic(
            thread_id, static_cast<int64_t>(subtract_list_.size()), 1,
            [&](int64_t begin, int64_t end, int) {
              for (int64_t i = begin; i < end; ++i) {
                const SubtractJob& job =
                    subtract_list_[static_cast<size_t>(i)];
                SubtractHistogram(job.child_h, job.sibling_h,
                                  matrix_.TotalBins());
              }
            });
      }
      region.Barrier(thread_id, [this, &tree] {
        t_build_end_ = NowNs();
        PrepareFind(tree, children_);
      });
      region.ForDynamic(
          thread_id,
          static_cast<int64_t>(children_.size() * fblocks_.size()), 1,
          [&](int64_t begin, int64_t end, int) {
            for (int64_t g = begin; g < end; ++g) {
              RunFindTask(static_cast<size_t>(g));
            }
          });
      region.Barrier(thread_id, [this, &tree] { FinishStep(tree); });
    } else {
      OverlapRun(region, thread_id);
      region.Barrier(thread_id, [this, &tree] {
        t_build_end_ = t_build_done_.load(std::memory_order_relaxed);
        FinishStep(tree);
      });
    }
  });

  apply_ns_ += t_apply_end_ - step_start;
  build_ns_ += t_build_end_ - t_apply_end_;
  find_ns_ += t_find_end_ - t_build_end_;
}

}  // namespace harp
