// Fused-step grow scheduler: one TopK batch = ONE persistent parallel
// region. The step's phases (apply count/scatter, histogram build, DP
// reduce, subtraction, find) are sequenced through in-region PhaseBarriers
// instead of one RunOnAllThreads launch per phase, turning the per-step
// synchronization cost from region launches (cond-var epoch handoff) into
// sense-reversing barrier rendezvous.
//
// DP and MP batches run the same barriered step and differ only in the
// build phase: HistBuilderDP::BuildInRegion (row blocks into per-thread
// replicas, then the reduce) or HistBuilderMP::BuildInRegion (cubes
// writing disjoint regions of the shared histograms). Both end in a
// barrier, after which every directly built histogram is final; then the
// subtract jobs, a barrier, the find grid and a closing barrier.
//
// Bit-identity with the region-per-phase path holds because nothing
// schedule-dependent touches the numbers: cubes write disjoint slots in
// sequential row order, the partition chunk grid is fixed, the DP reduce
// keeps ascending thread order, and find partials merge serially in fixed
// feature-block order (tests/test_fused_step.cpp sweeps the matrix).
#include "common/timer.h"
#include "core/tree_builder.h"

namespace harp {

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
        // plan the build/subtract work before peers resume.
        [this, &tree] {
          SetChildRows(tree);
          PlanBuild(tree);
          t_apply_end_ = NowNs();
        });

    if (plan_mode_ == ParallelMode::kDP) {
      dp_.BuildInRegion(ctx, build_list_, region, thread_id, &reduce_ns_);
    } else {
      mp_.BuildInRegion(ctx, build_list_, region, thread_id);
    }
    if (!subtract_list_.empty()) {
      region.ForDynamic(
          thread_id, static_cast<int64_t>(subtract_list_.size()), 1,
          [&](int64_t begin, int64_t end, int) { SubtractRange(begin, end); });
    }
    region.Barrier(thread_id, [this, &tree] {
      t_build_end_ = NowNs();
      PrepareFind(tree, children_);
    });
    region.ForDynamic(
        thread_id, static_cast<int64_t>(children_.size() * fblocks_.size()),
        1, [&](int64_t begin, int64_t end, int) {
          for (int64_t g = begin; g < end; ++g) {
            RunFindTask(static_cast<size_t>(g));
          }
        });
    region.Barrier(thread_id, [this, &tree] {
      MergeFound(tree);
      t_find_end_ = NowNs();
    });
  });

  apply_ns_ += t_apply_end_ - step_start;
  build_ns_ += t_build_end_ - t_apply_end_;
  find_ns_ += t_find_end_ - t_build_end_;
}

}  // namespace harp
