// Tree construction: Algorithm 1 with TopK growth (Section IV-B) and the
// four parallelism modes of Table II.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/grow_policy.h"
#include "core/hist_builder.h"
#include "core/hist_reducer.h"
#include "core/histogram.h"
#include "core/params.h"
#include "core/row_partitioner.h"
#include "core/split_evaluator.h"
#include "core/train_stats.h"
#include "core/tree.h"
#include "data/binned_matrix.h"
#include "parallel/thread_pool.h"

namespace harp {

// Interface shared by HarpGBDT and the reimplemented baselines so one
// boosting driver (RunBoosting in gbdt.h) trains with any of them.
class TreeBuilderBase {
 public:
  virtual ~TreeBuilderBase() = default;

  // Builds one tree for the given per-row gradients. Leaf values in the
  // returned tree are already scaled by the learning rate.
  virtual RegTree BuildTree(const std::vector<GradientPair>& gradients,
                            TrainStats* stats) = 0;

  // Adds the freshly built tree's leaf values to the training margins,
  // using whatever row-membership state the builder kept from BuildTree.
  virtual void UpdateMargins(const RegTree& tree,
                             std::vector<double>* margins) = 0;

  // Restricts split search to features with a non-zero mask byte for
  // subsequent BuildTree calls (per-tree column sampling); nullptr clears
  // the restriction. Builders without sampling support may ignore it.
  virtual void SetColumnMask(const std::vector<uint8_t>* mask) {
    (void)mask;
  }
};

// Margin update for builders that keep a RowPartitioner: scatters each
// leaf's value to its rows (leaves own disjoint rows, so they run
// concurrently).
void ScatterLeafValues(const RegTree& tree, const RowPartitioner& partitioner,
                       ThreadPool& pool, std::vector<double>* margins);

// HarpGBDT's builder: block-wise DP/MP, SYNC phase mixing, ASYNC node
// parallelism, MemBuf, in-place histogram subtraction.
class HarpTreeBuilder final : public TreeBuilderBase {
 public:
  // `reducer` non-null makes this builder one shard of a sharded run (see
  // core/hist_reducer.h): it must outlive the builder, every shard must
  // use the same params, and ASYNC is rejected. Such a builder subtracts
  // and scans only the reducer's owned features, and takes the
  // region-per-phase step: the fused step has no reduce phase yet, so the
  // global histograms it needs before subtract and find cannot form inside
  // its region.
  HarpTreeBuilder(const BinnedMatrix& matrix, const TrainParams& params,
                  ThreadPool& pool, HistReducer* reducer = nullptr);

  RegTree BuildTree(const std::vector<GradientPair>& gradients,
                    TrainStats* stats) override;

  void UpdateMargins(const RegTree& tree,
                     std::vector<double>* margins) override {
    ScatterLeafValues(tree, partitioner_, pool_, margins);
  }

  void SetColumnMask(const std::vector<uint8_t>* mask) override {
    column_mask_ = mask;
  }

  // Row membership of the most recently built tree (tests, diagnostics).
  const RowPartitioner& partitioner() const { return partitioner_; }

  // Number of grow steps whose member scratch (batch / children / build
  // plan / find grid vectors) changed capacity — 0 across steady-state
  // trees once the working set has been reached (zero-alloc tests).
  int64_t scratch_grow_events() const { return scratch_grows_; }

 private:
  BuildContext Context() {
    return BuildContext{matrix_,
                        params_,
                        pool_,
                        partitioner_,
                        hists_,
                        params_.quantize_hist ? &quant_round_ : nullptr,
                        simd_level_};
  }

  // Picks DP or MP for one batch. For SYNC this implements the (DP, MP,
  // DP) phase schedule of Table II: DP while there are fewer candidates
  // than threads (beginning), DP again when nodes have shrunk below a
  // task-granularity threshold (end), MP in between.
  ParallelMode ChooseMode(size_t batch_nodes, int64_t batch_rows) const;

  // Batch-synchronous growth loop; stops early when `stop` returns true
  // (used by ASYNC's DP ramp-up phase). Returns via out-params so the
  // async phase can continue from the same state.
  void SyncGrow(RegTree& tree, GrowQueue& queue, int64_t& leaves,
                TrainStats* stats, const std::function<bool()>& stop);

  // Node-parallel growth (Section IV-D); defined in async_builder.cpp.
  void AsyncGrow(RegTree& tree, GrowQueue& queue, int64_t& leaves,
                 TrainStats* stats);

  // --- one grow step, region-per-phase path (the bit-identity oracle) ---

  // Applies batch_'s splits to the tree and stages the partitioner tasks
  // (serial; shared with the fused path).
  void StageApply(RegTree& tree);
  // StageApply + batched row partition + child num_rows (fills children_).
  void ApplySplitBatch(RegTree& tree);
  // Sets each child's num_rows from the partition (global counts with a
  // reducer; shared with the fused path).
  void SetChildRows(RegTree& tree);
  // Global sum of the live histograms of `nodes` (reducer only).
  void ReduceHists(std::span<const int> nodes);
  // Decides which children get a direct build vs. parent - sibling
  // subtraction (a parent whose histogram was released builds both),
  // hands each subtracting parent's buffer to its larger child, acquires
  // the directly built ones, picks the batch's DP/MP mode (fills
  // build_list_ / subtract_list_ / plan_mode_; shared).
  void PlanBuild(RegTree& tree);
  // Runs subtract_list_[begin, end): each large child's buffer, which
  // holds the parent's histogram, becomes parent - sibling in place.
  void SubtractRange(int64_t begin, int64_t end);
  // PlanBuild + histogram build + subtraction + FindSplitsBatch over the
  // children (fills found_, one Candidate per child, possibly invalid).
  void BuildAndFind(RegTree& tree);
  // FindSplit for nodes whose histograms are live (fills found_); with a
  // reducer, over the owned features, then merged over the shards.
  void FindSplitsBatch(const RegTree& tree, std::span<const int> nodes);
  // After a step's pushes, releases every histogram except, with
  // subtraction, those of the first min(K, leaves left) queued candidates
  // in pop order: the only ones the next pop can take.
  void RetainHistograms(GrowQueue& queue, int64_t leaves);

  // Shared find pieces: stage the nodes x feature-block grid, run one
  // grid cell, serially merge the partials into found_ (fixed fb order,
  // so the merge is schedule-independent).
  void PrepareFind(const RegTree& tree, std::span<const int> nodes);
  void RunFindTask(size_t grid_index);
  void MergeFound(const RegTree& tree);

  // --- one grow step, fused path (tree_builder_fused.cpp) ---

  // Runs apply / build / subtract / find as phases of ONE FusedRegion:
  // exactly one region launch per TopK batch. Bit-identical outputs to
  // ApplySplitBatch + BuildAndFind.
  void FusedStep(RegTree& tree);

  // Sets leaf_value on every leaf from its gradient sum.
  void FinalizeLeaves(RegTree& tree) const;

  // Capacity fingerprint of the per-step member scratch (zero-alloc
  // accounting; see scratch_grow_events()).
  size_t ScratchCapacity() const;

  const BinnedMatrix& matrix_;
  const TrainParams& params_;
  ThreadPool& pool_;
  HistReducer* const reducer_;
  SplitEvaluator evaluator_;
  HistogramPool hists_;
  RowPartitioner partitioner_;
  HistBuilderDP dp_;
  HistBuilderMP mp_;
  GrowQueue queue_;
  bool use_subtraction_;  // forced off for ASYNC (see .cpp)
  bool use_fused_;        // forced off for ASYNC and with a reducer
  SimdLevel simd_level_;  // resolved once from params.simd
  // Per-tree quantization state (scales + packed rows); valid only with
  // quantize_hist and refreshed at the top of every BuildTree.
  QuantRound quant_round_;
  const std::vector<uint8_t>* column_mask_ = nullptr;

  // Per-step member scratch (grow-only; steady-state growth reuses it
  // without allocating).
  std::vector<SplitTask> split_tasks_;
  std::vector<Candidate> batch_;
  std::vector<int> children_;
  std::vector<int64_t> child_rows_;
  std::vector<int> build_list_;
  std::vector<GHPair*> reduce_hists_;
  struct SubtractJob {
    int child;        // large child: holds the parent's buffer
    int sibling;      // small child (directly built)
    GHPair* child_h;  // resolved in PlanBuild, after Acquire
    GHPair* sibling_h;
  };
  std::vector<SubtractJob> subtract_list_;
  std::vector<int> retain_;  // RetainHistograms scratch
  std::vector<Candidate> found_;
  int64_t build_rows_ = 0;
  ParallelMode plan_mode_ = ParallelMode::kDP;

  // Find grid scratch. fblocks_ (which covers the owned features) is
  // fixed at construction (params and thread count never change), which
  // keeps find task ids stable.
  std::vector<Range> fblocks_;
  // Histogram cells of the owned features: every cell without a reducer.
  Range owned_cells_;
  std::vector<SplitInfo> found_splits_;  // ReduceSplits scratch
  std::span<const int> find_nodes_;
  std::vector<SplitInfo> find_partial_;
  std::vector<const GHPair*> find_hist_;
  std::vector<GHPair> find_sums_;

  // Phase accumulators for the current BuildTree call.
  int64_t build_ns_ = 0;
  int64_t reduce_ns_ = 0;
  int64_t subtract_ns_ = 0;
  int64_t find_ns_ = 0;
  int64_t apply_ns_ = 0;
  int64_t quantize_ns_ = 0;
  int64_t hist_updates_ = 0;
  int64_t hist_builds_ = 0;
  // Fused-step phase boundary timestamps (written in barrier epilogues).
  int64_t t_apply_end_ = 0;
  int64_t t_build_end_ = 0;
  int64_t t_find_end_ = 0;
  int64_t topk_batches_ = 0;
  int64_t scratch_grows_ = 0;
};

}  // namespace harp
