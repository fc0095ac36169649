#include "core/tree_builder.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"

namespace harp {

void ScatterLeafValues(const RegTree& tree, const RowPartitioner& partitioner,
                       ThreadPool& pool, std::vector<double>* margins) {
  std::vector<int> leaf_ids;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    if (tree.node(id).IsLeaf()) leaf_ids.push_back(id);
  }
  pool.ParallelForDynamic(
      static_cast<int64_t>(leaf_ids.size()), 1,
      [&](int64_t begin, int64_t end, int) {
        for (int64_t i = begin; i < end; ++i) {
          const int leaf = leaf_ids[static_cast<size_t>(i)];
          partitioner.AddToMargins(leaf, tree.node(leaf).leaf_value, margins);
        }
      });
}

HarpTreeBuilder::HarpTreeBuilder(const BinnedMatrix& matrix,
                                 const TrainParams& params, ThreadPool& pool,
                                 HistReducer* reducer)
    : matrix_(matrix),
      params_(params.Validate()),
      pool_(pool),
      reducer_(reducer),
      evaluator_(params),
      hists_(matrix.TotalBins()),
      partitioner_(matrix.num_rows(), params.use_membuf),
      queue_(params.grow_policy),
      use_subtraction_(params.use_hist_subtraction &&
                       params.mode != ParallelMode::kASYNC),
      use_fused_(params.use_fused_step &&
                 params.mode != ParallelMode::kASYNC && reducer == nullptr),
      simd_level_(ResolveSimdLevel(params.simd)) {
  HARP_CHECK(reducer == nullptr || params.mode != ParallelMode::kASYNC)
      << "ASYNC mode cannot train sharded: its node tasks split nodes "
         "independently, with no point at which shards agree on a "
         "histogram; use DP, MP or SYNC";
  // A shard scans, and subtracts the cells of, only the features it owns.
  const auto [f_begin, f_end] =
      reducer != nullptr ? reducer->OwnedFeatures()
                         : Range{0, matrix_.num_features()};
  HARP_CHECK_LE(f_begin, f_end);
  HARP_CHECK_LE(f_end, matrix_.num_features());
  owned_cells_ = {matrix_.BinOffset(f_begin), matrix_.BinOffset(f_end)};
  // FindSplit parallel grid: nodes x feature chunks. When feature blocks
  // are configured reuse them; otherwise chunk so every thread has work
  // even for small batches. Fixed here so fused find-task ids stay stable.
  const uint32_t num_features = f_end - f_begin;
  int fb_size = params_.feature_blk_size;
  if (fb_size <= 0) {
    fb_size = static_cast<int>(std::max<uint32_t>(
        1, num_features / static_cast<uint32_t>(
                              std::max(1, pool_.num_threads()))));
  }
  fblocks_ = MakeFeatureBlocks(num_features, fb_size);
  for (Range& fb : fblocks_) fb = {fb.first + f_begin, fb.second + f_begin};
}

size_t HarpTreeBuilder::ScratchCapacity() const {
  return split_tasks_.capacity() + batch_.capacity() + children_.capacity() +
         child_rows_.capacity() + build_list_.capacity() +
         reduce_hists_.capacity() + subtract_list_.capacity() +
         retain_.capacity() + found_.capacity() + find_partial_.capacity() +
         find_hist_.capacity() + find_sums_.capacity() +
         found_splits_.capacity();
}

ParallelMode HarpTreeBuilder::ChooseMode(size_t batch_nodes,
                                         int64_t batch_rows) const {
  switch (params_.mode) {
    case ParallelMode::kDP:
      return ParallelMode::kDP;
    case ParallelMode::kMP:
      return ParallelMode::kMP;
    case ParallelMode::kASYNC:
      // Only the ramp-up phase reaches here; the paper's ASYNC is
      // (X, node parallelism, X) with DP as the X phase.
      return ParallelMode::kDP;
    case ParallelMode::kSYNC:
      break;
  }
  // Phase mixing by a per-node cost model. DP's fixed overhead per node is
  // the replica traffic (zero + reduce): threads x total_bins histogram
  // slots. Its useful work per node is the row scan: avg_rows x M updates.
  // Early in the tree (few big nodes) the scan dominates and DP's
  // conflict-free row blocks win; late in the tree (many tiny nodes) the
  // replica traffic dominates and MP's shared-histogram blocks win. This
  // realizes Table II's mixed schedule with a machine-independent switch.
  if (batch_nodes < 2) return ParallelMode::kDP;
  const int64_t avg_rows =
      batch_rows / static_cast<int64_t>(std::max<size_t>(1, batch_nodes));
  const int64_t scan_per_node =
      avg_rows * static_cast<int64_t>(matrix_.num_features());
  const int64_t replica_per_node =
      static_cast<int64_t>(pool_.num_threads()) *
      static_cast<int64_t>(matrix_.TotalBins());
  return scan_per_node >= replica_per_node ? ParallelMode::kDP
                                           : ParallelMode::kMP;
}

void HarpTreeBuilder::StageApply(RegTree& tree) {
  children_.clear();
  for (const Candidate& cand : batch_) {
    const float cut =
        matrix_.cuts().CutFor(cand.split.feature, cand.split.bin);
    const auto [left, right] = tree.ApplySplit(cand.node_id, cand.split, cut);
    children_.push_back(left);
    children_.push_back(right);
  }
  split_tasks_.clear();
  for (size_t i = 0; i < batch_.size(); ++i) {
    const Candidate& cand = batch_[i];
    split_tasks_.push_back(SplitTask{cand.node_id, children_[2 * i],
                                     children_[2 * i + 1], cand.split.feature,
                                     cand.split.bin,
                                     cand.split.default_left});
  }
}

void HarpTreeBuilder::ApplySplitBatch(RegTree& tree) {
  StageApply(tree);
  // Row partitioning: the whole TopK batch goes through the partitioner's
  // batched count/scatter — one pair of parallel regions for all K nodes
  // instead of regions (or a region of serial partitions) per node, the
  // ApplySplit-phase analogue of the barriers ∝ 2^D/K argument.
  partitioner_.ApplySplitBatch(split_tasks_, matrix_, &pool_);
  SetChildRows(tree);
}

void HarpTreeBuilder::SetChildRows(RegTree& tree) {
  child_rows_.clear();
  for (int child : children_) {
    child_rows_.push_back(partitioner_.NodeSize(child));
  }
  if (reducer_ != nullptr) {
    reducer_->ReduceCounts(child_rows_.data(), child_rows_.size());
  }
  for (size_t i = 0; i < children_.size(); ++i) {
    tree.mutable_node(children_[i]).num_rows =
        static_cast<uint32_t>(child_rows_[i]);
  }
}

void HarpTreeBuilder::ReduceHists(std::span<const int> nodes) {
  reduce_hists_.clear();
  for (int node : nodes) reduce_hists_.push_back(hists_.Get(node));
  reducer_->ReduceHists(reduce_hists_.data(), reduce_hists_.size(),
                        matrix_.TotalBins(),
                        params_.quantize_hist ? &quant_round_.scales : nullptr);
}

void HarpTreeBuilder::PrepareFind(const RegTree& tree,
                                  std::span<const int> nodes) {
  find_nodes_ = nodes;
  const size_t grid = nodes.size() * fblocks_.size();
  if (find_partial_.size() < grid) find_partial_.resize(grid);
  if (find_hist_.size() < nodes.size()) find_hist_.resize(nodes.size());
  if (find_sums_.size() < nodes.size()) find_sums_.resize(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    find_hist_[i] = hists_.Get(nodes[i]);
    find_sums_[i] = tree.node(nodes[i]).sum;
  }
}

void HarpTreeBuilder::RunFindTask(size_t grid_index) {
  const size_t node_idx = grid_index / fblocks_.size();
  const size_t fb_idx = grid_index % fblocks_.size();
  const Range fb = fblocks_[fb_idx];
  find_partial_[grid_index] = evaluator_.FindBestSplit(
      matrix_, find_hist_[node_idx], find_sums_[node_idx], fb.first,
      fb.second, column_mask_ != nullptr ? column_mask_->data() : nullptr);
}

void HarpTreeBuilder::MergeFound(const RegTree& tree) {
  found_.clear();
  const size_t nfb = fblocks_.size();
  for (size_t i = 0; i < find_nodes_.size(); ++i) {
    SplitInfo best;
    for (size_t fb = 0; fb < nfb; ++fb) {
      const SplitInfo& s = find_partial_[i * nfb + fb];
      if (s.BetterThan(best)) best = s;
    }
    found_.push_back(
        Candidate{find_nodes_[i], tree.node(find_nodes_[i]).depth, best});
  }
}

void HarpTreeBuilder::FindSplitsBatch(const RegTree& tree,
                                      std::span<const int> nodes) {
  PrepareFind(tree, nodes);
  const size_t grid = nodes.size() * fblocks_.size();
  pool_.ParallelForDynamic(
      static_cast<int64_t>(grid), 1, [&](int64_t begin, int64_t end, int) {
        for (int64_t g = begin; g < end; ++g) {
          RunFindTask(static_cast<size_t>(g));
        }
      });
  MergeFound(tree);
  if (reducer_ != nullptr) {
    found_splits_.clear();
    for (const Candidate& cand : found_) found_splits_.push_back(cand.split);
    reducer_->ReduceSplits(found_splits_.data(), found_splits_.size());
    for (size_t i = 0; i < found_.size(); ++i) {
      found_[i].split = found_splits_[i];
    }
  }
}

void HarpTreeBuilder::PlanBuild(RegTree& tree) {
  // Decide which children get a direct build. With subtraction, only the
  // smaller sibling is scanned; the larger one takes over the parent's
  // buffer and becomes parent - sibling in place. A parent whose
  // histogram was not retained builds both children.
  build_list_.clear();
  subtract_list_.clear();
  for (size_t i = 0; i < batch_.size(); ++i) {
    const int parent = batch_[i].node_id;
    const int left = children_[2 * i];
    const int right = children_[2 * i + 1];
    if (!use_subtraction_ || !hists_.Has(parent)) {
      build_list_.push_back(left);
      build_list_.push_back(right);
      continue;
    }
    const bool left_smaller =
        tree.node(left).num_rows <= tree.node(right).num_rows;
    const int small = left_smaller ? left : right;
    const int large = left_smaller ? right : left;
    hists_.Transfer(parent, large);
    build_list_.push_back(small);
    subtract_list_.push_back(SubtractJob{large, small, nullptr, nullptr});
  }

  for (int node : build_list_) hists_.Acquire(node);
  for (SubtractJob& job : subtract_list_) {
    job.child_h = hists_.Get(job.child);
    job.sibling_h = hists_.Get(job.sibling);
  }

  build_rows_ = 0;
  for (int node : build_list_) build_rows_ += partitioner_.NodeSize(node);
  plan_mode_ = ChooseMode(build_list_.size(), build_rows_);
  hist_updates_ +=
      build_rows_ * static_cast<int64_t>(matrix_.num_features());
  hist_builds_ += static_cast<int64_t>(build_list_.size());
}

void HarpTreeBuilder::SubtractRange(int64_t begin, int64_t end) {
  for (int64_t i = begin; i < end; ++i) {
    const SubtractJob& job = subtract_list_[static_cast<size_t>(i)];
    SubtractHistogram(job.child_h + owned_cells_.first,
                      job.sibling_h + owned_cells_.first,
                      owned_cells_.second - owned_cells_.first);
  }
}

void HarpTreeBuilder::BuildAndFind(RegTree& tree) {
  const BuildContext ctx = Context();
  PlanBuild(tree);

  {
    const Stopwatch watch;
    if (plan_mode_ == ParallelMode::kDP) {
      reduce_ns_ += dp_.Build(ctx, build_list_);
    } else {
      mp_.Build(ctx, build_list_);
    }
    // Only the directly built children cross the wire; the subtracted
    // ones follow from global parent - global sibling.
    if (reducer_ != nullptr) ReduceHists(build_list_);

    if (!subtract_list_.empty()) {
      const Stopwatch subtract_watch;
      pool_.ParallelForDynamic(
          static_cast<int64_t>(subtract_list_.size()), 1,
          [&](int64_t begin, int64_t end, int) { SubtractRange(begin, end); });
      subtract_ns_ += subtract_watch.ElapsedNs();
    }
    build_ns_ += watch.ElapsedNs();
  }

  const Stopwatch find_watch;
  FindSplitsBatch(tree, children_);
  find_ns_ += find_watch.ElapsedNs();
}

void HarpTreeBuilder::SyncGrow(RegTree& tree, GrowQueue& queue,
                               int64_t& leaves, TrainStats* stats,
                               const std::function<bool()>& stop) {
  const int64_t max_leaves = params_.MaxLeaves();
  const int max_depth = params_.MaxDepth();

  while (!queue.Empty() && leaves < max_leaves && !stop()) {
    const size_t cap_before = ScratchCapacity();
    const int64_t remaining = max_leaves - leaves;
    queue.PopBatchInto(
        params_.EffectiveTopK(),
        static_cast<int>(std::min<int64_t>(remaining, 1 << 20)), &batch_);
    if (batch_.empty()) break;
    ++topk_batches_;

    if (use_fused_) {
      FusedStep(tree);
    } else {
      const Stopwatch apply_watch;
      ApplySplitBatch(tree);
      apply_ns_ += apply_watch.ElapsedNs();
      BuildAndFind(tree);
    }
    leaves += static_cast<int64_t>(batch_.size());
    if (stats != nullptr) {
      stats->nodes_split += static_cast<int64_t>(batch_.size());
    }

    for (const Candidate& cand : found_) {
      if (cand.split.IsValid() && cand.depth < max_depth) queue.Push(cand);
    }
    RetainHistograms(queue, leaves);
    if (ScratchCapacity() != cap_before) ++scratch_grows_;
  }
}

void HarpTreeBuilder::RetainHistograms(GrowQueue& queue, int64_t leaves) {
  // Only queued candidates and unpushed children own histograms here.
  // Without subtraction a histogram is only needed for FindSplit. With
  // it, the next pop takes exactly the first min(K, leaves left) queued
  // candidates in pop order, and one ranked beyond the leaves left can
  // never pop. The queue is the same on every shard, so retention is too.
  const int64_t keep =
      use_subtraction_ ? std::min<int64_t>(params_.EffectiveTopK(),
                                           params_.MaxLeaves() - leaves)
                       : 0;
  queue.TopInPopOrder(static_cast<size_t>(std::max<int64_t>(0, keep)),
                      &retain_);
  hists_.RetainOnly(retain_);
}

void HarpTreeBuilder::FinalizeLeaves(RegTree& tree) const {
  for (int id = 0; id < tree.num_nodes(); ++id) {
    TreeNode& node = tree.mutable_node(id);
    if (node.IsLeaf()) node.leaf_value = evaluator_.LeafValue(node.sum);
  }
}

RegTree HarpTreeBuilder::BuildTree(const std::vector<GradientPair>& gradients,
                                   TrainStats* stats) {
  build_ns_ = reduce_ns_ = subtract_ns_ = find_ns_ = apply_ns_ =
      quantize_ns_ = 0;
  hist_updates_ = 0;
  hist_builds_ = 1;  // the root
  topk_batches_ = 0;
  const PartitionStats apply_before = partitioner_.stats();

  const int64_t max_leaves = params_.MaxLeaves();
  const int max_nodes = static_cast<int>(2 * max_leaves);
  partitioner_.Reset(gradients, max_nodes, &pool_);
  hists_.ReleaseAll();

  if (params_.quantize_hist) {
    // Fresh scales + packed rows every round: the gradient distribution
    // shifts as boosting progresses, and a per-round power-of-two scale
    // keeps the full int16 resolution on the current range.
    const Stopwatch quant_watch;
    QuantStats quant_stats = ComputeQuantStats(gradients, &pool_);
    if (reducer_ != nullptr) reducer_->ReduceQuantStats(&quant_stats);
    quant_round_.scales = QuantScalesFromStats(quant_stats);
    QuantizeGradients(gradients, quant_round_.scales,
                      static_cast<int>(simd_level_), &pool_,
                      &quant_round_.packed);
    quantize_ns_ += quant_watch.ElapsedNs();
  }

  RegTree tree;
  tree.mutable_nodes().reserve(static_cast<size_t>(max_nodes));
  TreeNode& root = tree.mutable_node(0);
  root.sum = partitioner_.NodeSum(0, &pool_);
  int64_t root_rows = partitioner_.num_rows();
  if (reducer_ != nullptr) {
    reducer_->ReduceSums(&root.sum, 1);
    reducer_->ReduceCounts(&root_rows, 1);
  }
  root.num_rows = static_cast<uint32_t>(root_rows);

  // Root histogram + split.
  hists_.Acquire(0);
  {
    const Stopwatch watch;
    const BuildContext ctx = Context();
    const int root_nodes[] = {0};
    if (ChooseMode(1, root.num_rows) == ParallelMode::kDP) {
      reduce_ns_ += dp_.Build(ctx, root_nodes);
    } else {
      mp_.Build(ctx, root_nodes);
    }
    if (reducer_ != nullptr) ReduceHists(root_nodes);
    hist_updates_ += static_cast<int64_t>(partitioner_.num_rows()) *
                     static_cast<int64_t>(matrix_.num_features());
    build_ns_ += watch.ElapsedNs();
  }

  queue_.Clear();
  int64_t leaves = 1;
  {
    const Stopwatch find_watch;
    const int root_nodes[] = {0};
    FindSplitsBatch(tree, root_nodes);
    find_ns_ += find_watch.ElapsedNs();
    if (found_[0].split.IsValid() && max_leaves > 1 &&
        params_.MaxDepth() > 0) {
      queue_.Push(found_[0]);
    }
    RetainHistograms(queue_, leaves);
  }

  const SyncSnapshot grow_before = pool_.Snapshot();
  if (params_.mode == ParallelMode::kASYNC) {
    AsyncGrow(tree, queue_, leaves, stats);
  } else {
    SyncGrow(tree, queue_, leaves, stats, [] { return false; });
  }
  const SyncSnapshot grow_after = pool_.Snapshot();

  FinalizeLeaves(tree);

  if (stats != nullptr) {
    // Approximate GHSum write window of one histogram task (Section IV-E:
    // cell bytes x a feature block's bins x node_blk; every task covers
    // its features' full bin range).
    const size_t fblocks =
        MakeFeatureBlocks(matrix_.num_features(), params_.feature_blk_size)
            .size();
    const size_t bins_per_block = matrix_.TotalBins() / std::max<size_t>(1, fblocks);
    const size_t node_span =
        params_.mode == ParallelMode::kMP ? MpNodeBlock(params_) : 1;
    // max, not =, for consistency with hist_peak_bytes: the value is a
    // per-configuration constant, and accumulating with = silently kept
    // only the last tree's (identical) value anyway. Quantized mode
    // halves the cell the hot loop writes (8-byte int64 vs 16-byte
    // GHPair) — the Section III-B bytes-per-update lever this PR pulls.
    const size_t cell_bytes =
        params_.quantize_hist ? sizeof(int64_t) : sizeof(GHPair);
    stats->hist_cell_bytes = cell_bytes;
    stats->node_blk = std::max(
        stats->node_blk, params_.mode == ParallelMode::kMP
                             ? MpNodeBlock(params_)
                             : dp_.replica_stats().max_block_nodes);
    stats->write_region_bytes =
        std::max(stats->write_region_bytes,
                 cell_bytes * bins_per_block * node_span);
    stats->topk_batches += topk_batches_;
    stats->grow_region_launches +=
        grow_after.parallel_regions - grow_before.parallel_regions;
    stats->grow_phase_barriers +=
        grow_after.phase_barriers - grow_before.phase_barriers;
    stats->build_hist_ns += build_ns_;
    stats->reduce_ns += reduce_ns_;
    stats->subtract_ns += subtract_ns_;
    stats->find_split_ns += find_ns_;
    stats->apply_split_ns += apply_ns_;
    stats->quantize_ns += quantize_ns_;
    stats->hist_updates += hist_updates_;
    stats->hist_builds += hist_builds_;
    const PartitionStats apply_after = partitioner_.stats();
    stats->apply_splits += apply_after.splits - apply_before.splits;
    stats->apply_batches += apply_after.batches - apply_before.batches;
    stats->apply_barriers += apply_after.barriers - apply_before.barriers;
    stats->apply_bytes_moved +=
        apply_after.bytes_moved - apply_before.bytes_moved;
    stats->apply_allocs += apply_after.grow_events - apply_before.grow_events;
    stats->leaves += leaves;
    stats->max_tree_depth = std::max(stats->max_tree_depth, tree.MaxDepth());
    stats->hist_peak_bytes = std::max(stats->hist_peak_bytes,
                                      hists_.PeakBytes());
  }
  return tree;
}

}  // namespace harp
