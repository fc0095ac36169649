#include "baselines/lightgbm_like.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"
#include "core/grow_policy.h"

namespace harp::baselines {

LightGbmBuilder::LightGbmBuilder(const BinnedMatrix& matrix,
                                 const TrainParams& params, ThreadPool& pool)
    : matrix_(matrix),
      params_(params.Validate()),
      pool_(pool),
      evaluator_(params),
      hists_(matrix.TotalBins()),
      partitioner_(matrix.num_rows(), /*use_membuf=*/false) {
  HARP_CHECK(matrix.HasColumnMajor())
      << "LightGbmBuilder needs the column-major view; call "
         "EnsureColumnMajor() first";
}

void BuildColumnHist(const BinnedMatrix& matrix,
                     std::span<const uint32_t> row_ids,
                     const GradientPair* grads, ThreadPool& pool,
                     GHPair* hist) {
  // One feature column per task: thread-exclusive write region
  // [BinOffset(f), BinOffset(f+1)), which the task clears first (the pool
  // recycles buffers uncleared), shared read of the node's row ids and a
  // gather from the global gradient array for every feature.
  pool.ParallelForDynamic(
      matrix.num_features(), 1, [&](int64_t begin, int64_t end, int) {
        for (int64_t f = begin; f < end; ++f) {
          const uint32_t feature = static_cast<uint32_t>(f);
          const uint8_t* col = matrix.ColBins(feature);
          GHPair* feature_hist = hist + matrix.BinOffset(feature);
          ClearHistogram(feature_hist, matrix.BinOffset(feature + 1) -
                                           matrix.BinOffset(feature));
          for (const uint32_t rid : row_ids) {
            feature_hist[col[rid]].Add(grads[rid].g, grads[rid].h);
          }
        }
      });
}

void LightGbmBuilder::BuildNodeHist(
    int node_id, const std::vector<GradientPair>& gradients, GHPair* hist) {
  const auto row_ids = partitioner_.NodeRowIds(node_id);
  BuildColumnHist(matrix_, row_ids, gradients.data(), pool_, hist);
  hist_updates_ +=
      static_cast<int64_t>(row_ids.size()) * matrix_.num_features();
}

SplitInfo LightGbmBuilder::FindNodeSplit(const RegTree& tree, int node_id,
                                         const GHPair* hist) {
  const uint32_t num_features = matrix_.num_features();
  const GHPair node_sum = tree.node(node_id).sum;
  const int lanes = std::max(1, pool_.num_threads());
  std::vector<SplitInfo> partial(static_cast<size_t>(lanes));
  pool_.ParallelForDynamic(
      num_features, std::max<int64_t>(1, num_features / (4 * lanes)),
      [&](int64_t begin, int64_t end, int thread_id) {
        const SplitInfo found = evaluator_.FindBestSplit(
            matrix_, hist, node_sum, static_cast<uint32_t>(begin),
            static_cast<uint32_t>(end));
        auto& best = partial[static_cast<size_t>(thread_id)];
        if (found.BetterThan(best)) best = found;
      });
  SplitInfo best;
  for (const SplitInfo& s : partial) {
    if (s.BetterThan(best)) best = s;
  }
  return best;
}

RegTree LightGbmBuilder::BuildTree(const std::vector<GradientPair>& gradients,
                                   TrainStats* stats) {
  build_ns_ = find_ns_ = apply_ns_ = 0;
  hist_updates_ = 0;
  const PartitionStats apply_before = partitioner_.stats();

  const int64_t max_leaves = params_.MaxLeaves();
  const int max_nodes = static_cast<int>(2 * max_leaves);
  partitioner_.Reset(gradients, max_nodes, &pool_);
  hists_.ReleaseAll();

  RegTree tree;
  tree.mutable_nodes().reserve(static_cast<size_t>(max_nodes));
  tree.mutable_node(0).sum = partitioner_.NodeSum(0, &pool_);
  tree.mutable_node(0).num_rows = partitioner_.num_rows();

  auto process_node = [&](int node_id) -> Candidate {
    GHPair* hist = hists_.Acquire(node_id);
    {
      const Stopwatch watch;
      BuildNodeHist(node_id, gradients, hist);
      build_ns_ += watch.ElapsedNs();
    }
    const Stopwatch watch;
    const SplitInfo split = FindNodeSplit(tree, node_id, hist);
    find_ns_ += watch.ElapsedNs();
    hists_.Release(node_id);
    return Candidate{node_id, tree.node(node_id).depth, split};
  };

  GrowQueue queue(GrowPolicy::kLeafwise);
  {
    const Candidate root = process_node(0);
    if (root.split.IsValid() && max_leaves > 1) queue.Push(root);
  }

  int64_t leaves = 1;
  while (!queue.Empty() && leaves < max_leaves) {
    const std::vector<Candidate> batch = queue.PopBatch(1, 1);  // top-1
    if (batch.empty()) break;
    const Candidate& cand = batch[0];

    const Stopwatch watch;
    const float cut =
        matrix_.cuts().CutFor(cand.split.feature, cand.split.bin);
    const auto [left, right] = tree.ApplySplit(cand.node_id, cand.split, cut);
    partitioner_.ApplySplit(cand.node_id, left, right, matrix_,
                            cand.split.feature, cand.split.bin,
                            cand.split.default_left, &pool_);
    tree.mutable_node(left).num_rows = partitioner_.NodeSize(left);
    tree.mutable_node(right).num_rows = partitioner_.NodeSize(right);
    apply_ns_ += watch.ElapsedNs();
    ++leaves;
    if (stats != nullptr) ++stats->nodes_split;

    for (const int child : {left, right}) {
      const Candidate c = process_node(child);
      if (c.split.IsValid()) queue.Push(c);
    }
  }

  for (int id = 0; id < tree.num_nodes(); ++id) {
    TreeNode& node = tree.mutable_node(id);
    if (node.IsLeaf()) node.leaf_value = evaluator_.LeafValue(node.sum);
  }

  if (stats != nullptr) {
    stats->build_hist_ns += build_ns_;
    stats->find_split_ns += find_ns_;
    stats->apply_split_ns += apply_ns_;
    stats->hist_updates += hist_updates_;
    const PartitionStats apply_after = partitioner_.stats();
    stats->apply_splits += apply_after.splits - apply_before.splits;
    stats->apply_batches += apply_after.batches - apply_before.batches;
    stats->apply_barriers += apply_after.barriers - apply_before.barriers;
    stats->apply_bytes_moved +=
        apply_after.bytes_moved - apply_before.bytes_moved;
    stats->apply_allocs += apply_after.grow_events - apply_before.grow_events;
    stats->leaves += leaves;
    stats->max_tree_depth = std::max(stats->max_tree_depth, tree.MaxDepth());
    stats->hist_peak_bytes =
        std::max(stats->hist_peak_bytes, hists_.PeakBytes());
  }
  return tree;
}

LightGbmTrainer::LightGbmTrainer(TrainParams params)
    : params_(std::move(params)) {
  params_.Validate();
}

GbdtModel LightGbmTrainer::TrainBinned(BinnedMatrix& matrix,
                                       const std::vector<float>& labels,
                                       TrainStats* stats,
                                       const IterCallback& callback) {
  const int threads = params_.num_threads > 0 ? params_.num_threads
                                              : ThreadPool::DefaultThreads();
  ThreadPool pool(threads);
  matrix.EnsureColumnMajor(&pool);
  LightGbmBuilder builder(matrix, params_, pool);
  return RunBoosting(matrix, labels, params_, pool, builder, stats, callback);
}

}  // namespace harp::baselines
