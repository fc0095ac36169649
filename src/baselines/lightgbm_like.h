// Reimplementation of LightGBM's parallelization strategy (the paper's
// "LightGBM" comparator).
//
// Characteristics reproduced from Sections II-B, III and IV-A:
//   - leafwise growth, strictly one leaf at a time (top-1 of the priority
//     queue), so thread synchronization is per-leaf;
//   - feature-wise model parallelism (<0, 1, 0, 1> in block terms): each
//     thread owns whole feature columns of the current node and writes its
//     own histogram region — no replicas, no reduction;
//   - column-major binned storage, scanned one feature at a time, which
//     re-reads the node's row-id list and gathers the same Gradient rows
//     once PER FEATURE (the redundant-read behaviour Section IV-E's MemBuf
//     addresses).
#pragma once

#include <span>

#include "core/gbdt.h"
#include "core/tree_builder.h"

namespace harp::baselines {

// Feature-parallel histogram of the rows `row_ids` from the column-major
// view (one dynamic parallel-for over features = one barrier). Each task
// owns one feature's region [BinOffset(f), BinOffset(f+1)) of `hist` and
// writes all of it, so `hist` may come from the pool uncleared.
void BuildColumnHist(const BinnedMatrix& matrix,
                     std::span<const uint32_t> row_ids,
                     const GradientPair* grads, ThreadPool& pool,
                     GHPair* hist);

class LightGbmBuilder final : public TreeBuilderBase {
 public:
  // The matrix must have its column-major view materialized
  // (EnsureColumnMajor) before training.
  LightGbmBuilder(const BinnedMatrix& matrix, const TrainParams& params,
                  ThreadPool& pool);

  RegTree BuildTree(const std::vector<GradientPair>& gradients,
                    TrainStats* stats) override;

  void UpdateMargins(const RegTree& tree,
                     std::vector<double>* margins) override {
    ScatterLeafValues(tree, partitioner_, pool_, margins);
  }

 private:
  // BuildColumnHist over the node's rows, counting its updates.
  void BuildNodeHist(int node_id, const std::vector<GradientPair>& gradients,
                     GHPair* hist);

  SplitInfo FindNodeSplit(const RegTree& tree, int node_id,
                          const GHPair* hist);

  const BinnedMatrix& matrix_;
  const TrainParams& params_;
  ThreadPool& pool_;
  SplitEvaluator evaluator_;
  HistogramPool hists_;
  RowPartitioner partitioner_;

  int64_t build_ns_ = 0;
  int64_t find_ns_ = 0;
  int64_t apply_ns_ = 0;
  int64_t hist_updates_ = 0;
};

class LightGbmTrainer {
 public:
  explicit LightGbmTrainer(TrainParams params);

  // Materializes the column-major view on first use (counted as one-time
  // initialization, excluded from training time as in Section V-A4).
  GbdtModel TrainBinned(BinnedMatrix& matrix,
                        const std::vector<float>& labels,
                        TrainStats* stats = nullptr,
                        const IterCallback& callback = {});

  const TrainParams& params() const { return params_; }

 private:
  TrainParams params_;
};

}  // namespace harp::baselines
