#include "predict/predictor.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "data/binned_matrix.h"
#include "data/dataset.h"
#include "parallel/thread_pool.h"
#include "predict/flat_forest.h"

namespace harp {
namespace {

// Largest sparse-row scratch (bytes) a thread materializes at once; the
// per-block row count shrinks when num_features is large.
constexpr size_t kMaxScratchBytes = size_t{4} << 20;

}  // namespace

Predictor::Predictor(const FlatForest& forest)
    : forest_(&forest), full_groups_(TreeGroups(0, forest.num_trees())) {}

size_t Predictor::ClampTreeCount(size_t num_trees) const {
  return num_trees == 0 ? forest_->num_trees()
                        : std::min(num_trees, forest_->num_trees());
}

const std::vector<size_t>& Predictor::Groups(
    size_t tree_begin, size_t tree_end, std::vector<size_t>* local) const {
  if (tree_begin == 0 && tree_end == forest_->num_trees()) return full_groups_;
  *local = TreeGroups(tree_begin, tree_end);
  return *local;
}

std::vector<size_t> Predictor::TreeGroups(size_t tree_begin,
                                          size_t tree_end) const {
  std::vector<size_t> bounds;
  bounds.push_back(tree_begin);
  int32_t nodes_in_group = 0;
  for (size_t t = tree_begin; t < tree_end; ++t) {
    const int32_t nodes = forest_->NodesInTree(t);
    if (nodes_in_group > 0 && nodes_in_group + nodes > kGroupNodeBudget) {
      bounds.push_back(t);
      nodes_in_group = 0;
    }
    nodes_in_group += nodes;
  }
  bounds.push_back(tree_end);
  return bounds;
}

void Predictor::AccumulateBlockBinned(const BinnedMatrix& matrix, uint32_t r0,
                                      uint32_t r1, size_t t0, size_t t1,
                                      double* margins) const {
  const uint32_t* feat = forest_->split_feature();
  const uint8_t* sbin = forest_->split_bin();
  const uint8_t* dleft = forest_->default_left();
  const int32_t* left = forest_->left_child();
  const double* leaf = forest_->leaf_value();

  for (size_t t = t0; t < t1; ++t) {
    const int32_t root = forest_->tree_offset(t);
    const int32_t steps = forest_->tree_depth(t);
    for (uint32_t r = r0; r < r1; r += kInterleave) {
      const int lanes = static_cast<int>(
          std::min<uint32_t>(kInterleave, r1 - r));
      const uint8_t* rb[kInterleave];
      int32_t idx[kInterleave];
      for (int j = 0; j < lanes; ++j) {
        rb[j] = matrix.RowBins(r + static_cast<uint32_t>(j));
        idx[j] = root;
      }
      // kInterleave independent walks per step: the loads of step s + 1
      // depend only on the same lane's idx from step s, so the lanes keep
      // the load pipeline full while each walk waits on its node fetch.
      // Leaves self-loop (see FlatForest), so all lanes take exactly
      // `steps` iterations with no leaf branch.
      for (int32_t s = 0; s < steps; ++s) {
        for (int j = 0; j < lanes; ++j) {
          const int32_t i = idx[j];
          const uint8_t bin = rb[j][feat[i]];
          const bool go_left =
              (bin == 0) ? (dleft[i] != 0) : (bin <= sbin[i]);
          idx[j] = left[i] + static_cast<int32_t>(!go_left);
        }
      }
      for (int j = 0; j < lanes; ++j) {
        margins[r + static_cast<uint32_t>(j)] += leaf[idx[j]];
      }
    }
  }
}

void Predictor::TraverseDense(const float* base, size_t stride, uint32_t rows,
                              size_t t0, size_t t1, double* margins) const {
  const uint32_t* feat = forest_->split_feature();
  const float* sval = forest_->split_value();
  const uint8_t* dleft = forest_->default_left();
  const int32_t* left = forest_->left_child();
  const double* leaf = forest_->leaf_value();

  for (size_t t = t0; t < t1; ++t) {
    const int32_t root = forest_->tree_offset(t);
    const int32_t steps = forest_->tree_depth(t);
    for (uint32_t r = 0; r < rows; r += kInterleave) {
      const int lanes =
          static_cast<int>(std::min<uint32_t>(kInterleave, rows - r));
      const float* rv[kInterleave];
      int32_t idx[kInterleave];
      for (int j = 0; j < lanes; ++j) {
        rv[j] = base + static_cast<size_t>(r + j) * stride;
        idx[j] = root;
      }
      for (int32_t s = 0; s < steps; ++s) {
        for (int j = 0; j < lanes; ++j) {
          const int32_t i = idx[j];
          const float value = rv[j][feat[i]];
          // Leaf slots carry split_value = +inf, so any present value
          // "goes left" back into the leaf; NaN routes to the default
          // side, which leaves also point at themselves.
          const bool go_left =
              IsMissing(value) ? (dleft[i] != 0) : (value <= sval[i]);
          idx[j] = left[i] + static_cast<int32_t>(!go_left);
        }
      }
      for (int j = 0; j < lanes; ++j) {
        margins[r + static_cast<uint32_t>(j)] += leaf[idx[j]];
      }
    }
  }
}

void Predictor::AccumulateBlockRaw(const Dataset& dataset, uint32_t r0,
                                   uint32_t r1, size_t t0, size_t t1,
                                   double* margins) const {
  const uint32_t num_features = dataset.num_features();
  if (dataset.layout() == Dataset::Layout::kDense) {
    TraverseDense(dataset.dense_data() + static_cast<size_t>(r0) * num_features,
                  num_features, r1 - r0, t0, t1, margins + r0);
    return;
  }

  // Sparse rows are expanded chunk by chunk into a NaN-initialized dense
  // scratch — O(M + nnz) per row, repaid over every tree of the group,
  // versus a binary search per traversal step through Dataset::At.
  const size_t row_bytes = size_t{num_features} * sizeof(float);
  const uint32_t chunk_rows = static_cast<uint32_t>(std::clamp<size_t>(
      kMaxScratchBytes / std::max<size_t>(row_bytes, 1), 1, r1 - r0));
  std::vector<float> scratch(static_cast<size_t>(chunk_rows) * num_features);
  for (uint32_t c0 = r0; c0 < r1; c0 += chunk_rows) {
    const uint32_t c1 = std::min(r1, c0 + chunk_rows);
    std::fill(scratch.begin(),
              scratch.begin() + static_cast<size_t>(c1 - c0) * num_features,
              kMissingValue);
    for (uint32_t r = c0; r < c1; ++r) {
      float* out =
          scratch.data() + static_cast<size_t>(r - c0) * num_features;
      dataset.ForEachInRow(r,
                           [&](uint32_t f, float value) { out[f] = value; });
    }
    TraverseDense(scratch.data(), num_features, c1 - c0, t0, t1,
                  margins + c0);
  }
}

void Predictor::AccumulateMarginsDense(const float* values, uint32_t num_rows,
                                       uint32_t stride, double* margins,
                                       size_t tree_begin,
                                       size_t tree_end) const {
  HARP_CHECK_LE(tree_end, forest_->num_trees());
  HARP_CHECK_GE(stride, forest_->min_features());
  if (tree_begin >= tree_end || num_rows == 0) return;
  std::vector<size_t> local;
  const std::vector<size_t>& groups = Groups(tree_begin, tree_end, &local);
  // Blocks outer, groups inner: per row the groups still land in tree
  // order, so margins stay bit-identical to the Dataset paths.
  for (uint32_t r0 = 0; r0 < num_rows; r0 += kRowBlock) {
    const uint32_t r1 = std::min(num_rows, r0 + kRowBlock);
    for (size_t g = 0; g + 1 < groups.size(); ++g) {
      TraverseDense(values + static_cast<size_t>(r0) * stride, stride,
                    r1 - r0, groups[g], groups[g + 1], margins + r0);
    }
  }
}

namespace {

// Shared driver: fans kRowBlock-sized row blocks out over the pool; each
// thread sweeps its rows once per tree group so a group's nodes are
// loaded into cache once and reused across every row the thread owns.
// A single block (a short batch) runs inline: a pool region would wake
// every thread for one task.
template <typename BlockFn>
void ForEachBlock(uint32_t num_rows, ThreadPool* pool,
                  const std::vector<size_t>& groups, const BlockFn& fn) {
  const int64_t num_blocks =
      (static_cast<int64_t>(num_rows) + Predictor::kRowBlock - 1) /
      Predictor::kRowBlock;
  auto kernel = [&](int64_t begin, int64_t end, int) {
    for (size_t g = 0; g + 1 < groups.size(); ++g) {
      for (int64_t b = begin; b < end; ++b) {
        const uint32_t r0 =
            static_cast<uint32_t>(b) * Predictor::kRowBlock;
        const uint32_t r1 =
            std::min(num_rows, r0 + Predictor::kRowBlock);
        fn(r0, r1, groups[g], groups[g + 1]);
      }
    }
  };
  if (pool != nullptr && num_blocks > 1) {
    pool->ParallelFor(num_blocks, kernel);
  } else {
    kernel(0, num_blocks, 0);
  }
}

}  // namespace

void Predictor::AccumulateMargins(const BinnedMatrix& matrix, double* margins,
                                  size_t tree_begin, size_t tree_end,
                                  ThreadPool* pool) const {
  HARP_CHECK_LE(tree_end, forest_->num_trees());
  HARP_CHECK_GE(matrix.num_features(), forest_->min_features());
  if (tree_begin >= tree_end || matrix.num_rows() == 0) return;
  std::vector<size_t> local;
  ForEachBlock(matrix.num_rows(), pool, Groups(tree_begin, tree_end, &local),
               [&](uint32_t r0, uint32_t r1, size_t t0, size_t t1) {
                 AccumulateBlockBinned(matrix, r0, r1, t0, t1, margins);
               });
}

void Predictor::AccumulateMargins(const Dataset& dataset, double* margins,
                                  size_t tree_begin, size_t tree_end,
                                  ThreadPool* pool) const {
  HARP_CHECK_LE(tree_end, forest_->num_trees());
  HARP_CHECK_GE(dataset.num_features(), forest_->min_features());
  if (tree_begin >= tree_end || dataset.num_rows() == 0) return;
  std::vector<size_t> local;
  ForEachBlock(dataset.num_rows(), pool, Groups(tree_begin, tree_end, &local),
               [&](uint32_t r0, uint32_t r1, size_t t0, size_t t1) {
                 AccumulateBlockRaw(dataset, r0, r1, t0, t1, margins);
               });
}

std::vector<double> Predictor::PredictMargins(const BinnedMatrix& matrix,
                                              ThreadPool* pool,
                                              size_t num_trees) const {
  std::vector<double> margins(matrix.num_rows(), forest_->base_margin());
  AccumulateMargins(matrix, margins.data(), 0, ClampTreeCount(num_trees),
                    pool);
  return margins;
}

std::vector<double> Predictor::PredictMargins(const Dataset& dataset,
                                              ThreadPool* pool,
                                              size_t num_trees) const {
  std::vector<double> margins(dataset.num_rows(), forest_->base_margin());
  AccumulateMargins(dataset, margins.data(), 0, ClampTreeCount(num_trees),
                    pool);
  return margins;
}

}  // namespace harp
