// Regression tree: structure, growth mutations, prediction.
#pragma once

#include <cstdint>
#include <vector>

#include "core/gh.h"
#include "core/split.h"
#include "data/binned_matrix.h"
#include "data/dataset.h"

namespace harp {

struct TreeNode {
  int32_t parent = -1;
  int32_t left = -1;    // < 0 while a leaf
  int32_t right = -1;
  int32_t depth = 0;

  // Split (valid when not a leaf). Binned test: bin 0 -> default side,
  // else bin <= split_bin goes left. Raw test: missing -> default side,
  // else value <= split_value goes left.
  uint32_t split_feature = 0;
  uint32_t split_bin = 0;
  float split_value = 0.0f;
  bool default_left = false;
  double gain = 0.0;

  // Leaf output (already scaled by the learning rate).
  double leaf_value = 0.0;

  // Node statistics (useful for tests and model inspection).
  GHPair sum;
  uint32_t num_rows = 0;

  bool IsLeaf() const { return left < 0; }
};

class RegTree {
 public:
  RegTree() { nodes_.emplace_back(); }  // starts as a single-leaf root

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int NumLeaves() const;
  int MaxDepth() const;

  const TreeNode& node(int id) const { return nodes_[static_cast<size_t>(id)]; }
  TreeNode& mutable_node(int id) { return nodes_[static_cast<size_t>(id)]; }

  // Turns leaf `node_id` into an internal node with the given split;
  // returns {left_child_id, right_child_id}. split_value must be the raw
  // cut corresponding to split.bin so raw and binned prediction agree.
  std::pair<int, int> ApplySplit(int node_id, const SplitInfo& split,
                                 float split_value);

  // Leaf id reached by a binned row (row-major bin pointer).
  int PredictLeafBinned(const uint8_t* row_bins) const;

  // Leaf value for a binned row.
  double PredictBinned(const uint8_t* row_bins) const {
    return nodes_[static_cast<size_t>(PredictLeafBinned(row_bins))].leaf_value;
  }

  // Leaf value for a raw row of `dataset`.
  double PredictRaw(const Dataset& dataset, uint32_t row) const;

  // Structural invariants (model loading, tests): every node is reached
  // exactly once from the root, both children of a split lie in
  // [1, num_nodes()) and link back to it, leaf values are finite.
  bool CheckValid() const;

  const std::vector<TreeNode>& nodes() const { return nodes_; }
  std::vector<TreeNode>& mutable_nodes() { return nodes_; }

 private:
  std::vector<TreeNode> nodes_;
};

}  // namespace harp
