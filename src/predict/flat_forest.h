// Flattened tree ensemble for batched inference (the inference-side
// analogue of Section IV-E's compact training layout).
//
// RegTree stores ~72-byte TreeNode structs; a traversal touches one cache
// line per step and uses only ~10 bytes of it. FlatForest repacks every
// tree of a GbdtModel into structure-of-arrays form — per node: split
// feature, 1-byte bin threshold, float raw threshold, default-left flag,
// left-child index, leaf value — with trees laid out back-to-back behind a
// per-tree offset table. Like the GPU GBDT engines in PAPERS.md (Zhang et
// al.; Mitchell et al.), the flat layout exists so a batched traversal
// streams a small, dense working set instead of chasing AoS pointers.
//
// Layout invariants the Predictor kernels rely on:
//   * Siblings occupy consecutive slots: right child = left child + 1, so
//     a step is `idx = left[idx] + !go_left` with no second array.
//   * Leaves self-loop: left[i] = i, split_bin = 255, split_value = +inf,
//     default_left = 1. Every possible input therefore "goes left" into
//     the node itself, so a traversal can take a fixed tree_depth steps
//     with no per-step leaf branch — rows that reach a leaf early simply
//     spin in place.
//   * Child indices are absolute (into the concatenated arrays), so the
//     inner loop never adds a per-tree base.
//
// Nodes are renumbered during flattening (any RegTree shape is accepted).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace harp {

class GbdtModel;
class RegTree;

class FlatForest {
 public:
  FlatForest() = default;

  // Flattens every tree of `model`; captures its base margin.
  static FlatForest Build(const GbdtModel& model);

  // Flattens `num_trees` trees starting at `trees` (e.g. just the newest
  // tree during eval-while-training). No base margin is captured.
  static FlatForest BuildFromTrees(const RegTree* trees, size_t num_trees,
                                   double base_margin = 0.0);

  size_t num_trees() const {
    return tree_offset_.empty() ? 0 : tree_offset_.size() - 1;
  }
  int64_t num_nodes() const { return static_cast<int64_t>(left_.size()); }
  double base_margin() const { return base_margin_; }

  // Smallest feature count an input must have to be traversed safely.
  uint32_t min_features() const { return min_features_; }

  // Per-tree views (tree-local node ranges are
  // [tree_offset(t), tree_offset(t + 1)) in the node arrays).
  int32_t tree_offset(size_t t) const { return tree_offset_[t]; }
  int32_t tree_depth(size_t t) const { return tree_depth_[t]; }
  int32_t NodesInTree(size_t t) const {
    return tree_offset_[t + 1] - tree_offset_[t];
  }

  // Raw SoA arrays (size num_nodes each) for the traversal kernels.
  const uint32_t* split_feature() const { return split_feature_.data(); }
  const uint8_t* split_bin() const { return split_bin_.data(); }
  const float* split_value() const { return split_value_.data(); }
  const uint8_t* default_left() const { return default_left_.data(); }
  const int32_t* left_child() const { return left_.data(); }
  const double* leaf_value() const { return leaf_value_.data(); }

  // Resident bytes of the flat arrays (model-size reporting).
  size_t MemoryBytes() const;

 private:
  void AppendTree(const RegTree& tree);

  std::vector<uint32_t> split_feature_;
  std::vector<uint8_t> split_bin_;
  std::vector<float> split_value_;
  std::vector<uint8_t> default_left_;
  std::vector<int32_t> left_;        // absolute; self for leaves
  std::vector<double> leaf_value_;   // 0.0 for internal nodes
  std::vector<int32_t> tree_offset_;  // size num_trees + 1
  std::vector<int32_t> tree_depth_;   // steps to guarantee a leaf
  double base_margin_ = 0.0;
  uint32_t min_features_ = 0;  // 1 + max split feature referenced
};

}  // namespace harp
