#include "predict/flat_forest.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "common/logging.h"
#include "core/model.h"
#include "core/tree.h"

namespace harp {

void FlatForest::AppendTree(const RegTree& tree) {
  const int32_t base = static_cast<int32_t>(left_.size());
  const int32_t count = tree.num_nodes();
  split_feature_.resize(split_feature_.size() + count, 0u);
  split_bin_.resize(split_bin_.size() + count, uint8_t{255});
  split_value_.resize(split_value_.size() + count,
                      std::numeric_limits<float>::infinity());
  default_left_.resize(default_left_.size() + count, uint8_t{1});
  left_.resize(left_.size() + count, 0);
  leaf_value_.resize(leaf_value_.size() + count, 0.0);

  // Lay nodes out so siblings land in consecutive slots (right = left + 1,
  // the stepping invariant), renumbering freely; a pre-order walk that
  // reserves both child slots on visiting their parent does exactly that.
  // ApplySplit-built trees already satisfy the invariant, but flattening
  // must not depend on how a tree was produced (model IO hands us nodes
  // verbatim, tests hand-build shapes).
  int32_t next = base + 1;  // slot 0 of the tree is the root
  int32_t max_depth = 0;
  // {RegTree id, flat slot, depth}; depth is re-derived rather than read
  // from TreeNode::depth so hand-assembled trees flatten correctly too.
  std::vector<std::tuple<int32_t, int32_t, int32_t>> stack;
  stack.emplace_back(0, base, 0);
  while (!stack.empty()) {
    const auto [orig_id, flat, depth] = stack.back();
    stack.pop_back();
    const TreeNode& n = tree.node(orig_id);
    max_depth = std::max(max_depth, depth);
    if (n.IsLeaf()) {
      // Self-loop defaults from the resize fills stay in place; every
      // input routes "left" back into this slot.
      left_[flat] = flat;
      leaf_value_[flat] = n.leaf_value;
      continue;
    }
    const int32_t left_slot = next;
    next += 2;
    HARP_CHECK_LE(next - base, count) << "tree has more children than nodes";
    split_feature_[flat] = n.split_feature;
    split_bin_[flat] = static_cast<uint8_t>(n.split_bin);
    split_value_[flat] = n.split_value;
    default_left_[flat] = n.default_left ? 1 : 0;
    left_[flat] = left_slot;
    min_features_ = std::max(min_features_, n.split_feature + 1);
    stack.emplace_back(n.right, left_slot + 1, depth + 1);
    stack.emplace_back(n.left, left_slot, depth + 1);
  }
  HARP_CHECK_EQ(next - base, count) << "tree has unreachable nodes";
  tree_offset_.push_back(base + count);
  tree_depth_.push_back(max_depth);
}

FlatForest FlatForest::BuildFromTrees(const RegTree* trees, size_t num_trees,
                                      double base_margin) {
  FlatForest forest;
  forest.base_margin_ = base_margin;
  forest.tree_offset_.reserve(num_trees + 1);
  forest.tree_offset_.push_back(0);
  int64_t total = 0;
  for (size_t t = 0; t < num_trees; ++t) total += trees[t].num_nodes();
  forest.split_feature_.reserve(total);
  forest.split_bin_.reserve(total);
  forest.split_value_.reserve(total);
  forest.default_left_.reserve(total);
  forest.left_.reserve(total);
  forest.leaf_value_.reserve(total);
  for (size_t t = 0; t < num_trees; ++t) forest.AppendTree(trees[t]);
  return forest;
}

FlatForest FlatForest::Build(const GbdtModel& model) {
  return BuildFromTrees(model.trees().data(), model.NumTrees(),
                        model.base_margin());
}

size_t FlatForest::MemoryBytes() const {
  return split_feature_.size() * sizeof(uint32_t) + split_bin_.size() +
         split_value_.size() * sizeof(float) + default_left_.size() +
         left_.size() * sizeof(int32_t) + leaf_value_.size() * sizeof(double) +
         (tree_offset_.size() + tree_depth_.size()) * sizeof(int32_t);
}

}  // namespace harp
