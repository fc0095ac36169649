#include "core/tree.h"

#include <cmath>

#include "common/logging.h"

namespace harp {

int RegTree::NumLeaves() const {
  int leaves = 0;
  for (const auto& n : nodes_) {
    if (n.IsLeaf()) ++leaves;
  }
  return leaves;
}

int RegTree::MaxDepth() const {
  int depth = 0;
  for (const auto& n : nodes_) depth = std::max(depth, static_cast<int>(n.depth));
  return depth;
}

std::pair<int, int> RegTree::ApplySplit(int node_id, const SplitInfo& split,
                                        float split_value) {
  HARP_CHECK_GE(node_id, 0);
  HARP_CHECK_LT(node_id, num_nodes());
  HARP_CHECK(nodes_[static_cast<size_t>(node_id)].IsLeaf());
  HARP_CHECK_GE(split.bin, 1u);

  const int left_id = num_nodes();
  const int right_id = left_id + 1;
  nodes_.emplace_back();
  nodes_.emplace_back();

  TreeNode& parent = nodes_[static_cast<size_t>(node_id)];
  parent.left = left_id;
  parent.right = right_id;
  parent.split_feature = split.feature;
  parent.split_bin = split.bin;
  parent.split_value = split_value;
  parent.default_left = split.default_left;
  parent.gain = split.gain;

  TreeNode& left = nodes_[static_cast<size_t>(left_id)];
  left.parent = node_id;
  left.depth = parent.depth + 1;
  left.sum = split.left_sum;

  TreeNode& right = nodes_[static_cast<size_t>(right_id)];
  right.parent = node_id;
  right.depth = parent.depth + 1;
  right.sum = split.right_sum;

  return {left_id, right_id};
}

int RegTree::PredictLeafBinned(const uint8_t* row_bins) const {
  int id = 0;
  while (!nodes_[static_cast<size_t>(id)].IsLeaf()) {
    const TreeNode& n = nodes_[static_cast<size_t>(id)];
    const uint8_t bin = row_bins[n.split_feature];
    const bool go_left =
        (bin == 0) ? n.default_left : (bin <= n.split_bin);
    id = go_left ? n.left : n.right;
  }
  return id;
}

double RegTree::PredictRaw(const Dataset& dataset, uint32_t row) const {
  int id = 0;
  while (!nodes_[static_cast<size_t>(id)].IsLeaf()) {
    const TreeNode& n = nodes_[static_cast<size_t>(id)];
    const float value = dataset.At(row, n.split_feature);
    const bool go_left =
        IsMissing(value) ? n.default_left : (value <= n.split_value);
    id = go_left ? n.left : n.right;
  }
  return nodes_[static_cast<size_t>(id)].leaf_value;
}

bool RegTree::CheckValid() const {
  if (nodes_[0].parent != -1) return false;
  // Walk from the root: a node reached twice (a cycle or a shared child)
  // or never (an orphan) is refused, so every walk ends at a leaf.
  const int count = num_nodes();
  std::vector<uint8_t> reached(static_cast<size_t>(count), 0);
  std::vector<int> stack = {0};
  int visited = 0;
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (reached[static_cast<size_t>(id)]) return false;
    reached[static_cast<size_t>(id)] = 1;
    ++visited;
    const TreeNode& n = nodes_[static_cast<size_t>(id)];
    if (n.IsLeaf()) {
      if (n.right >= 0) return false;
      if (!std::isfinite(n.leaf_value)) return false;
      continue;
    }
    if (n.split_bin < 1) return false;
    for (const int child : {n.left, n.right}) {
      if (child < 1 || child >= count) return false;
      if (nodes_[static_cast<size_t>(child)].parent != id) return false;
      stack.push_back(child);
    }
  }
  return visited == count;
}

}  // namespace harp
