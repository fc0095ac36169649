// FindSplit: the Eq. 2 / Eq. 3 arithmetic and histogram enumeration.
#pragma once

#include <cstdint>

#include "core/gh.h"
#include "core/params.h"
#include "core/split.h"
#include "data/binned_matrix.h"

namespace harp {

class SplitEvaluator {
 public:
  explicit SplitEvaluator(const TrainParams& params)
      : reg_lambda_(params.reg_lambda),
        min_split_loss_(params.min_split_loss),
        min_child_weight_(params.min_child_weight),
        learning_rate_(params.learning_rate) {}

  // Optimal leaf weight w* = -G / (H + lambda)  (Eq. 2).
  double RawLeafWeight(const GHPair& sum) const {
    return -sum.g / (sum.h + reg_lambda_);
  }

  // Leaf value as stored in the tree: learning_rate * w*.
  double LeafValue(const GHPair& sum) const {
    return learning_rate_ * RawLeafWeight(sum);
  }

  // G^2 / (H + lambda), the per-child term of the score function.
  double ChildScore(const GHPair& sum) const {
    return sum.g * sum.g / (sum.h + reg_lambda_);
  }

  // Split gain S(L, R) of Eq. 3 (gamma already subtracted).
  double SplitGain(const GHPair& parent, const GHPair& left,
                   const GHPair& right) const {
    return SplitGain(ChildScore(parent), left, right);
  }
  // The same with ChildScore(parent) precomputed (hoisted out of loops).
  double SplitGain(double parent_score, const GHPair& left,
                   const GHPair& right) const {
    return 0.5 * (ChildScore(left) + ChildScore(right) - parent_score) -
           min_split_loss_;
  }

  bool SatisfiesChildWeight(const GHPair& sum) const {
    return sum.h >= min_child_weight_;
  }

  // Scans node histogram `hist` (TotalBins() GHPair slots, indexed by
  // matrix.BinOffset(f) + bin) over features [feature_begin, feature_end)
  // and returns the best split. `node_sum` is the node's gradient total.
  // For each feature both missing-value directions are evaluated.
  //
  // Compacted scan: split bin b is evaluated only when its left prefix
  // differs, bit for bit, from the previous evaluated one's. A skipped bin
  // (an empty cell, mostly) has a lower bin's prefix, hence its gain and
  // sums, and BetterThan gives that tie to the lower bin; so the result is
  // bit-identical to evaluating every bin.
  //
  // Deterministic: features/bins are scanned in ascending order and ties
  // are resolved by SplitInfo::BetterThan, so any partition of the feature
  // range yields the same overall winner after merging.
  //
  // `column_mask` (optional, num_features bytes) restricts the search to
  // features with a non-zero mask byte (per-tree column sampling).
  SplitInfo FindBestSplit(const BinnedMatrix& matrix, const GHPair* hist,
                          const GHPair& node_sum, uint32_t feature_begin,
                          uint32_t feature_end,
                          const uint8_t* column_mask = nullptr) const;

 private:
  double reg_lambda_;
  double min_split_loss_;
  double min_child_weight_;
  double learning_rate_;
};

}  // namespace harp
