// Trained model: tree ensemble + the metadata needed to predict on raw
// feature values.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/objective.h"
#include "core/params.h"
#include "core/tree.h"
#include "data/binned_matrix.h"
#include "data/dataset.h"
#include "data/quantile.h"

namespace harp {

class FlatForest;
class ThreadPool;

class GbdtModel {
 public:
  GbdtModel() = default;
  GbdtModel(ObjectiveKind objective, double base_margin, QuantileCuts cuts)
      : objective_(objective),
        base_margin_(base_margin),
        cuts_(std::move(cuts)) {}

  // Copies/moves transfer the cached flat snapshot (it is immutable and
  // describes the same trees); the cache mutex itself is never
  // transferred. Moves must not race with concurrent use of the source.
  GbdtModel(const GbdtModel& other);
  GbdtModel& operator=(const GbdtModel& other);
  GbdtModel(GbdtModel&& other) noexcept;
  GbdtModel& operator=(GbdtModel&& other) noexcept;

  void AddTree(RegTree tree) {
    trees_.push_back(std::move(tree));
    InvalidateFlatCache();
  }

  size_t NumTrees() const { return trees_.size(); }
  const RegTree& tree(size_t i) const { return trees_[i]; }
  const std::vector<RegTree>& trees() const { return trees_; }
  ObjectiveKind objective() const { return objective_; }
  double base_margin() const { return base_margin_; }
  const QuantileCuts& cuts() const { return cuts_; }

  // Raw margin of one row of `dataset`, using the first `num_trees` trees
  // (0 = all). Missing values follow each split's default direction.
  // Single-row reference path on RegTree::PredictRaw; batch prediction
  // goes through the flat Predictor (src/predict/) instead.
  double PredictMarginRow(const Dataset& dataset, uint32_t row,
                          size_t num_trees = 0) const;

  // Margins for every row via the block-wise FlatForest Predictor
  // (parallel when a pool is given); bit-identical to looping
  // PredictMarginRow.
  std::vector<double> PredictMargins(const Dataset& dataset,
                                     ThreadPool* pool = nullptr,
                                     size_t num_trees = 0) const;

  // User-facing predictions: probabilities for logistic, values for
  // squared error.
  std::vector<double> Predict(const Dataset& dataset,
                              ThreadPool* pool = nullptr,
                              size_t num_trees = 0) const;

  // Flattens the ensemble into the SoA inference layout. Always builds a
  // fresh forest; prefer FlatSnapshot() unless you need an independent
  // copy (e.g. to mutate the model while keeping the old layout).
  FlatForest Flatten() const;

  // Cached flat snapshot, built on first use and shared by every caller:
  // repeated Predict* calls (and a model server's reload path) flatten
  // once instead of per call. Any model mutation — AddTree, mutable_trees,
  // set_base_margin, set_cuts — invalidates the cache; holders of the
  // returned pointer keep the old (still-consistent) snapshot alive.
  // Thread-safe: concurrent FlatSnapshot()/Predict* calls are fine.
  std::shared_ptr<const FlatForest> FlatSnapshot() const;

  // Bins new raw data with the model's training-time cuts.
  BinnedMatrix BinDataset(const Dataset& dataset,
                          ThreadPool* pool = nullptr) const;

  // Margin transform for a single value.
  double Transform(double margin) const;

  // Total node count across trees (model-size reporting).
  int64_t TotalNodes() const;

  // Mutable access for model IO. Taking the reference conservatively
  // drops the flat cache — the caller may mutate through it at any time.
  std::vector<RegTree>& mutable_trees() {
    InvalidateFlatCache();
    return trees_;
  }
  void set_objective(ObjectiveKind kind) { objective_ = kind; }
  // Quantile models carry their alpha so loaded models report which
  // quantile their predictions estimate. Ignored by other objectives.
  double quantile_alpha() const { return quantile_alpha_; }
  void set_quantile_alpha(double alpha) { quantile_alpha_ = alpha; }
  void set_base_margin(double margin) {
    base_margin_ = margin;
    InvalidateFlatCache();
  }
  void set_cuts(QuantileCuts cuts) {
    cuts_ = std::move(cuts);
    InvalidateFlatCache();
  }

 private:
  void InvalidateFlatCache() {
    std::lock_guard<std::mutex> lock(flat_mutex_);
    flat_cache_.reset();
  }

  std::vector<RegTree> trees_;
  ObjectiveKind objective_ = ObjectiveKind::kLogistic;
  double quantile_alpha_ = 0.5;
  double base_margin_ = 0.0;
  QuantileCuts cuts_;
  mutable std::mutex flat_mutex_;
  mutable std::shared_ptr<const FlatForest> flat_cache_;
};

}  // namespace harp
