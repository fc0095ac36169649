#include "core/model.h"

#include "common/logging.h"
#include "parallel/thread_pool.h"
#include "predict/flat_forest.h"
#include "predict/predictor.h"

namespace harp {

GbdtModel::GbdtModel(const GbdtModel& other)
    : trees_(other.trees_),
      objective_(other.objective_),
      quantile_alpha_(other.quantile_alpha_),
      base_margin_(other.base_margin_),
      cuts_(other.cuts_) {
  std::lock_guard<std::mutex> lock(other.flat_mutex_);
  flat_cache_ = other.flat_cache_;
}

GbdtModel& GbdtModel::operator=(const GbdtModel& other) {
  if (this == &other) return *this;
  trees_ = other.trees_;
  objective_ = other.objective_;
  quantile_alpha_ = other.quantile_alpha_;
  base_margin_ = other.base_margin_;
  cuts_ = other.cuts_;
  std::shared_ptr<const FlatForest> cache;
  {
    std::lock_guard<std::mutex> lock(other.flat_mutex_);
    cache = other.flat_cache_;
  }
  std::lock_guard<std::mutex> lock(flat_mutex_);
  flat_cache_ = std::move(cache);
  return *this;
}

GbdtModel::GbdtModel(GbdtModel&& other) noexcept
    : trees_(std::move(other.trees_)),
      objective_(other.objective_),
      quantile_alpha_(other.quantile_alpha_),
      base_margin_(other.base_margin_),
      cuts_(std::move(other.cuts_)),
      flat_cache_(std::move(other.flat_cache_)) {}

GbdtModel& GbdtModel::operator=(GbdtModel&& other) noexcept {
  if (this == &other) return *this;
  trees_ = std::move(other.trees_);
  objective_ = other.objective_;
  quantile_alpha_ = other.quantile_alpha_;
  base_margin_ = other.base_margin_;
  cuts_ = std::move(other.cuts_);
  flat_cache_ = std::move(other.flat_cache_);
  return *this;
}

double GbdtModel::PredictMarginRow(const Dataset& dataset, uint32_t row,
                                   size_t num_trees) const {
  const size_t limit =
      num_trees == 0 ? trees_.size() : std::min(num_trees, trees_.size());
  double margin = base_margin_;
  for (size_t t = 0; t < limit; ++t) {
    margin += trees_[t].PredictRaw(dataset, row);
  }
  return margin;
}

FlatForest GbdtModel::Flatten() const { return FlatForest::Build(*this); }

std::shared_ptr<const FlatForest> GbdtModel::FlatSnapshot() const {
  std::lock_guard<std::mutex> lock(flat_mutex_);
  if (!flat_cache_) {
    flat_cache_ = std::make_shared<const FlatForest>(FlatForest::Build(*this));
  }
  return flat_cache_;
}

std::vector<double> GbdtModel::PredictMargins(const Dataset& dataset,
                                              ThreadPool* pool,
                                              size_t num_trees) const {
  const std::shared_ptr<const FlatForest> flat = FlatSnapshot();
  return Predictor(*flat).PredictMargins(dataset, pool, num_trees);
}

std::vector<double> GbdtModel::Predict(const Dataset& dataset,
                                       ThreadPool* pool,
                                       size_t num_trees) const {
  std::vector<double> out = PredictMargins(dataset, pool, num_trees);
  const auto objective = Objective::Create(objective_);
  for (double& v : out) v = objective->Transform(v);
  return out;
}

BinnedMatrix GbdtModel::BinDataset(const Dataset& dataset,
                                   ThreadPool* pool) const {
  return BinnedMatrix::Build(dataset, cuts_, pool);
}

double GbdtModel::Transform(double margin) const {
  return Objective::Create(objective_)->Transform(margin);
}

int64_t GbdtModel::TotalNodes() const {
  int64_t total = 0;
  for (const RegTree& tree : trees_) total += tree.num_nodes();
  return total;
}

}  // namespace harp
