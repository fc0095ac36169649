// Boosting driver and the HarpGBDT trainer facade.
//
// RunBoosting is trainer-agnostic: HarpGBDT and the reimplemented XGBoost/
// LightGBM baselines all plug their TreeBuilderBase into the same loop, so
// comparisons hold gradient computation, margin updates, metrics and
// instrumentation identical — the controlled-experiment setup the paper's
// Section V-A2 argues for.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/model.h"
#include "core/params.h"
#include "core/train_stats.h"
#include "core/tree_builder.h"
#include "data/binned_matrix.h"
#include "data/dataset.h"
#include "data/ingest_stats.h"
#include "parallel/thread_pool.h"

namespace harp {

// Invoked after each boosting iteration. `margins` are the updated raw
// training-set margins; `tree_seconds` is the wall time of this tree's
// gradient+build+update cycle.
struct IterationInfo {
  int iteration;
  const RegTree& tree;
  const std::vector<double>& margins;
  double tree_seconds;
};
using IterCallback = std::function<void(const IterationInfo&)>;

// Validation-set tracking and early stopping. Pass to RunBoosting/Train;
// history/best_* are filled during training.
struct EvalSet {
  const Dataset* data = nullptr;  // raw validation rows + labels

  // Stop after this many consecutive iterations without metric improvement
  // (0 = never stop early, just record). Improvement respects the metric's
  // direction: AUC/NDCG stop when they cease to *increase*, the loss
  // metrics when they cease to decrease.
  int early_stopping_rounds = 0;

  // Metric name override (see Metric::Create). Resolution order: this
  // field, then params.eval_metric, then Metric::DefaultName(objective).
  std::string metric;

  // Outputs.
  std::vector<double> history;   // metric after each iteration
  int best_iteration = -1;       // 0-based iteration with the best metric
  double best_metric = 0.0;
  std::string metric_name;       // resolved canonical name
  bool higher_is_better = false; // direction of the resolved metric
};

// Trains params.num_trees trees with `builder`. Fills stats (when non-null)
// with phase times, tree stats and the pool's synchronization delta for the
// training interval. Honours params.subsample / colsample_bytree (the
// latter only for builders implementing SetColumnMask) and optional early
// stopping on `eval`. `first_row` is the global index of the matrix's
// first row when it holds one shard of a larger training set: row sampling
// hashes the global index, so every sharding draws the same sample.
GbdtModel RunBoosting(const BinnedMatrix& matrix,
                      const std::vector<float>& labels,
                      const TrainParams& params, ThreadPool& pool,
                      TreeBuilderBase& builder, TrainStats* stats = nullptr,
                      const IterCallback& callback = {},
                      EvalSet* eval = nullptr, uint64_t first_row = 0);

// HarpGBDT's user-facing trainer: binning + boosting with HarpTreeBuilder.
class GbdtTrainer {
 public:
  explicit GbdtTrainer(TrainParams params);

  // End-to-end: quantile cuts, binning, boosting. When `ingest` is
  // non-null its sketch/bin wall times are filled in (the parse phases
  // were already recorded by whichever reader produced `dataset`), so
  // callers can print one ingest summary covering the whole pipeline.
  GbdtModel Train(const Dataset& dataset, TrainStats* stats = nullptr,
                  const IterCallback& callback = {},
                  EvalSet* eval = nullptr, IngestStats* ingest = nullptr);

  // Boosting only, on a pre-binned matrix (benchmarks pre-bin once so
  // "training time ... excludes data loading and one-time initialization").
  GbdtModel TrainBinned(const BinnedMatrix& matrix,
                        const std::vector<float>& labels,
                        TrainStats* stats = nullptr,
                        const IterCallback& callback = {},
                        EvalSet* eval = nullptr);

  const TrainParams& params() const { return params_; }

 private:
  TrainParams params_;
};

}  // namespace harp
