#include "core/gbdt.h"

#include <cmath>
#include <memory>

#include "common/logging.h"
#include "common/mmap_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/metrics.h"
#include "core/objective.h"
#include "data/row_block_prefetcher.h"
#include "predict/flat_forest.h"
#include "predict/predictor.h"

namespace harp {

GbdtModel RunBoosting(const BinnedMatrix& matrix,
                      const std::vector<float>& labels,
                      const TrainParams& params, ThreadPool& pool,
                      TreeBuilderBase& builder, TrainStats* stats,
                      const IterCallback& callback, EvalSet* eval,
                      uint64_t first_row) {
  HARP_CHECK_EQ(labels.size(), static_cast<size_t>(matrix.num_rows()));
  params.Validate();

  const auto objective = Objective::Create(Objective::ConfigFromParams(params));
  if (objective->NeedsGroups()) {
    HARP_CHECK(matrix.has_groups())
        << "objective '" << ToString(params.objective)
        << "' requires query groups (qid: columns in the training data)";
  }
  const double base_margin = objective->InitialMargin(params.base_score);
  GbdtModel model(params.objective, base_margin, matrix.cuts());
  if (params.objective == ObjectiveKind::kQuantile) {
    model.set_quantile_alpha(params.quantile_alpha);
  }

  GradientContext grad_ctx;
  std::vector<double> margins(labels.size(), base_margin);
  std::vector<GradientPair> gradients;
  grad_ctx.labels = &labels;
  grad_ctx.margins = &margins;
  grad_ctx.group_ptr = matrix.has_groups() ? &matrix.group_ptr() : nullptr;

  const bool row_sampling = params.subsample < 1.0;
  const bool col_sampling = params.colsample_bytree < 1.0;
  std::vector<uint8_t> column_mask;
  std::vector<double> eval_margins;
  std::vector<double> eval_predictions;
  std::unique_ptr<Metric> metric_fn;
  if (eval != nullptr) {
    HARP_CHECK(eval->data != nullptr);
    eval->history.clear();
    eval->best_iteration = -1;
    eval_margins.assign(eval->data->num_rows(), base_margin);
    MetricConfig metric_config;
    metric_config.quantile_alpha = params.quantile_alpha;
    metric_config.ndcg_k = params.ndcg_k;
    std::string name = !eval->metric.empty() ? eval->metric
                       : !params.eval_metric.empty()
                           ? params.eval_metric
                           : Metric::DefaultName(params.objective,
                                                 metric_config);
    metric_fn = Metric::Create(name, metric_config);
    eval->metric_name = metric_fn->name();
    eval->higher_is_better = metric_fn->higher_is_better();
    if (metric_fn->needs_groups()) {
      HARP_CHECK(eval->data->has_groups())
          << "metric '" << eval->metric_name
          << "' requires query groups in the validation data";
    }
  }

  // Out-of-core mode: when the bin matrix lives in a file mapping, run the
  // background sweep that bounds resident set, and record fault/RSS deltas
  // so the streaming cost shows up in the report.
  std::unique_ptr<RowBlockPrefetcher> prefetcher;
  FaultCounts faults_before;
  if (matrix.IsMapped()) {
    faults_before = ProcessFaults();
    if (params.stream_prefetch) {
      prefetcher = std::make_unique<RowBlockPrefetcher>(
          matrix.storage(),
          static_cast<size_t>(params.prefetch_window_bytes));
      prefetcher->Start();
    }
  }

  const SyncSnapshot sync_before = pool.Snapshot();
  const Stopwatch total_watch;

  for (int iter = 0; iter < params.num_trees; ++iter) {
    const Stopwatch tree_watch;

    {
      const Stopwatch watch;
      objective->ComputeGradients(grad_ctx, &gradients, &pool);
      if (row_sampling) {
        // Rows outside the sample contribute nothing to this tree's
        // statistics; zeroed gradients keep every partitioner code path
        // unchanged. Deterministic per (seed, iteration, global row).
        pool.ParallelFor(
            static_cast<int64_t>(gradients.size()),
            [&](int64_t begin, int64_t end, int) {
              for (int64_t r = begin; r < end; ++r) {
                const uint64_t row = first_row + static_cast<uint64_t>(r);
                Rng rng(params.seed ^
                        (0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(iter)) ^
                        row * 0xD1B54A32D192ED03ULL);
                if (!rng.Bernoulli(params.subsample)) {
                  gradients[static_cast<size_t>(r)] = GradientPair{};
                }
              }
            });
      }
      if (stats != nullptr) stats->gradient_ns += watch.ElapsedNs();
    }

    if (col_sampling) {
      Rng rng(params.seed + 0xC01u + static_cast<uint64_t>(iter));
      column_mask.assign(matrix.num_features(), 0);
      uint32_t kept = 0;
      for (auto& bit : column_mask) {
        bit = rng.Bernoulli(params.colsample_bytree) ? 1 : 0;
        kept += bit;
      }
      if (kept == 0) column_mask[rng.NextBelow(column_mask.size())] = 1;
      builder.SetColumnMask(&column_mask);
    }

    RegTree tree = builder.BuildTree(gradients, stats);

    {
      const Stopwatch watch;
      builder.UpdateMargins(tree, &margins);
      if (stats != nullptr) stats->update_ns += watch.ElapsedNs();
    }

    const double tree_seconds = tree_watch.ElapsedSec();
    if (stats != nullptr) {
      stats->tree_seconds.push_back(tree_seconds);
      ++stats->trees;
    }
    model.AddTree(std::move(tree));
    if (prefetcher != nullptr) prefetcher->Pulse();
    if (callback) {
      callback(IterationInfo{iter, model.trees().back(), margins,
                             tree_seconds});
    }

    if (eval != nullptr) {
      // Fold only the newest tree into the held-out margins: flatten it
      // alone and accumulate block-wise (margins[r] += leaf, the same
      // operation order as walking the tree per row).
      const FlatForest last_flat =
          FlatForest::BuildFromTrees(&model.trees().back(), 1);
      Predictor(last_flat).AccumulateMargins(*eval->data,
                                             eval_margins.data(), 0, 1,
                                             &pool);
      eval_predictions.resize(eval_margins.size());
      for (size_t i = 0; i < eval_margins.size(); ++i) {
        eval_predictions[i] = objective->Transform(eval_margins[i]);
      }
      const double metric = metric_fn->Evaluate(
          eval->data->labels(), eval_predictions,
          eval->data->has_groups() ? &eval->data->group_ptr() : nullptr);
      eval->history.push_back(metric);
      const bool improved = eval->best_iteration < 0 ||
                            (eval->higher_is_better
                                 ? metric > eval->best_metric
                                 : metric < eval->best_metric);
      if (improved) {
        eval->best_iteration = iter;
        eval->best_metric = metric;
      }
      if (eval->early_stopping_rounds > 0 &&
          iter - eval->best_iteration >= eval->early_stopping_rounds) {
        break;
      }
    }
  }
  builder.SetColumnMask(nullptr);

  if (prefetcher != nullptr) prefetcher->Stop();
  if (stats != nullptr) {
    stats->wall_ns += total_watch.ElapsedNs();
    stats->sync = pool.Snapshot() - sync_before;
    if (matrix.IsMapped()) {
      stats->mapped_bytes = matrix.MappedBytes();
      const FaultCounts faults_after = ProcessFaults();
      stats->minor_faults += faults_after.minor - faults_before.minor;
      stats->major_faults += faults_after.major - faults_before.major;
      stats->peak_rss_bytes = PeakRssBytes();
      if (prefetcher != nullptr) {
        const RowBlockPrefetcher::Stats ps = prefetcher->GetStats();
        stats->oo_advised_bytes += ps.advised_bytes;
        stats->oo_retired_bytes += ps.retired_bytes;
        stats->oo_sweeps += ps.sweeps;
      }
    }
  }
  return model;
}

GbdtTrainer::GbdtTrainer(TrainParams params) : params_(std::move(params)) {
  params_.Validate();
}

GbdtModel GbdtTrainer::Train(const Dataset& dataset, TrainStats* stats,
                             const IterCallback& callback, EvalSet* eval,
                             IngestStats* ingest) {
  const int threads = params_.num_threads > 0 ? params_.num_threads
                                              : ThreadPool::DefaultThreads();
  ThreadPool pool(threads);
  const Stopwatch sketch_watch;
  QuantileCuts cuts = QuantileCuts::Compute(dataset, params_.max_bins, &pool);
  if (ingest != nullptr) ingest->sketch_ns = sketch_watch.ElapsedNs();
  const Stopwatch bin_watch;
  const BinnedMatrix matrix =
      BinnedMatrix::Build(dataset, std::move(cuts), &pool);
  if (ingest != nullptr) ingest->bin_ns = bin_watch.ElapsedNs();
  HarpTreeBuilder builder(matrix, params_, pool);
  return RunBoosting(matrix, dataset.labels(), params_, pool, builder, stats,
                     callback, eval);
}

GbdtModel GbdtTrainer::TrainBinned(const BinnedMatrix& matrix,
                                   const std::vector<float>& labels,
                                   TrainStats* stats,
                                   const IterCallback& callback,
                                   EvalSet* eval) {
  const int threads = params_.num_threads > 0 ? params_.num_threads
                                              : ThreadPool::DefaultThreads();
  ThreadPool pool(threads);
  HarpTreeBuilder builder(matrix, params_, pool);
  return RunBoosting(matrix, labels, params_, pool, builder, stats, callback,
                     eval);
}

}  // namespace harp
