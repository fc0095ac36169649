// Tests for the production-feature extensions: row/column sampling, early
// stopping with eval sets, feature importance, binned batch prediction.
#include <gtest/gtest.h>

#include <algorithm>

#include "harpgbdt.h"
#include "test_util.h"

namespace harp {
namespace {

Dataset Learnable(uint32_t rows, uint64_t seed = 801) {
  SyntheticSpec spec;
  spec.rows = rows;
  spec.features = 12;
  spec.density = 0.9;
  spec.active_features = 4;  // few strong features: importance is peaked
  spec.margin_scale = 3.0;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

TrainParams Fast(int trees = 10) {
  TrainParams p;
  p.num_trees = trees;
  p.tree_size = 4;
  p.num_threads = 2;
  return p;
}

// ---------- sampling ----------

TEST(Sampling, SubsampleStillLearns) {
  const Dataset train = Learnable(3000);
  TrainParams p = Fast(15);
  p.subsample = 0.5;
  GbdtTrainer trainer(p);
  const GbdtModel model = trainer.Train(train);
  EXPECT_GT(Auc(train.labels(), model.Predict(train)), 0.80);
}

TEST(Sampling, SubsampleIsDeterministic) {
  const Dataset train = Learnable(1500);
  TrainParams p = Fast(4);
  p.subsample = 0.6;
  const GbdtModel a = GbdtTrainer(p).Train(train);
  const GbdtModel b = GbdtTrainer(p).Train(train);
  for (size_t t = 0; t < a.NumTrees(); ++t) {
    EXPECT_TRUE(harp::testing::TreesEqual(a.tree(t), b.tree(t)));
  }
}

TEST(Sampling, SubsampleChangesTrees) {
  const Dataset train = Learnable(1500);
  TrainParams p = Fast(3);
  const GbdtModel full = GbdtTrainer(p).Train(train);
  p.subsample = 0.5;
  const GbdtModel sampled = GbdtTrainer(p).Train(train);
  bool any_diff = false;
  for (size_t t = 0; t < full.NumTrees(); ++t) {
    if (!harp::testing::TreesEqual(full.tree(t), sampled.tree(t))) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Sampling, ColsampleRestrictsSplitFeatures) {
  const Dataset train = Learnable(2000);
  TrainParams p = Fast(6);
  p.colsample_bytree = 0.25;
  const GbdtModel model = GbdtTrainer(p).Train(train);
  // With 12 features and 25% sampling, no single tree may use more than 12
  // distinct features, and across trees the per-tree distinct count must
  // be small.
  for (const RegTree& tree : model.trees()) {
    std::set<uint32_t> used;
    for (const TreeNode& n : tree.nodes()) {
      if (!n.IsLeaf()) used.insert(n.split_feature);
    }
    EXPECT_LE(used.size(), 6u);  // sampled subset is ~3 features
  }
  EXPECT_GT(Auc(train.labels(), model.Predict(train)), 0.6);
}

TEST(Sampling, ColsampleWorksInAsyncMode) {
  const Dataset train = Learnable(2000);
  TrainParams p = Fast(5);
  p.mode = ParallelMode::kASYNC;
  p.grow_policy = GrowPolicy::kTopK;
  p.topk = 8;
  p.colsample_bytree = 0.5;
  const GbdtModel model = GbdtTrainer(p).Train(train);
  for (const RegTree& tree : model.trees()) {
    EXPECT_TRUE(tree.CheckValid());
  }
}

TEST(SamplingDeath, OutOfRangeRejected) {
  TrainParams p = Fast();
  p.subsample = 0.0;
  EXPECT_DEATH(p.Validate(), "CHECK");
  p.subsample = 1.5;
  EXPECT_DEATH(p.Validate(), "CHECK");
  p.subsample = 1.0;
  p.colsample_bytree = -0.1;
  EXPECT_DEATH(p.Validate(), "CHECK");
}

// ---------- eval sets & early stopping ----------

TEST(EvalSetTest, HistoryRecordedAndImproves) {
  const Dataset all = Learnable(3000);
  const Dataset train = all.Slice(0, 2400);
  const Dataset valid = all.Slice(2400, 3000);
  TrainParams p = Fast(12);
  EvalSet eval;
  eval.data = &valid;
  GbdtTrainer trainer(p);
  trainer.Train(train, nullptr, {}, &eval);
  ASSERT_EQ(eval.history.size(), 12u);
  EXPECT_LT(eval.history.back(), eval.history.front());
  EXPECT_GE(eval.best_iteration, 0);
  EXPECT_LE(eval.best_metric, eval.history.front());
}

TEST(EvalSetTest, EarlyStoppingTruncatesTraining) {
  // Overfit-prone setup: tiny noisy training set, many trees.
  SyntheticSpec spec;
  spec.rows = 600;
  spec.features = 10;
  spec.margin_scale = 0.8;  // noisy labels
  spec.seed = 811;
  const Dataset all = GenerateSynthetic(spec);
  const Dataset train = all.Slice(0, 400);
  const Dataset valid = all.Slice(400, 600);

  TrainParams p = Fast(60);
  p.tree_size = 5;
  EvalSet eval;
  eval.data = &valid;
  eval.early_stopping_rounds = 5;
  const GbdtModel model = GbdtTrainer(p).Train(train, nullptr, {}, &eval);
  // Stopped early: fewer trees than requested, exactly
  // best_iteration + 1 + patience trees were built.
  EXPECT_LT(model.NumTrees(), 60u);
  EXPECT_EQ(model.NumTrees(),
            static_cast<size_t>(eval.best_iteration + 1 +
                                eval.early_stopping_rounds));
}

TEST(EvalSetTest, RegressionUsesRmse) {
  SyntheticSpec spec;
  spec.rows = 1000;
  spec.features = 8;
  spec.label = LabelKind::kRegression;
  spec.seed = 813;
  const Dataset all = GenerateSynthetic(spec);
  const Dataset train = all.Slice(0, 800);
  const Dataset valid = all.Slice(800, 1000);
  TrainParams p = Fast(10);
  p.objective = ObjectiveKind::kSquaredError;
  EvalSet eval;
  eval.data = &valid;
  GbdtTrainer(p).Train(train, nullptr, {}, &eval);
  ASSERT_FALSE(eval.history.empty());
  const std::vector<double> direct_rmse = eval.history;
  EXPECT_LT(direct_rmse.back(), direct_rmse.front());
}

TEST(EvalSetTest, MetricResolutionOrder) {
  const Dataset all = Learnable(1200);
  const Dataset train = all.Slice(0, 1000);
  const Dataset valid = all.Slice(1000, 1200);
  TrainParams p = Fast(3);

  // Default: derived from the objective.
  EvalSet by_default;
  by_default.data = &valid;
  GbdtTrainer(p).Train(train, nullptr, {}, &by_default);
  EXPECT_EQ(by_default.metric_name, "logloss");
  EXPECT_FALSE(by_default.higher_is_better);

  // params.eval_metric overrides the default.
  TrainParams q = p;
  q.eval_metric = "auc";
  EvalSet by_params;
  by_params.data = &valid;
  GbdtTrainer(q).Train(train, nullptr, {}, &by_params);
  EXPECT_EQ(by_params.metric_name, "auc");
  EXPECT_TRUE(by_params.higher_is_better);

  // EvalSet.metric overrides both.
  EvalSet by_eval;
  by_eval.data = &valid;
  by_eval.metric = "error";
  GbdtTrainer(q).Train(train, nullptr, {}, &by_eval);
  EXPECT_EQ(by_eval.metric_name, "error");
  EXPECT_FALSE(by_eval.higher_is_better);
}

TEST(EvalSetTest, AucHistoryTracksMaximum) {
  const Dataset all = Learnable(3000);
  const Dataset train = all.Slice(0, 2400);
  const Dataset valid = all.Slice(2400, 3000);
  TrainParams p = Fast(12);
  EvalSet eval;
  eval.data = &valid;
  eval.metric = "auc";
  GbdtTrainer(p).Train(train, nullptr, {}, &eval);
  ASSERT_EQ(eval.history.size(), 12u);
  EXPECT_TRUE(eval.higher_is_better);
  // AUC improves on separable data and best_* track the MAXIMUM.
  EXPECT_GT(eval.history.back(), eval.history.front());
  const double max_seen =
      *std::max_element(eval.history.begin(), eval.history.end());
  EXPECT_DOUBLE_EQ(eval.best_metric, max_seen);
  EXPECT_DOUBLE_EQ(eval.history[static_cast<size_t>(eval.best_iteration)],
                   max_seen);
}

TEST(EvalSetTest, AucEarlyStoppingStopsWhenAucStopsRising) {
  // Regression test for direction-aware stopping: with a higher-is-better
  // metric, training must continue while the metric RISES (a loss-style
  // "stop on no decrease" rule would bail out after one round) and stop
  // only after `rounds` iterations without a new maximum.
  SyntheticSpec spec;
  spec.rows = 600;
  spec.features = 10;
  spec.margin_scale = 0.8;  // noisy: validation AUC plateaus early
  spec.seed = 821;
  const Dataset all = GenerateSynthetic(spec);
  const Dataset train = all.Slice(0, 400);
  const Dataset valid = all.Slice(400, 600);

  TrainParams p = Fast(60);
  p.tree_size = 5;
  EvalSet eval;
  eval.data = &valid;
  eval.metric = "auc";
  eval.early_stopping_rounds = 5;
  const GbdtModel model = GbdtTrainer(p).Train(train, nullptr, {}, &eval);
  EXPECT_LT(model.NumTrees(), 60u);
  EXPECT_EQ(model.NumTrees(),
            static_cast<size_t>(eval.best_iteration + 1 +
                                eval.early_stopping_rounds));
  // The run must have gone past the first iteration: AUC rose at least
  // once before plateauing.
  EXPECT_GT(eval.best_iteration, 0);
  for (int i = 0; i <= eval.best_iteration; ++i) {
    EXPECT_LE(eval.history[static_cast<size_t>(i)], eval.best_metric);
  }
}

// ---------- feature importance ----------

TEST(Importance, ActiveFeaturesDominate) {
  const Dataset train = Learnable(3000);
  const GbdtModel model = GbdtTrainer(Fast(15)).Train(train);
  const FeatureImportance importance =
      ComputeImportance(model, train.num_features());
  // Features 0..3 carry the label signal; they should hold most gain.
  double active_gain = 0.0;
  double total_gain = 0.0;
  for (uint32_t f = 0; f < importance.num_features(); ++f) {
    total_gain += importance.total_gain[f];
    if (f < 4) active_gain += importance.total_gain[f];
  }
  ASSERT_GT(total_gain, 0.0);
  EXPECT_GT(active_gain / total_gain, 0.6);
  const auto top = TopFeaturesByGain(importance, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_LT(top[0], 4u);
}

TEST(Importance, CountsMatchTreeNodes) {
  const Dataset train = Learnable(1000);
  const GbdtModel model = GbdtTrainer(Fast(5)).Train(train);
  const FeatureImportance importance =
      ComputeImportance(model, train.num_features());
  int64_t expected_splits = 0;
  for (const RegTree& tree : model.trees()) {
    expected_splits += tree.NumLeaves() - 1;
  }
  int64_t counted = 0;
  for (int64_t c : importance.split_count) counted += c;
  EXPECT_EQ(counted, expected_splits);
}

TEST(Importance, FormatListsTopK) {
  const Dataset train = Learnable(800);
  const GbdtModel model = GbdtTrainer(Fast(3)).Train(train);
  const FeatureImportance importance =
      ComputeImportance(model, train.num_features());
  const std::string table = FormatImportance(importance, 3);
  EXPECT_NE(table.find("gain"), std::string::npos);
  // Header + 3 rows.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 4);
}

// ---------- binned batch prediction ----------

TEST(BinnedPredict, MatchesRawPrediction) {
  const Dataset train = Learnable(1500);
  const Dataset test = Learnable(500, 802);
  const GbdtModel model = GbdtTrainer(Fast(8)).Train(train);

  const BinnedMatrix binned = model.BinDataset(test);
  const std::vector<double> raw = model.PredictMargins(test);
  const std::vector<double> fast =
      Predictor(*model.FlatSnapshot()).PredictMargins(binned);
  ASSERT_EQ(raw.size(), fast.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_DOUBLE_EQ(raw[i], fast[i]) << "row " << i;
  }
}

TEST(BinnedPredict, ParallelMatchesSerial) {
  const Dataset train = Learnable(1200);
  const GbdtModel model = GbdtTrainer(Fast(5)).Train(train);
  const BinnedMatrix binned = model.BinDataset(train);
  ThreadPool pool(4);
  const Predictor predictor(*model.FlatSnapshot());
  EXPECT_EQ(predictor.PredictMargins(binned),
            predictor.PredictMargins(binned, &pool));
}

TEST(BinnedPredict, TruncatedEnsemble) {
  const Dataset train = Learnable(800);
  const GbdtModel model = GbdtTrainer(Fast(6)).Train(train);
  const BinnedMatrix binned = model.BinDataset(train);
  const Predictor predictor(*model.FlatSnapshot());
  const auto all6 = predictor.PredictMargins(binned);
  const auto first3 = predictor.PredictMargins(binned, nullptr, 3);
  // Margins with fewer trees differ and equal the raw truncated path.
  const auto raw3 = model.PredictMargins(train, nullptr, 3);
  EXPECT_NE(all6, first3);
  for (size_t i = 0; i < first3.size(); ++i) {
    EXPECT_DOUBLE_EQ(first3[i], raw3[i]);
  }
}

}  // namespace
}  // namespace harp
