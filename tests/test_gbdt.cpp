// End-to-end boosting tests: learning works across every mode/policy, the
// incremental margins equal full model re-prediction, callbacks fire,
// training is deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>

#include "common/random.h"
#include "common/stats.h"
#include "core/gbdt.h"
#include "core/metrics.h"
#include "core/objective.h"
#include "data/synthetic.h"
#include "test_util.h"

namespace harp {
namespace {

Dataset LearnableData(uint32_t rows, uint64_t seed = 301) {
  SyntheticSpec spec;
  spec.rows = rows;
  spec.features = 12;
  spec.density = 0.9;
  spec.mean_distinct = 40;
  spec.active_features = 6;
  spec.margin_scale = 3.0;  // quite separable
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

TrainParams FastParams() {
  TrainParams p;
  p.num_trees = 15;
  p.tree_size = 4;
  p.grow_policy = GrowPolicy::kTopK;
  p.topk = 8;
  p.num_threads = 2;
  return p;
}

struct ModePolicy {
  ParallelMode mode;
  GrowPolicy policy;
};

class EndToEnd : public ::testing::TestWithParam<ModePolicy> {};

TEST_P(EndToEnd, LearnsSeparableData) {
  // Held-out split of ONE generated problem (a different seed would be a
  // different learning task, not a test set).
  const Dataset all = LearnableData(4000);
  const Dataset train = all.Slice(0, 3000);
  const Dataset test = all.Slice(3000, 4000);
  TrainParams p = FastParams();
  p.mode = GetParam().mode;
  p.grow_policy = GetParam().policy;
  GbdtTrainer trainer(p);
  const GbdtModel model = trainer.Train(train);
  EXPECT_EQ(model.NumTrees(), 15u);
  const double train_auc = Auc(train.labels(), model.Predict(train));
  const double test_auc = Auc(test.labels(), model.Predict(test));
  EXPECT_GT(train_auc, 0.85) << ToString(p.mode) << "/"
                             << ToString(p.grow_policy);
  EXPECT_GT(test_auc, 0.80);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndPolicies, EndToEnd,
    ::testing::Values(
        ModePolicy{ParallelMode::kDP, GrowPolicy::kDepthwise},
        ModePolicy{ParallelMode::kDP, GrowPolicy::kLeafwise},
        ModePolicy{ParallelMode::kMP, GrowPolicy::kTopK},
        ModePolicy{ParallelMode::kSYNC, GrowPolicy::kTopK},
        ModePolicy{ParallelMode::kASYNC, GrowPolicy::kTopK},
        ModePolicy{ParallelMode::kASYNC, GrowPolicy::kLeafwise}),
    [](const ::testing::TestParamInfo<ModePolicy>& info) {
      return ToString(info.param.mode) + "_" + ToString(info.param.policy);
    });

TEST(Gbdt, LossDecreasesOverIterations) {
  const Dataset train = LearnableData(2000);
  TrainParams p = FastParams();
  p.num_trees = 20;
  GbdtTrainer trainer(p);
  std::vector<double> losses;
  trainer.Train(train, nullptr, [&](const IterationInfo& info) {
    std::vector<double> probs(info.margins.size());
    for (size_t i = 0; i < probs.size(); ++i) {
      probs[i] = 1.0 / (1.0 + std::exp(-info.margins[i]));
    }
    losses.push_back(LogLoss(train.labels(), probs));
  });
  ASSERT_EQ(losses.size(), 20u);
  EXPECT_LT(losses.back(), losses.front() * 0.8);
  // Monotone non-increasing within tolerance (boosting on train loss).
  for (size_t i = 1; i < losses.size(); ++i) {
    EXPECT_LE(losses[i], losses[i - 1] + 1e-9);
  }
}

TEST(Gbdt, IncrementalMarginsEqualModelPrediction) {
  const Dataset train = LearnableData(1200);
  TrainParams p = FastParams();
  p.num_trees = 8;
  GbdtTrainer trainer(p);
  std::vector<double> final_margins;
  const GbdtModel model =
      trainer.Train(train, nullptr, [&](const IterationInfo& info) {
        if (info.iteration == p.num_trees - 1) {
          final_margins = info.margins;
        }
      });
  const std::vector<double> predicted = model.PredictMargins(train);
  ASSERT_EQ(final_margins.size(), predicted.size());
  for (size_t i = 0; i < predicted.size(); ++i) {
    // Raw prediction re-walks trees with float cuts; must agree closely.
    EXPECT_NEAR(final_margins[i], predicted[i], 1e-9) << "row " << i;
  }
}

TEST(Gbdt, DeterministicAcrossRunsAndThreads) {
  const Dataset train = LearnableData(1500);
  TrainParams p = FastParams();
  p.num_trees = 5;
  p.mode = ParallelMode::kSYNC;

  auto run = [&](int threads) {
    TrainParams q = p;
    q.num_threads = threads;
    GbdtTrainer trainer(q);
    return trainer.Train(train);
  };
  const GbdtModel a = run(1);
  const GbdtModel b = run(1);
  const GbdtModel c = run(4);
  ASSERT_EQ(a.NumTrees(), b.NumTrees());
  for (size_t t = 0; t < a.NumTrees(); ++t) {
    EXPECT_TRUE(harp::testing::TreesEqual(a.tree(t), b.tree(t)));
    EXPECT_TRUE(harp::testing::TreesEqual(a.tree(t), c.tree(t)));
  }
}

// Regression guard for the specialized BuildHist kernels and the DP
// replica lifecycle: repeated trainings with a fixed seed must produce
// bit-identical trees AND predictions, in both the replica-reducing DP
// mode and the shared-histogram MP mode, single- and multi-threaded.
class DeterministicMode : public ::testing::TestWithParam<ParallelMode> {};

TEST_P(DeterministicMode, RepeatTrainingIsBitIdentical) {
  const Dataset train = LearnableData(1500);
  TrainParams p = FastParams();
  p.num_trees = 5;
  p.mode = GetParam();

  auto run = [&](int threads) {
    TrainParams q = p;
    q.num_threads = threads;
    GbdtTrainer trainer(q);
    return trainer.Train(train);
  };
  const GbdtModel a = run(2);
  const GbdtModel b = run(2);
  const GbdtModel c = run(1);
  ASSERT_EQ(a.NumTrees(), b.NumTrees());
  ASSERT_EQ(a.NumTrees(), c.NumTrees());
  for (size_t t = 0; t < a.NumTrees(); ++t) {
    EXPECT_TRUE(harp::testing::TreesEqual(a.tree(t), b.tree(t)))
        << "tree " << t << " differs between identical runs";
    EXPECT_TRUE(harp::testing::TreesEqual(a.tree(t), c.tree(t)))
        << "tree " << t << " differs across thread counts";
  }
  const std::vector<double> pa = a.Predict(train);
  const std::vector<double> pb = b.Predict(train);
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i], pb[i]) << "prediction " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(DpAndMp, DeterministicMode,
                         ::testing::Values(ParallelMode::kDP,
                                           ParallelMode::kMP),
                         [](const ::testing::TestParamInfo<ParallelMode>& i) {
                           return ToString(i.param);
                         });

TEST(Gbdt, TrainBinnedMatchesTrain) {
  const Dataset train = LearnableData(1000);
  TrainParams p = FastParams();
  p.num_trees = 4;
  GbdtTrainer trainer(p);
  const GbdtModel a = trainer.Train(train);

  ThreadPool pool(2);
  const BinnedMatrix matrix = BinnedMatrix::Build(
      train, QuantileCuts::Compute(train, p.max_bins, &pool), &pool);
  const GbdtModel b = trainer.TrainBinned(matrix, train.labels());
  ASSERT_EQ(a.NumTrees(), b.NumTrees());
  for (size_t t = 0; t < a.NumTrees(); ++t) {
    EXPECT_TRUE(harp::testing::TreesEqual(a.tree(t), b.tree(t)));
  }
}

TEST(Gbdt, RegressionReducesRmse) {
  SyntheticSpec spec;
  spec.rows = 2000;
  spec.features = 10;
  spec.label = LabelKind::kRegression;
  spec.margin_scale = 3.0;
  spec.seed = 401;
  const Dataset train = GenerateSynthetic(spec);

  TrainParams p = FastParams();
  p.objective = ObjectiveKind::kSquaredError;
  p.num_trees = 25;
  p.base_score = 0.5;
  GbdtTrainer trainer(p);
  const GbdtModel model = trainer.Train(train);
  const double rmse = Rmse(train.labels(), model.Predict(train));

  // Baseline: predicting the mean.
  RunningStats stats;
  for (float y : train.labels()) stats.Add(y);
  EXPECT_LT(rmse, stats.Stddev() * 0.8);
}

TEST(Gbdt, StatsAccumulateAcrossTrees) {
  const Dataset train = LearnableData(800);
  TrainParams p = FastParams();
  p.num_trees = 6;
  TrainStats stats;
  GbdtTrainer trainer(p);
  trainer.Train(train, &stats);
  EXPECT_EQ(stats.trees, 6);
  EXPECT_EQ(stats.tree_seconds.size(), 6u);
  EXPECT_GT(stats.wall_ns, 0);
  EXPECT_GT(stats.gradient_ns, 0);
  EXPECT_GT(stats.update_ns, 0);
  EXPECT_GT(stats.sync.parallel_regions, 0);
  EXPECT_FALSE(stats.Report().empty());
}

TEST(Gbdt, CallbackSeesEveryIteration) {
  const Dataset train = LearnableData(500);
  TrainParams p = FastParams();
  p.num_trees = 7;
  int calls = 0;
  GbdtTrainer trainer(p);
  trainer.Train(train, nullptr, [&](const IterationInfo& info) {
    EXPECT_EQ(info.iteration, calls);
    EXPECT_TRUE(info.tree.CheckValid());
    EXPECT_GE(info.tree_seconds, 0.0);
    ++calls;
  });
  EXPECT_EQ(calls, 7);
}

// ---------- logistic oracle: the refactor must not move a single bit ----

// The pre-refactor trainer computed logistic gradients inline as
//   p = 1/(1+exp(-m)); g = (float)(p - y); h = (float)max(p(1-p), 1e-16)
// over a parallel row loop. The registry objective must reproduce those
// bits exactly for any margins, so every logistic model (and therefore
// its AUC) is unchanged by the objective/metric refactor.
TEST(Gbdt, LogisticGradientsBitIdenticalToPreRefactorFormula) {
  Rng rng(23);
  const size_t n = 20000;
  std::vector<float> labels(n);
  std::vector<double> margins(n);
  for (size_t i = 0; i < n; ++i) {
    labels[i] = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
    margins[i] = rng.Uniform(-6.0, 6.0);
  }
  std::vector<GradientPair> oracle(n);
  for (size_t i = 0; i < n; ++i) {
    const double p = 1.0 / (1.0 + std::exp(-margins[i]));
    oracle[i] = GradientPair{
        static_cast<float>(p - labels[i]),
        static_cast<float>(std::max(p * (1.0 - p), 1e-16))};
  }
  const auto obj = Objective::Create(ObjectiveKind::kLogistic);
  ThreadPool pool(4);
  std::vector<GradientPair> got;
  obj->ComputeGradients(labels, margins, &got, &pool);
  ASSERT_EQ(got.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i].g, oracle[i].g) << "row " << i;
    EXPECT_EQ(got[i].h, oracle[i].h) << "row " << i;
  }
}

TEST(Gbdt, EvalPathDoesNotPerturbTrainingAndAucDeltaIsZero) {
  const Dataset all = LearnableData(3000);
  const Dataset train = all.Slice(0, 2400);
  const Dataset valid = all.Slice(2400, 3000);
  TrainParams p = FastParams();

  const GbdtModel plain = GbdtTrainer(p).Train(train);
  EvalSet eval;
  eval.data = &valid;
  eval.metric = "auc";
  const GbdtModel with_eval = GbdtTrainer(p).Train(train, nullptr, {}, &eval);
  ASSERT_EQ(plain.NumTrees(), with_eval.NumTrees());
  for (size_t t = 0; t < plain.NumTrees(); ++t) {
    EXPECT_TRUE(harp::testing::TreesEqual(plain.tree(t), with_eval.tree(t)))
        << "eval-set evaluation changed tree " << t;
  }
  // AUC on sigmoid-transformed predictions (the registry path) equals AUC
  // on raw margins (the pre-refactor path) with delta exactly 0: sigmoid
  // is strictly monotone, so the rank statistic sees identical orderings.
  const std::vector<double> margins = plain.PredictMargins(valid);
  std::vector<double> probs(margins.size());
  for (size_t i = 0; i < margins.size(); ++i) {
    probs[i] = 1.0 / (1.0 + std::exp(-margins[i]));
  }
  const double auc_margins = Auc(valid.labels(), margins);
  const double auc_probs =
      Metric::Create("auc")->Evaluate(valid.labels(), probs, nullptr);
  EXPECT_EQ(auc_margins - auc_probs, 0.0);
  ASSERT_FALSE(eval.history.empty());
  EXPECT_EQ(eval.history.back(), auc_probs);
}

// ---------- quantile regression ----------

TEST(Gbdt, QuantileCoverageMatchesAlpha) {
  SyntheticSpec spec;
  spec.rows = 6000;
  spec.features = 10;
  spec.label = LabelKind::kRegression;
  spec.margin_scale = 2.0;
  spec.seed = 411;
  const Dataset train = GenerateSynthetic(spec);

  for (double alpha : {0.25, 0.5, 0.9}) {
    TrainParams p = FastParams();
    p.objective = ObjectiveKind::kQuantile;
    p.quantile_alpha = alpha;
    p.base_score = 0.0;
    p.num_trees = 80;
    p.tree_size = 8;
    const GbdtModel model = GbdtTrainer(p).Train(train);
    const std::vector<double> preds = model.Predict(train);
    double covered = 0.0;
    for (size_t i = 0; i < preds.size(); ++i) {
      if (static_cast<double>(train.labels()[i]) <= preds[i]) covered += 1.0;
    }
    const double coverage = covered / static_cast<double>(preds.size());
    // An alpha-quantile fit leaves ~alpha of the labels at or below the
    // prediction.
    EXPECT_NEAR(coverage, alpha, 0.02) << "alpha=" << alpha;
  }
}

TEST(Gbdt, QuantileTailsBracketTheMedian) {
  SyntheticSpec spec;
  spec.rows = 3000;
  spec.features = 8;
  spec.label = LabelKind::kRegression;
  spec.seed = 413;
  const Dataset train = GenerateSynthetic(spec);
  auto fit = [&](double alpha) {
    TrainParams p = FastParams();
    p.objective = ObjectiveKind::kQuantile;
    p.quantile_alpha = alpha;
    p.base_score = 0.0;
    p.num_trees = 40;
    return GbdtTrainer(p).Train(train).Predict(train);
  };
  const auto lo = fit(0.1);
  const auto mid = fit(0.5);
  const auto hi = fit(0.9);
  double lo_below = 0.0;
  double hi_above = 0.0;
  for (size_t i = 0; i < mid.size(); ++i) {
    if (lo[i] <= mid[i]) lo_below += 1.0;
    if (hi[i] >= mid[i]) hi_above += 1.0;
  }
  // Quantile bands keep their order for the vast majority of rows.
  EXPECT_GT(lo_below / mid.size(), 0.95);
  EXPECT_GT(hi_above / mid.size(), 0.95);
}

// ---------- Poisson regression ----------

Dataset CountData(uint32_t rows, uint64_t seed) {
  // Count labels from a log-linear rate over dense features.
  SyntheticSpec spec;
  spec.rows = rows;
  spec.features = 8;
  spec.label = LabelKind::kRegression;
  spec.margin_scale = 1.0;
  spec.seed = seed;
  const Dataset base = GenerateSynthetic(spec);
  std::vector<float> counts(base.num_rows());
  Rng rng(seed ^ 0xC04A7ULL);
  for (uint32_t r = 0; r < base.num_rows(); ++r) {
    // Rate in [~0.3, ~8]; draw a deterministic pseudo-Poisson count by
    // rounding rate + noise (the objective only needs y >= 0 with
    // E[y|x] = exp(f(x))-shaped structure, not exact Poisson sampling).
    const double rate = std::exp(
        std::clamp(static_cast<double>(base.labels()[r]) * 0.5, -1.2, 2.1));
    const double noisy = rate + rng.Normal() * std::sqrt(rate);
    counts[r] = static_cast<float>(std::max(0.0, std::round(noisy)));
  }
  return Dataset::FromDense(base.num_rows(), base.num_features(),
                            std::vector<float>(base.dense_values()),
                            std::move(counts));
}

TEST(Gbdt, PoissonDevianceDecreasesMonotonicallyEarly) {
  const Dataset train = CountData(4000, 417);
  TrainParams p = FastParams();
  p.objective = ObjectiveKind::kPoisson;
  p.base_score = 1.0;
  p.num_trees = 25;
  p.tree_size = 6;
  std::vector<double> deviance;
  GbdtTrainer(p).Train(train, nullptr, [&](const IterationInfo& info) {
    std::vector<double> rates(info.margins.size());
    for (size_t i = 0; i < rates.size(); ++i) {
      rates[i] = std::exp(info.margins[i]);
    }
    deviance.push_back(MeanPoissonDeviance(train.labels(), rates));
  });
  ASSERT_EQ(deviance.size(), 25u);
  // Boosting on the train set: deviance decreases monotonically over the
  // early iterations (the acceptance window) and substantially overall.
  for (size_t i = 1; i < 10; ++i) {
    EXPECT_LT(deviance[i], deviance[i - 1]) << "iteration " << i;
  }
  EXPECT_LT(deviance.back(), deviance.front() * 0.9);
}

TEST(Gbdt, PoissonPredictionsAreRatesNearTheMean) {
  const Dataset train = CountData(3000, 419);
  TrainParams p = FastParams();
  p.objective = ObjectiveKind::kPoisson;
  p.base_score = 1.0;
  p.num_trees = 30;
  const GbdtModel model = GbdtTrainer(p).Train(train);
  const std::vector<double> rates = model.Predict(train);
  double label_mean = 0.0;
  double rate_mean = 0.0;
  for (size_t i = 0; i < rates.size(); ++i) {
    EXPECT_GT(rates[i], 0.0);  // exp link: rates are strictly positive
    label_mean += train.labels()[i];
    rate_mean += rates[i];
  }
  label_mean /= static_cast<double>(rates.size());
  rate_mean /= static_cast<double>(rates.size());
  EXPECT_NEAR(rate_mean, label_mean, 0.15 * label_mean);
}

// ---------- LambdaRank ----------

TEST(Gbdt, LambdaRankBeatsPointwiseLogisticOnNdcg) {
  RankingSpec spec;
  spec.num_queries = 400;
  spec.seed = 97;
  const Dataset all = GenerateRankingSynthetic(spec);
  ASSERT_TRUE(all.has_groups());
  // Split on a query boundary so both halves keep whole groups.
  const uint32_t split_group = 320;
  const uint32_t split_row = all.group_ptr()[split_group];
  const Dataset train = all.Slice(0, split_row);
  const Dataset test = all.Slice(split_row, all.num_rows());
  ASSERT_TRUE(train.has_groups());
  ASSERT_TRUE(test.has_groups());
  ASSERT_EQ(train.num_groups(), split_group);

  TrainParams rank_params = FastParams();
  rank_params.objective = ObjectiveKind::kLambdaRank;
  rank_params.ndcg_k = 10;
  rank_params.num_trees = 120;
  rank_params.tree_size = 16;
  const GbdtModel ranker = GbdtTrainer(rank_params).Train(train);

  // Pointwise baseline: same rows, relevance binarized at grade >= 3 and
  // fit with plain logistic loss (no query structure).
  std::vector<float> binary(train.num_rows());
  for (uint32_t r = 0; r < train.num_rows(); ++r) {
    binary[r] = train.labels()[r] >= 3.0f ? 1.0f : 0.0f;
  }
  const Dataset pointwise_train = Dataset::FromDense(
      train.num_rows(), train.num_features(),
      std::vector<float>(train.dense_values()), std::move(binary));
  TrainParams point_params = FastParams();
  point_params.num_trees = 120;
  point_params.tree_size = 16;
  const GbdtModel pointwise = GbdtTrainer(point_params).Train(pointwise_train);

  const double ndcg_rank = NdcgAtK(test.labels(), ranker.PredictMargins(test),
                                   test.group_ptr(), 10);
  const double ndcg_point =
      NdcgAtK(test.labels(), pointwise.PredictMargins(test),
              test.group_ptr(), 10);
  std::printf("ndcg@10: lambdarank %.4f, pointwise %.4f\n", ndcg_rank,
              ndcg_point);
  // The list-wise loss must exploit the graded relevance (4 vs 3) that
  // binarization erases.
  EXPECT_GT(ndcg_rank, ndcg_point + 0.005)
      << "lambdarank " << ndcg_rank << " vs pointwise " << ndcg_point;
  EXPECT_GT(ndcg_rank, 0.6);
}

TEST(Gbdt, LambdaRankTrainingIsThreadCountInvariant) {
  RankingSpec spec;
  spec.num_queries = 120;
  spec.seed = 101;
  const Dataset train = GenerateRankingSynthetic(spec);
  TrainParams p = FastParams();
  p.objective = ObjectiveKind::kLambdaRank;
  p.num_trees = 6;
  auto run = [&](int threads) {
    TrainParams q = p;
    q.num_threads = threads;
    return GbdtTrainer(q).Train(train);
  };
  const GbdtModel a = run(1);
  const GbdtModel b = run(4);
  ASSERT_EQ(a.NumTrees(), b.NumTrees());
  for (size_t t = 0; t < a.NumTrees(); ++t) {
    EXPECT_TRUE(harp::testing::TreesEqual(a.tree(t), b.tree(t)))
        << "tree " << t << " differs across thread counts";
  }
}

TEST(Gbdt, LambdaRankImprovesTrainNdcgOverIterations) {
  RankingSpec spec;
  spec.num_queries = 200;
  spec.seed = 103;
  const Dataset train = GenerateRankingSynthetic(spec);
  TrainParams p = FastParams();
  p.objective = ObjectiveKind::kLambdaRank;
  p.num_trees = 30;
  p.tree_size = 8;
  std::vector<double> ndcg;
  GbdtTrainer(p).Train(train, nullptr, [&](const IterationInfo& info) {
    ndcg.push_back(
        NdcgAtK(train.labels(), info.margins, train.group_ptr(), 10));
  });
  ASSERT_EQ(ndcg.size(), 30u);
  EXPECT_GT(ndcg.back(), ndcg.front() + 0.05);
}

TEST(GbdtDeath, LambdaRankWithoutGroupsRejected) {
  const Dataset train = LearnableData(500);
  TrainParams p = FastParams();
  p.objective = ObjectiveKind::kLambdaRank;
  p.num_trees = 2;
  GbdtTrainer trainer(p);
  EXPECT_DEATH(trainer.Train(train), "query groups");
}

TEST(Gbdt, SparseAndDenseInputsTrainEquivalently) {
  SyntheticSpec spec;
  spec.rows = 1200;
  spec.features = 20;
  spec.density = 0.5;
  spec.seed = 501;
  spec.sparse_storage = false;
  const Dataset dense = GenerateSynthetic(spec);
  spec.sparse_storage = true;
  const Dataset sparse = GenerateSynthetic(spec);

  TrainParams p = FastParams();
  p.num_trees = 4;
  GbdtTrainer trainer(p);
  const GbdtModel a = trainer.Train(dense);
  const GbdtModel b = trainer.Train(sparse);
  for (size_t t = 0; t < a.NumTrees(); ++t) {
    EXPECT_TRUE(harp::testing::TreesEqual(a.tree(t), b.tree(t)));
  }
}

// ---------- TrainParams::Check: one case per rule ----------

struct BrokenRule {
  const char* name;
  std::function<void(TrainParams*)> brk;
  const char* message;  // what Check() must say
};

class ParamsCheck : public ::testing::TestWithParam<BrokenRule> {};

TEST_P(ParamsCheck, NamesTheBrokenRule) {
  TrainParams p;
  ASSERT_EQ(p.Check(), "") << "the defaults break no rule";
  GetParam().brk(&p);
  EXPECT_NE(p.Check().find(GetParam().message), std::string::npos)
      << "Check() said: " << p.Check();
}

INSTANTIATE_TEST_SUITE_P(
    EveryRule, ParamsCheck,
    ::testing::Values(
        BrokenRule{"num_trees", [](TrainParams* p) { p->num_trees = 0; },
                   "num_trees must be >= 1, got 0"},
        BrokenRule{"learning_rate",
                   [](TrainParams* p) { p->learning_rate = 0.0; },
                   "learning_rate must be > 0"},
        BrokenRule{"learning_rate_nan",
                   [](TrainParams* p) {
                     p->learning_rate =
                         std::numeric_limits<double>::quiet_NaN();
                   },
                   "learning_rate must be > 0"},
        BrokenRule{"reg_lambda", [](TrainParams* p) { p->reg_lambda = -1; },
                   "reg_lambda must be >= 0"},
        BrokenRule{"min_split_loss",
                   [](TrainParams* p) { p->min_split_loss = -1; },
                   "min_split_loss must be >= 0"},
        BrokenRule{"min_child_weight",
                   [](TrainParams* p) { p->min_child_weight = -1; },
                   "min_child_weight must be >= 0"},
        BrokenRule{"base_score_logistic",
                   [](TrainParams* p) { p->base_score = 1.0; },
                   "base_score must be in (0, 1) for the logistic"},
        BrokenRule{"base_score_poisson",
                   [](TrainParams* p) {
                     p->objective = ObjectiveKind::kPoisson;
                     p->base_score = 0.0;
                   },
                   "base_score must be > 0 for the poisson"},
        BrokenRule{"quantile_alpha",
                   [](TrainParams* p) { p->quantile_alpha = 1.0; },
                   "quantile_alpha must be in (0, 1)"},
        BrokenRule{"max_delta_step",
                   [](TrainParams* p) { p->max_delta_step = -0.5; },
                   "max_delta_step must be >= 0"},
        BrokenRule{"ndcg_k", [](TrainParams* p) { p->ndcg_k = 0; },
                   "ndcg_k must be >= 1"},
        BrokenRule{"max_bins_low", [](TrainParams* p) { p->max_bins = 1; },
                   "max_bins must be in [2, 256], got 1"},
        BrokenRule{"max_bins_high", [](TrainParams* p) { p->max_bins = 257; },
                   "max_bins must be in [2, 256], got 257"},
        BrokenRule{"tree_size_low", [](TrainParams* p) { p->tree_size = 0; },
                   "tree_size must be in [1, 24], got 0"},
        BrokenRule{"tree_size_high", [](TrainParams* p) { p->tree_size = 99; },
                   "tree_size must be in [1, 24], got 99"},
        BrokenRule{"topk", [](TrainParams* p) { p->topk = 0; },
                   "topk must be >= 1"},
        BrokenRule{"num_threads", [](TrainParams* p) { p->num_threads = -1; },
                   "num_threads must be >= 0"},
        BrokenRule{"row_blk_size",
                   [](TrainParams* p) { p->row_blk_size = -1; },
                   "row_blk_size must be >= 0"},
        BrokenRule{"node_blk_size",
                   [](TrainParams* p) { p->node_blk_size = -1; },
                   "node_blk_size must be >= 0"},
        BrokenRule{"feature_blk_size",
                   [](TrainParams* p) { p->feature_blk_size = -1; },
                   "feature_blk_size must be >= 0"},
        BrokenRule{"subsample", [](TrainParams* p) { p->subsample = 0.0; },
                   "subsample must be in (0, 1], got 0"},
        BrokenRule{"colsample_bytree",
                   [](TrainParams* p) { p->colsample_bytree = 1.5; },
                   "colsample_bytree must be in (0, 1], got 1.5"},
        BrokenRule{"simd", [](TrainParams* p) { p->simd = "sse"; },
                   "simd must be auto|scalar|avx2, got 'sse'"},
        BrokenRule{"quantize_async",
                   [](TrainParams* p) {
                     p->quantize_hist = true;
                     p->mode = ParallelMode::kASYNC;
                   },
                   "quantize_hist is not supported in ASYNC mode"},
        BrokenRule{"comm_compress",
                   [](TrainParams* p) { p->comm_compress = "zip"; },
                   "comm_compress must be dense|sparse, got 'zip'"}),
    [](const ::testing::TestParamInfo<BrokenRule>& info) {
      return std::string(info.param.name);
    });

TEST(ParamsCheck, AcceptsTheEdgesOfEachRange) {
  TrainParams p;
  p.tree_size = 24;
  p.subsample = 1.0;
  p.colsample_bytree = 1.0;
  p.max_bins = 2;
  p.num_threads = 0;
  p.objective = ObjectiveKind::kSquaredError;
  p.base_score = -3.0;  // a raw margin: any value
  EXPECT_EQ(p.Check(), "");
}

TEST(ParamsCheckDeath, ValidateAbortsWithTheMessage) {
  TrainParams p;
  p.tree_size = 99;
  EXPECT_DEATH(p.Validate(), "tree_size must be in");
}

}  // namespace
}  // namespace harp
