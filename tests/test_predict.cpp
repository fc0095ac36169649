// FlatForest / Predictor tests: bit-identical margins vs the RegTree
// reference oracle (binned and raw, dense and sparse, truncated
// ensembles, short batches), thread-count invariance, and flattening of
// hand-built tree shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>

#include "core/gbdt.h"
#include "parallel/thread_pool.h"
#include "predict/flat_forest.h"
#include "predict/predictor.h"
#include "test_util.h"

namespace harp {
namespace {

using testing::MakeDataset;

TrainParams Params(int trees, int tree_size,
                   ObjectiveKind objective = ObjectiveKind::kLogistic) {
  TrainParams p;
  p.num_trees = trees;
  p.tree_size = tree_size;
  p.num_threads = 2;
  p.objective = objective;
  return p;
}

// Naive reference: base margin + tree-order walk of the AoS RegTrees.
std::vector<double> OracleBinned(const GbdtModel& model,
                                 const BinnedMatrix& matrix,
                                 size_t num_trees = 0) {
  const size_t limit = num_trees == 0
                           ? model.NumTrees()
                           : std::min(num_trees, model.NumTrees());
  std::vector<double> margins(matrix.num_rows());
  for (uint32_t r = 0; r < matrix.num_rows(); ++r) {
    double m = model.base_margin();
    for (size_t t = 0; t < limit; ++t) {
      m += model.tree(t).PredictBinned(matrix.RowBins(r));
    }
    margins[r] = m;
  }
  return margins;
}

std::vector<double> OracleRaw(const GbdtModel& model, const Dataset& dataset,
                              size_t num_trees = 0) {
  const size_t limit = num_trees == 0
                           ? model.NumTrees()
                           : std::min(num_trees, model.NumTrees());
  std::vector<double> margins(dataset.num_rows());
  for (uint32_t r = 0; r < dataset.num_rows(); ++r) {
    double m = model.base_margin();
    for (size_t t = 0; t < limit; ++t) {
      m += model.tree(t).PredictRaw(dataset, r);
    }
    margins[r] = m;
  }
  return margins;
}

// Dense dataset -> CSR copy with the NaN entries dropped.
Dataset ToCsr(const Dataset& dense) {
  std::vector<uint32_t> row_ptr{0};
  std::vector<Entry> entries;
  for (uint32_t r = 0; r < dense.num_rows(); ++r) {
    dense.ForEachInRow(
        r, [&](uint32_t f, float v) { entries.push_back({f, v}); });
    row_ptr.push_back(static_cast<uint32_t>(entries.size()));
  }
  return Dataset::FromCsr(dense.num_rows(), dense.num_features(),
                          std::move(row_ptr), std::move(entries),
                          dense.labels());
}

TEST(FlatForest, LayoutInvariants) {
  const Dataset train = MakeDataset(600, 8, 0.8, 11);
  const GbdtModel model = GbdtTrainer(Params(9, 8)).Train(train);
  const FlatForest flat = model.Flatten();

  ASSERT_EQ(flat.num_trees(), model.NumTrees());
  EXPECT_EQ(flat.num_nodes(), model.TotalNodes());
  EXPECT_EQ(flat.base_margin(), model.base_margin());
  const int32_t* left = flat.left_child();
  const double* leaf = flat.leaf_value();
  for (size_t t = 0; t < flat.num_trees(); ++t) {
    EXPECT_EQ(flat.NodesInTree(t), model.tree(t).num_nodes());
    EXPECT_GE(flat.tree_depth(t), 0);
    std::vector<double> flat_leaves;
    for (int32_t i = flat.tree_offset(t); i < flat.tree_offset(t + 1); ++i) {
      if (left[i] == i) {
        // Leaf: self-loop that every input follows "left".
        EXPECT_EQ(flat.split_bin()[i], 255);
        EXPECT_EQ(flat.split_value()[i],
                  std::numeric_limits<float>::infinity());
        EXPECT_EQ(flat.default_left()[i], 1);
        flat_leaves.push_back(leaf[i]);
      } else {
        // Internal: siblings in consecutive slots inside the same tree.
        EXPECT_GT(left[i], i);
        EXPECT_LT(left[i] + 1, flat.tree_offset(t + 1));
      }
    }
    // The flat leaves are the model's leaves, renumbered.
    std::vector<double> model_leaves;
    for (int n = 0; n < model.tree(t).num_nodes(); ++n) {
      if (model.tree(t).node(n).IsLeaf()) {
        model_leaves.push_back(model.tree(t).node(n).leaf_value);
      }
    }
    std::sort(flat_leaves.begin(), flat_leaves.end());
    std::sort(model_leaves.begin(), model_leaves.end());
    EXPECT_EQ(flat_leaves, model_leaves) << "tree " << t;
  }
}

TEST(Predict, BinnedBitIdenticalToOracle) {
  for (const int tree_size : {2, 8, 24}) {
    for (const int trees : {1, 7, 21}) {
      const Dataset train = MakeDataset(700, 10, 0.75, 100 + tree_size);
      const GbdtModel model =
          GbdtTrainer(Params(trees, tree_size)).Train(train);
      const Dataset test = MakeDataset(400, 10, 0.75, 200 + trees);
      const BinnedMatrix binned = model.BinDataset(test);

      const std::vector<double> oracle = OracleBinned(model, binned);
      const std::vector<double> flat =
          Predictor(*model.FlatSnapshot()).PredictMargins(binned);
      ASSERT_EQ(flat.size(), oracle.size());
      for (size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(flat[i], oracle[i])  // bit-identical, not approximately
            << "row " << i << " trees=" << trees
            << " tree_size=" << tree_size;
      }
    }
  }
}

TEST(Predict, RawBitIdenticalToOracleWithMissing) {
  const Dataset train = MakeDataset(1000, 12, 0.6, 31);  // 40% missing
  const GbdtModel model = GbdtTrainer(Params(17, 8)).Train(train);
  const Dataset test = MakeDataset(500, 12, 0.6, 32);

  const std::vector<double> oracle = OracleRaw(model, test);
  const std::vector<double> flat = model.PredictMargins(test);
  ASSERT_EQ(flat.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(flat[i], oracle[i]) << "row " << i;
  }
}

TEST(Predict, SparseRawBitIdenticalToOracle) {
  const Dataset train = MakeDataset(800, 9, 0.5, 41);
  const GbdtModel model = GbdtTrainer(Params(11, 8)).Train(train);
  const Dataset sparse = ToCsr(MakeDataset(300, 9, 0.5, 42));
  ASSERT_EQ(sparse.layout(), Dataset::Layout::kSparse);

  const std::vector<double> oracle = OracleRaw(model, sparse);
  const std::vector<double> flat = model.PredictMargins(sparse);
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(flat[i], oracle[i]) << "row " << i;
  }
}

TEST(Predict, TruncatedEnsembleBitIdentical) {
  const Dataset train = MakeDataset(700, 8, 0.85, 51);
  const GbdtModel model = GbdtTrainer(Params(10, 8)).Train(train);
  const BinnedMatrix binned = model.BinDataset(train);
  const Predictor predictor(*model.FlatSnapshot());
  for (const size_t limit : {size_t{1}, size_t{4}, size_t{10}, size_t{99}}) {
    const std::vector<double> oracle = OracleBinned(model, binned, limit);
    const std::vector<double> flat =
        predictor.PredictMargins(binned, nullptr, limit);
    for (size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_EQ(flat[i], oracle[i]) << "limit " << limit << " row " << i;
    }
  }
}

TEST(Predict, ThreadCountInvariance) {
  const Dataset train = MakeDataset(1100, 10, 0.8, 71);
  const GbdtModel model = GbdtTrainer(Params(12, 8)).Train(train);
  const BinnedMatrix binned = model.BinDataset(train);
  const Predictor predictor(*model.FlatSnapshot());

  const std::vector<double> serial = predictor.PredictMargins(binned);
  const std::vector<double> serial_raw = model.PredictMargins(train);
  for (const int threads : {1, 2, 5}) {
    ThreadPool pool(threads);
    EXPECT_EQ(predictor.PredictMargins(binned, &pool), serial)
        << threads << " threads (binned)";
    EXPECT_EQ(model.PredictMargins(train, &pool), serial_raw)
        << threads << " threads (raw)";
  }
}

TEST(Predict, EmptyModelYieldsBaseMargin) {
  const Dataset data = MakeDataset(50, 4, 1.0, 91);
  GbdtModel model(ObjectiveKind::kSquaredError, 0.5,
                  QuantileCuts::Compute(data, 16));
  const std::vector<double> margins = model.PredictMargins(data);
  for (double m : margins) EXPECT_EQ(m, 0.5);
}

TEST(Predict, SingleLeafAndChainTrees) {
  const Dataset data = MakeDataset(120, 3, 1.0, 92, /*distinct=*/8);
  QuantileCuts cuts = QuantileCuts::Compute(data, 16);
  GbdtModel model(ObjectiveKind::kSquaredError, 0.0, cuts);

  // Tree 0: bare root leaf (depth 0; the traversal takes zero steps).
  RegTree stump;
  stump.mutable_node(0).leaf_value = 2.5;
  model.AddTree(std::move(stump));

  // Tree 1: left-leaning chain — each split extends the left child, so
  // flattening must renumber (ApplySplit appends children at the end,
  // giving a layout no pre-order walk produces).
  RegTree chain;
  SplitInfo s;
  s.gain = 1.0;
  s.bin = 1;
  s.default_left = false;
  int node = 0;
  for (int d = 0; d < 3; ++d) {
    s.feature = static_cast<uint32_t>(d % data.num_features());
    const auto [l, r] = chain.ApplySplit(node, s, cuts.CutFor(s.feature, 1));
    chain.mutable_node(r).leaf_value = 10.0 * (d + 1);
    node = l;
  }
  chain.mutable_node(node).leaf_value = -7.0;
  ASSERT_TRUE(chain.CheckValid());
  model.AddTree(std::move(chain));

  const BinnedMatrix binned = model.BinDataset(data);
  const std::vector<double> oracle = OracleBinned(model, binned);
  const std::vector<double> flat =
      Predictor(*model.FlatSnapshot()).PredictMargins(binned);
  const std::vector<double> flat_raw = model.PredictMargins(data);
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(flat[i], oracle[i]) << "row " << i;
    EXPECT_EQ(flat_raw[i], OracleRaw(model, data)[i]) << "row " << i;
  }
}

TEST(Predict, AccumulateMarginsMatchesIncrementalOracle) {
  // The boosting driver's eval path: margins grow one tree at a time.
  const Dataset train = MakeDataset(400, 6, 0.9, 93);
  const GbdtModel model = GbdtTrainer(Params(8, 6)).Train(train);
  const FlatForest flat = model.Flatten();
  const Predictor predictor(flat);

  std::vector<double> incremental(train.num_rows(), model.base_margin());
  for (size_t t = 0; t < model.NumTrees(); ++t) {
    predictor.AccumulateMargins(train, incremental.data(), t, t + 1);
  }
  const std::vector<double> oracle = OracleRaw(model, train);
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(incremental[i], oracle[i]) << "row " << i;
  }
}

TEST(Predict, ShortBatchesBitIdenticalToOracle) {
  // A batch of at most kRowBlock rows is one block and runs on the calling
  // thread even with a pool; one row more fans two blocks out. Dense and
  // sparse inputs, with no pool and with pools of 1 and 3 threads, over
  // the whole ensemble and over split tree ranges.
  const Dataset train = MakeDataset(400, 10, 0.8, /*seed=*/19);
  GbdtTrainer trainer(Params(12, 8));
  const GbdtModel model = trainer.Train(train);
  const Predictor predictor(*model.FlatSnapshot());
  const size_t num_trees = model.NumTrees();
  for (const int threads : {0, 1, 3}) {
    std::optional<ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    ThreadPool* const p = pool ? &*pool : nullptr;
    for (uint32_t rows : {1u, 2u, 7u, 63u, Predictor::kRowBlock - 1,
                          Predictor::kRowBlock, Predictor::kRowBlock + 1}) {
      const Dataset batch = MakeDataset(rows, 10, 0.7, /*seed=*/rows);
      const Dataset sparse = ToCsr(batch);
      const std::vector<double> oracle = OracleRaw(model, batch);
      const std::vector<double> dense = predictor.PredictMargins(batch, p);
      const std::vector<double> csr = predictor.PredictMargins(sparse, p);
      // Trees [0, 5) then [5, num_trees): two partial-range plans.
      std::vector<double> split(rows, model.base_margin());
      predictor.AccumulateMargins(batch, split.data(), 0, 5, p);
      predictor.AccumulateMargins(sparse, split.data(), 5, num_trees, p);
      for (uint32_t r = 0; r < rows; ++r) {
        ASSERT_EQ(dense[r], oracle[r])
            << threads << " threads, " << rows << " rows, row " << r;
        ASSERT_EQ(csr[r], oracle[r])
            << threads << " threads, " << rows << " rows, row " << r;
        ASSERT_EQ(split[r], oracle[r])
            << threads << " threads, " << rows << " rows, row " << r;
      }
    }
  }
}

TEST(Predict, AccumulateMarginsDenseMatchesDatasetPath) {
  const Dataset train = MakeDataset(500, 9, 0.8, /*seed=*/31);
  GbdtTrainer trainer(Params(15, 8));
  const GbdtModel model = trainer.Train(train);
  const Predictor predictor(*model.FlatSnapshot());
  const std::vector<double> oracle = OracleRaw(model, train);

  const uint32_t width = train.num_features();
  std::vector<double> margins(train.num_rows(), model.base_margin());
  predictor.AccumulateMarginsDense(train.dense_values().data(),
                                   train.num_rows(), width, margins.data(),
                                   0, model.NumTrees());
  for (uint32_t r = 0; r < train.num_rows(); ++r) {
    ASSERT_EQ(margins[r], oracle[r]) << "row " << r;
  }

  // Truncated tree ranges accumulate too (the serving layer's contract).
  std::vector<double> partial(train.num_rows(), model.base_margin());
  predictor.AccumulateMarginsDense(train.dense_values().data(),
                                   train.num_rows(), width, partial.data(),
                                   0, 4);
  predictor.AccumulateMarginsDense(train.dense_values().data(),
                                   train.num_rows(), width, partial.data(),
                                   4, model.NumTrees());
  for (uint32_t r = 0; r < train.num_rows(); ++r) {
    ASSERT_EQ(partial[r], oracle[r]) << "row " << r;
  }
}

TEST(Predict, FlatSnapshotIsCachedAndInvalidatedOnMutation) {
  const Dataset train = MakeDataset(120, 6, 0.9, /*seed=*/37);
  GbdtTrainer trainer(Params(6, 4));
  GbdtModel model = trainer.Train(train);

  const std::shared_ptr<const FlatForest> first = model.FlatSnapshot();
  EXPECT_EQ(model.FlatSnapshot().get(), first.get());  // cached

  const std::vector<double> before = model.PredictMargins(train);
  GbdtTrainer trainer2(Params(3, 4));
  const GbdtModel extra = trainer2.Train(train);
  model.AddTree(extra.tree(0));  // mutation drops the cache

  const std::shared_ptr<const FlatForest> second = model.FlatSnapshot();
  EXPECT_NE(second.get(), first.get());
  EXPECT_EQ(second->num_trees(), first->num_trees() + 1);
  // The old snapshot stays valid for holders (serving keeps old
  // generations alive across reloads this way).
  EXPECT_EQ(first->num_trees(), static_cast<size_t>(6));

  // Copies share the cache; mutation through mutable_trees invalidates.
  GbdtModel copy = model;
  EXPECT_EQ(copy.FlatSnapshot().get(), second.get());
  copy.mutable_trees();
  EXPECT_NE(copy.FlatSnapshot().get(), second.get());

  const std::vector<double> after = model.PredictMargins(train);
  const std::vector<double> oracle = OracleRaw(model, train);
  for (uint32_t r = 0; r < train.num_rows(); ++r) {
    ASSERT_EQ(after[r], oracle[r]);
    (void)before;
  }
}

}  // namespace
}  // namespace harp
