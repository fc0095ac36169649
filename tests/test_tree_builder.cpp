// Properties of HarpTreeBuilder across the full configuration space:
// DP / MP / SYNC must build IDENTICAL trees regardless of block sizes,
// thread count, MemBuf or the subtraction trick; ASYNC must build valid
// trees of the right size. Budgets and depth limits are enforced.
#include <gtest/gtest.h>

#include <string>

#include "core/gbdt.h"
#include "core/model_io.h"
#include "core/tree_builder.h"
#include "data/synthetic.h"
#include "test_util.h"

namespace harp {
namespace {

using harp::testing::MakeDataset;
using harp::testing::MakeGradients;
using harp::testing::TreesEqual;

struct Env {
  Dataset ds;
  BinnedMatrix matrix;
  std::vector<GradientPair> gh;
};

Env MakeEnv(uint32_t rows = 1500, uint32_t features = 9, uint64_t seed = 7) {
  Dataset ds = MakeDataset(rows, features, 0.85, seed, /*distinct=*/24);
  BinnedMatrix matrix = BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 24));
  auto gh = MakeGradients(rows, seed + 1);
  return Env{std::move(ds), std::move(matrix), std::move(gh)};
}

RegTree BuildWith(const Env& env, TrainParams params, int threads,
                  TrainStats* stats = nullptr) {
  params.num_threads = threads;
  ThreadPool pool(threads);
  HarpTreeBuilder builder(env.matrix, params, pool);
  TrainStats local;
  return builder.BuildTree(env.gh, stats != nullptr ? stats : &local);
}

TrainParams BaseParams(GrowPolicy policy, int tree_size = 5) {
  TrainParams p;
  p.grow_policy = policy;
  p.tree_size = tree_size;
  p.topk = 4;
  p.min_split_loss = 0.0;
  p.min_child_weight = 0.1;
  return p;
}

// ---------- mode/config equivalence sweep ----------

struct ConfigCase {
  ParallelMode mode;
  int feature_blk;
  int node_blk;
  bool membuf;
  bool subtraction;
  int threads;
};

std::string ConfigName(const ::testing::TestParamInfo<ConfigCase>& info) {
  const ConfigCase& c = info.param;
  std::string n = ToString(c.mode);
  n += "_f" + std::to_string(c.feature_blk) + "_n" +
       std::to_string(c.node_blk);
  n += c.membuf ? "_mb" : "_ga";
  n += c.subtraction ? "_sub" : "_dir";
  n += "_t" + std::to_string(c.threads);
  return n;
}

class DeterministicModes : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(DeterministicModes, SameTreeAsSerialReference) {
  const Env env = MakeEnv();
  for (GrowPolicy policy :
       {GrowPolicy::kDepthwise, GrowPolicy::kLeafwise, GrowPolicy::kTopK}) {
    // Reference: serial DP, no blocks, no tricks.
    TrainParams ref = BaseParams(policy);
    ref.mode = ParallelMode::kDP;
    ref.node_blk_size = 1;
    ref.use_hist_subtraction = false;
    const RegTree expected = BuildWith(env, ref, 1);
    ASSERT_TRUE(expected.CheckValid());
    ASSERT_GT(expected.NumLeaves(), 2);

    const ConfigCase& c = GetParam();
    TrainParams p = BaseParams(policy);
    p.mode = c.mode;
    p.feature_blk_size = c.feature_blk;
    p.node_blk_size = c.node_blk;
    p.use_membuf = c.membuf;
    p.use_hist_subtraction = c.subtraction;
    const RegTree actual = BuildWith(env, p, c.threads);
    EXPECT_TRUE(TreesEqual(expected, actual))
        << "policy " << ToString(policy) << " config differs from reference";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeterministicModes,
    ::testing::Values(
        ConfigCase{ParallelMode::kDP, 0, 1, true, false, 4},
        ConfigCase{ParallelMode::kDP, 3, 2, true, false, 4},
        ConfigCase{ParallelMode::kDP, 2, 4, false, false, 2},
        ConfigCase{ParallelMode::kDP, 0, 1, true, true, 4},
        ConfigCase{ParallelMode::kMP, 1, 1, true, false, 4},
        ConfigCase{ParallelMode::kMP, 4, 2, true, false, 3},
        ConfigCase{ParallelMode::kMP, 2, 2, false, false, 4},
        ConfigCase{ParallelMode::kMP, 3, 1, true, true, 4},
        ConfigCase{ParallelMode::kSYNC, 2, 2, true, false, 4},
        ConfigCase{ParallelMode::kSYNC, 0, 4, false, true, 3},
        ConfigCase{ParallelMode::kSYNC, 4, 2, true, false, 2}),
    ConfigName);

// ---------- default node block and subtraction: model identity ----------
//
// The defaults (auto DP node block, in-place subtraction with top-K
// histogram retention) must write the same model bytes as the node_blk 1,
// no-subtraction oracle at any thread count, in DP and SYNC, on the f64
// and the quantized histogram paths.

struct IdentityData {
  std::string name;
  BinnedMatrix matrix;
  std::vector<float> labels;
};

IdentityData MakeIdentityData(const std::string& name,
                              const SyntheticSpec& spec) {
  const Dataset ds = GenerateSynthetic(spec);
  BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 64));
  return IdentityData{name, std::move(matrix), ds.labels()};
}

TrainParams IdentityBase(bool quant) {
  TrainParams p;
  p.num_trees = 3;
  p.tree_size = 6;
  p.topk = 8;
  p.quantize_hist = quant;
  return p;
}

std::string TrainModel(const IdentityData& data, TrainParams p, int threads,
                       TrainStats* stats = nullptr) {
  p.num_threads = threads;
  return SerializeModel(
      GbdtTrainer(p).TrainBinned(data.matrix, data.labels, stats));
}

TrainParams Oracle(TrainParams p) {
  p.mode = ParallelMode::kDP;
  p.node_blk_size = 1;
  p.use_hist_subtraction = false;
  return p;
}

TEST(DefaultBlocking, ModelsMatchUnblockedDirectBuildOracle) {
  const IdentityData datasets[] = {
      MakeIdentityData("HIGGS", HiggsSpec(0.05)),
      MakeIdentityData("CRITEO", CriteoSpec(0.05))};
  for (const IdentityData& data : datasets) {
    for (bool quant : {false, true}) {
      const std::string expect =
          TrainModel(data, Oracle(IdentityBase(quant)), 1);
      for (int node_blk : {1, 0, 32}) {
        for (ParallelMode mode : {ParallelMode::kDP, ParallelMode::kSYNC}) {
          for (int threads : {1, 4}) {
            for (bool subtraction : {false, true}) {
              TrainParams p = IdentityBase(quant);
              p.mode = mode;
              p.node_blk_size = node_blk;
              p.use_hist_subtraction = subtraction;
              TrainStats stats;
              const std::string where =
                  data.name + " quant=" + std::to_string(quant) +
                  " node_blk=" + std::to_string(node_blk) + " " +
                  ToString(mode) + " threads=" + std::to_string(threads) +
                  " sub=" + std::to_string(subtraction);
              EXPECT_EQ(expect, TrainModel(data, p, threads, &stats))
                  << where;
              // The auto block really groups nodes on this data.
              if (node_blk == 0 && mode == ParallelMode::kDP) {
                EXPECT_GT(stats.node_blk, 1u) << where;
              }
            }
          }
        }
      }
    }
  }
}

TEST(DefaultBlocking, SmallKOnLargeTreeEvictsYetKeepsModelAndPeak) {
  const IdentityData data = MakeIdentityData("HIGGS", HiggsSpec(0.1));
  for (bool quant : {false, true}) {
    TrainParams p = IdentityBase(quant);
    p.tree_size = 8;
    p.topk = 2;
    p.min_split_loss = 0.0;
    const std::string expect = TrainModel(data, Oracle(p), 1);
    TrainStats stats;
    EXPECT_EQ(expect, TrainModel(data, p, 4, &stats)) << "quant=" << quant;
    // Candidates released after their step and popped later built both
    // children: more builds than one per split, but the retained ones
    // still saved a build each.
    EXPECT_GT(stats.hist_builds, p.num_trees + stats.nodes_split);
    EXPECT_LT(stats.hist_builds, p.num_trees + 2 * stats.nodes_split);
    // Live histograms: the K retained parents (now larger children) plus
    // the K smaller children, and the root.
    EXPECT_LE(stats.hist_peak_bytes, static_cast<size_t>(2 * p.topk + 1) *
                                         data.matrix.TotalBins() *
                                         sizeof(GHPair));
  }
}

// ---------- ASYNC ----------

class AsyncThreads : public ::testing::TestWithParam<int> {};

TEST_P(AsyncThreads, BuildsValidTreeOfExpectedSize) {
  const Env env = MakeEnv(2500, 8, 23);
  TrainParams p = BaseParams(GrowPolicy::kTopK, 5);
  p.mode = ParallelMode::kASYNC;
  p.topk = 8;
  TrainStats stats;
  const RegTree tree = BuildWith(env, p, GetParam(), &stats);
  EXPECT_TRUE(tree.CheckValid());
  EXPECT_LE(tree.NumLeaves(), 32);
  EXPECT_GT(tree.NumLeaves(), 4);
  // Leaf row counts cover the dataset.
  uint32_t covered = 0;
  for (const TreeNode& n : tree.nodes()) {
    if (n.IsLeaf()) covered += n.num_rows;
  }
  EXPECT_EQ(covered, env.ds.num_rows());
}

INSTANTIATE_TEST_SUITE_P(Threads, AsyncThreads, ::testing::Values(1, 2, 4));

TEST(Async, SingleThreadMatchesLeafwiseReference) {
  // With one worker the greedy pop order is exactly leafwise top-1, so the
  // ASYNC tree must equal the deterministic leafwise tree.
  const Env env = MakeEnv(1200, 7, 31);
  TrainParams ref = BaseParams(GrowPolicy::kLeafwise, 4);
  ref.mode = ParallelMode::kDP;
  ref.node_blk_size = 1;
  ref.use_hist_subtraction = false;
  const RegTree expected = BuildWith(env, ref, 1);

  TrainParams p = BaseParams(GrowPolicy::kLeafwise, 4);
  p.mode = ParallelMode::kASYNC;
  const RegTree actual = BuildWith(env, p, 1);
  EXPECT_TRUE(TreesEqual(expected, actual));
}

TEST(Async, RecordsSpinLockActivity) {
  const Env env = MakeEnv(3000, 8, 37);
  TrainParams p = BaseParams(GrowPolicy::kTopK, 6);
  p.mode = ParallelMode::kASYNC;
  p.num_threads = 4;
  ThreadPool pool(4);
  HarpTreeBuilder builder(env.matrix, p, pool);
  TrainStats stats;
  builder.BuildTree(env.gh, &stats);
  EXPECT_GT(pool.Snapshot().spin_acquires, 0);
}

// ---------- budgets and limits ----------

TEST(TreeBuilder, LeafBudgetRespectedAllModes) {
  const Env env = MakeEnv(2000, 8, 41);
  for (ParallelMode mode : {ParallelMode::kDP, ParallelMode::kMP,
                            ParallelMode::kSYNC, ParallelMode::kASYNC}) {
    TrainParams p = BaseParams(GrowPolicy::kTopK, 3);  // <= 8 leaves
    p.mode = mode;
    const RegTree tree = BuildWith(env, p, 4);
    EXPECT_LE(tree.NumLeaves(), 8) << ToString(mode);
    EXPECT_TRUE(tree.CheckValid());
  }
}

TEST(TreeBuilder, DepthwiseRespectsDepthLimit) {
  const Env env = MakeEnv(2000, 8, 43);
  TrainParams p = BaseParams(GrowPolicy::kDepthwise, 3);
  const RegTree tree = BuildWith(env, p, 2);
  EXPECT_LE(tree.MaxDepth(), 3);
  EXPECT_LE(tree.NumLeaves(), 8);
}

TEST(TreeBuilder, LeafwiseCanGrowDeeperThanDepthwise) {
  const Env env = MakeEnv(2000, 8, 47);
  TrainParams depth = BaseParams(GrowPolicy::kDepthwise, 3);
  TrainParams leaf = BaseParams(GrowPolicy::kLeafwise, 3);
  const RegTree a = BuildWith(env, depth, 2);
  const RegTree b = BuildWith(env, leaf, 2);
  EXPECT_LE(a.MaxDepth(), 3);
  // Leafwise uses the same leaf budget but no depth cap; on this data the
  // gain-greedy tree is deeper.
  EXPECT_GE(b.MaxDepth(), a.MaxDepth());
}

TEST(TreeBuilder, NodeSumsConsistentParentChildren) {
  const Env env = MakeEnv(1000, 6, 53);
  TrainParams p = BaseParams(GrowPolicy::kTopK, 4);
  const RegTree tree = BuildWith(env, p, 2);
  for (int i = 0; i < tree.num_nodes(); ++i) {
    const TreeNode& n = tree.node(i);
    if (n.IsLeaf()) continue;
    const TreeNode& l = tree.node(n.left);
    const TreeNode& r = tree.node(n.right);
    EXPECT_NEAR(l.sum.g + r.sum.g, n.sum.g, 1e-6);
    EXPECT_NEAR(l.sum.h + r.sum.h, n.sum.h, 1e-6);
    EXPECT_EQ(l.num_rows + r.num_rows, n.num_rows);
  }
}

TEST(TreeBuilder, LeafValuesMatchEvaluatorFormula) {
  const Env env = MakeEnv(800, 5, 59);
  TrainParams p = BaseParams(GrowPolicy::kLeafwise, 4);
  const RegTree tree = BuildWith(env, p, 2);
  const SplitEvaluator eval(p);
  for (const TreeNode& n : tree.nodes()) {
    if (!n.IsLeaf()) continue;
    EXPECT_DOUBLE_EQ(n.leaf_value, eval.LeafValue(n.sum));
  }
}

TEST(TreeBuilder, GainNeverBelowGamma) {
  const Env env = MakeEnv(900, 6, 61);
  TrainParams p = BaseParams(GrowPolicy::kTopK, 5);
  p.min_split_loss = 0.4;
  const RegTree tree = BuildWith(env, p, 2);
  for (const TreeNode& n : tree.nodes()) {
    if (!n.IsLeaf()) {
      EXPECT_GT(n.gain, 0.0);
    }
  }
}

TEST(TreeBuilder, StatsArePopulated) {
  const Env env = MakeEnv(1000, 6, 67);
  TrainParams p = BaseParams(GrowPolicy::kTopK, 4);
  TrainStats stats;
  const RegTree tree = BuildWith(env, p, 2, &stats);
  EXPECT_GT(stats.build_hist_ns, 0);
  EXPECT_GT(stats.find_split_ns, 0);
  EXPECT_GT(stats.hist_updates, 0);
  EXPECT_EQ(stats.leaves, tree.NumLeaves());
  EXPECT_EQ(stats.nodes_split, tree.NumLeaves() - 1);
  EXPECT_GT(stats.hist_peak_bytes, 0u);
}

// ---------- histogram-reduce seam ----------

// A one-shard reducer: owns every feature, leaves every value as it is
// and counts what a real reducer would put on the wire.
class CountingReducer final : public HistReducer {
 public:
  explicit CountingReducer(uint32_t num_features)
      : num_features_(num_features) {}
  std::pair<uint32_t, uint32_t> OwnedFeatures() const override {
    return {0, num_features_};
  }
  void ReduceQuantStats(QuantStats*) override { ++quant_stats; }
  void ReduceSums(GHPair*, size_t count) override { sums += count; }
  void ReduceCounts(int64_t*, size_t count) override { counts += count; }
  void ReduceHists(GHPair* const*, size_t num_hists, size_t,
                   const QuantScales* quant) override {
    hists += num_hists;
    quant_hists = quant != nullptr;
  }
  void ReduceSplits(SplitInfo*, size_t count) override { splits += count; }
  int64_t quant_stats = 0, sums = 0, counts = 0, hists = 0, splits = 0;
  bool quant_hists = false;

 private:
  uint32_t num_features_;
};

TEST(TreeBuilder, IdentityReducerSeesOneExchangePerBuiltHistogram) {
  const Env env = MakeEnv();
  for (ParallelMode mode :
       {ParallelMode::kDP, ParallelMode::kMP, ParallelMode::kSYNC}) {
    for (bool subtraction : {false, true}) {
      for (bool quant : {false, true}) {
        TrainParams p = BaseParams(GrowPolicy::kTopK);
        p.mode = mode;
        p.use_hist_subtraction = subtraction;
        p.quantize_hist = quant;
        const RegTree expect = BuildWith(env, p, 3);

        ThreadPool pool(3);
        CountingReducer reducer(env.matrix.num_features());
        HarpTreeBuilder builder(env.matrix, p, pool, &reducer);
        TrainStats stats;
        const RegTree tree = builder.BuildTree(env.gh, &stats);
        const std::string where = ToString(mode) + " sub=" +
                                  std::to_string(subtraction) +
                                  " quant=" + std::to_string(quant);
        EXPECT_TRUE(TreesEqual(expect, tree)) << where;
        // A reducer forces the region-per-phase step.
        EXPECT_EQ(stats.grow_phase_barriers, 0) << where;

        // Every directly built histogram is exchanged, and only those:
        // the root, then both children of every split — or, with
        // subtraction, the smaller one, plus both children of a popped
        // candidate whose histogram was not retained.
        const int64_t splits = tree.num_nodes() / 2;
        ASSERT_GT(splits, 0) << where;
        EXPECT_EQ(reducer.hists, stats.hist_builds) << where;
        EXPECT_GE(stats.hist_builds, 1 + splits) << where;
        EXPECT_LE(stats.hist_builds, 1 + 2 * splits) << where;
        if (!subtraction) {
          EXPECT_EQ(stats.hist_builds, 1 + 2 * splits) << where;
        }
        EXPECT_EQ(reducer.counts, 1 + 2 * splits) << where;
        // One merged split per node searched: the root and every child.
        EXPECT_EQ(reducer.splits, 1 + 2 * splits) << where;
        EXPECT_EQ(reducer.sums, 1) << where;
        EXPECT_EQ(reducer.quant_stats, quant ? 1 : 0) << where;
        EXPECT_EQ(reducer.quant_hists, quant) << where;
      }
    }
  }
}

TEST(TreeBuilderDeath, ReducerRejectsAsync) {
  const Env env = MakeEnv(200, 4);
  TrainParams p = BaseParams(GrowPolicy::kTopK);
  p.mode = ParallelMode::kASYNC;
  ThreadPool pool(2);
  CountingReducer reducer(env.matrix.num_features());
  EXPECT_DEATH(HarpTreeBuilder(env.matrix, p, pool, &reducer),
               "ASYNC mode cannot train sharded");
}

}  // namespace
}  // namespace harp
