// Tests for RowPartitioner: NodeMap semantics, MemBuf layout, stable
// parallel partition, margin scatter, arena steady-state allocation,
// batched split application, fused child sums, concurrent disjoint splits.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "core/row_partitioner.h"
#include "core/tree_builder.h"
#include "parallel/thread_pool.h"
#include "test_util.h"

namespace harp {
namespace {

using harp::testing::MakeDataset;
using harp::testing::MakeGradients;

struct PartitionCase {
  bool membuf;
  int threads;
  bool parallel_split;  // big node -> internally parallel partition
};

class PartitionerSweep : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(PartitionerSweep, ApplySplitInvariants) {
  const PartitionCase& c = GetParam();
  // >= 8192 rows triggers the parallel partition path.
  const uint32_t rows = c.parallel_split ? 12000 : 900;
  const Dataset ds = MakeDataset(rows, 6, 0.8, 51);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  const auto gh = MakeGradients(rows, 52);

  ThreadPool pool(c.threads);
  RowPartitioner partitioner(rows, c.membuf);
  partitioner.Reset(gh, 8, &pool);
  EXPECT_EQ(partitioner.NodeSize(0), rows);

  const uint32_t feature = 1;
  const uint32_t split_bin = std::max(1u, (matrix.NumBins(feature) - 1) / 2);
  const bool default_left = true;
  partitioner.ApplySplit(0, 1, 2, matrix, feature, split_bin, default_left,
                         &pool);

  // Invariant 1: sizes add up, parent freed.
  EXPECT_EQ(partitioner.NodeSize(1) + partitioner.NodeSize(2), rows);
  EXPECT_EQ(partitioner.NodeSize(0), 0u);

  // Invariant 2: children are a disjoint cover of all rows and respect the
  // split predicate; order within each child preserves the parent order
  // (stability) — parent order was ascending row ids.
  std::set<uint32_t> seen;
  uint32_t prev_left = 0;
  bool first_left = true;
  partitioner.ForEachRowRange(1, 0, partitioner.NodeSize(1),
                              [&](uint32_t rid, float g, float h) {
                                EXPECT_TRUE(seen.insert(rid).second);
                                const uint8_t bin = matrix.Bin(rid, feature);
                                EXPECT_TRUE(bin == 0 ? default_left
                                                     : bin <= split_bin);
                                EXPECT_FLOAT_EQ(g, gh[rid].g);
                                EXPECT_FLOAT_EQ(h, gh[rid].h);
                                if (!first_left) {
                                  EXPECT_GT(rid, prev_left);
                                }
                                prev_left = rid;
                                first_left = false;
                              });
  uint32_t prev_right = 0;
  bool first_right = true;
  partitioner.ForEachRowRange(2, 0, partitioner.NodeSize(2),
                              [&](uint32_t rid, float, float) {
                                EXPECT_TRUE(seen.insert(rid).second);
                                const uint8_t bin = matrix.Bin(rid, feature);
                                EXPECT_TRUE(bin == 0 ? !default_left
                                                     : bin > split_bin);
                                if (!first_right) {
                                  EXPECT_GT(rid, prev_right);
                                }
                                prev_right = rid;
                                first_right = false;
                              });
  EXPECT_EQ(seen.size(), rows);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, PartitionerSweep,
    ::testing::Values(PartitionCase{true, 1, false},
                      PartitionCase{true, 4, false},
                      PartitionCase{false, 4, false},
                      PartitionCase{true, 4, true},
                      PartitionCase{false, 3, true},
                      PartitionCase{false, 1, true}));

TEST(RowPartitioner, NodeSumMatchesDirectSum) {
  const uint32_t rows = 6000;
  const auto gh = MakeGradients(rows, 61);
  ThreadPool pool(4);
  for (bool membuf : {true, false}) {
    RowPartitioner partitioner(rows, membuf);
    partitioner.Reset(gh, 4, &pool);
    GHPair expected;
    for (const auto& g : gh) expected.Add(g.g, g.h);
    const GHPair serial = partitioner.NodeSum(0, nullptr);
    const GHPair parallel = partitioner.NodeSum(0, &pool);
    EXPECT_NEAR(serial.g, expected.g, 1e-6);
    EXPECT_NEAR(parallel.g, expected.g, 1e-6);
    EXPECT_NEAR(parallel.h, expected.h, 1e-6);
  }
}

TEST(RowPartitioner, SerialAndParallelPartitionIdentical) {
  const uint32_t rows = 20000;  // above the parallel threshold
  const Dataset ds = MakeDataset(rows, 4, 0.9, 71);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  const auto gh = MakeGradients(rows, 72);

  ThreadPool pool(4);
  RowPartitioner parallel(rows, true);
  parallel.Reset(gh, 4, &pool);
  parallel.ApplySplit(0, 1, 2, matrix, 0, 2, false, &pool);

  RowPartitioner serial(rows, true);
  serial.Reset(gh, 4, nullptr);
  serial.ApplySplit(0, 1, 2, matrix, 0, 2, false, nullptr);

  for (int node : {1, 2}) {
    ASSERT_EQ(parallel.NodeSize(node), serial.NodeSize(node));
    const auto a = parallel.NodeEntries(node);
    const auto b = serial.NodeEntries(node);
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].rid, b[i].rid) << "node " << node << " pos " << i;
    }
  }
}

TEST(RowPartitioner, MembufAndGatherSeeSameRows) {
  const uint32_t rows = 1500;
  const Dataset ds = MakeDataset(rows, 5, 0.85, 81);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  const auto gh = MakeGradients(rows, 82);

  RowPartitioner with(rows, true);
  RowPartitioner without(rows, false);
  with.Reset(gh, 8, nullptr);
  without.Reset(gh, 8, nullptr);
  with.ApplySplit(0, 1, 2, matrix, 3, 1, true, nullptr);
  without.ApplySplit(0, 1, 2, matrix, 3, 1, true, nullptr);

  for (int node : {1, 2}) {
    std::vector<uint32_t> a;
    std::vector<uint32_t> b;
    std::vector<float> ga;
    std::vector<float> gb;
    with.ForEachRowRange(node, 0, with.NodeSize(node),
                         [&](uint32_t rid, float g, float) {
                           a.push_back(rid);
                           ga.push_back(g);
                         });
    without.ForEachRowRange(node, 0, without.NodeSize(node),
                            [&](uint32_t rid, float g, float) {
                              b.push_back(rid);
                              gb.push_back(g);
                            });
    EXPECT_EQ(a, b);
    EXPECT_EQ(ga, gb);
  }
}

TEST(RowPartitioner, MultiLevelSplitsKeepDisjointCover) {
  const uint32_t rows = 3000;
  const Dataset ds = MakeDataset(rows, 6, 0.8, 91);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  const auto gh = MakeGradients(rows, 92);
  RowPartitioner partitioner(rows, true);
  partitioner.Reset(gh, 16, nullptr);
  partitioner.ApplySplit(0, 1, 2, matrix, 0, 2, false, nullptr);
  partitioner.ApplySplit(1, 3, 4, matrix, 1, 1, true, nullptr);
  partitioner.ApplySplit(2, 5, 6, matrix, 2, 3, false, nullptr);

  std::set<uint32_t> seen;
  uint32_t total = 0;
  for (int leaf : {3, 4, 5, 6}) {
    total += partitioner.NodeSize(leaf);
    partitioner.ForEachRowRange(leaf, 0, partitioner.NodeSize(leaf),
                                [&](uint32_t rid, float, float) {
                                  EXPECT_TRUE(seen.insert(rid).second);
                                });
  }
  EXPECT_EQ(total, rows);
  EXPECT_EQ(seen.size(), rows);
}

TEST(RowPartitioner, AddToMargins) {
  const uint32_t rows = 100;
  const Dataset ds = MakeDataset(rows, 3, 1.0, 95);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 8));
  const auto gh = MakeGradients(rows, 96);
  RowPartitioner partitioner(rows, true);
  partitioner.Reset(gh, 4, nullptr);
  partitioner.ApplySplit(0, 1, 2, matrix, 0, 1, false, nullptr);

  std::vector<double> margins(rows, 1.0);
  partitioner.AddToMargins(1, 0.5, &margins);
  partitioner.AddToMargins(2, -0.25, &margins);
  for (uint32_t r = 0; r < rows; ++r) {
    const uint8_t bin = matrix.Bin(r, 0);
    const bool left = bin != 0 && bin <= 1;
    EXPECT_DOUBLE_EQ(margins[r], left ? 1.5 : 0.75);
  }
}

// Collects a node's rid sequence (layout-independent).
std::vector<uint32_t> NodeRids(const RowPartitioner& p, int node) {
  std::vector<uint32_t> rids;
  p.ForEachRow(node, [&](uint32_t rid, float, float) { rids.push_back(rid); });
  return rids;
}

// Grows one two-level tree on `p`: root -> {1,2} -> {3,4,5,6}, the second
// level applied as one batch. Returns the leaf ids.
std::vector<int> GrowTwoLevels(RowPartitioner* p, const BinnedMatrix& matrix,
                               const std::vector<GradientPair>& gh,
                               ThreadPool* pool, bool batched) {
  p->Reset(gh, 16, pool);
  p->ApplySplit(0, 1, 2, matrix, 0, 2, false, pool);
  const std::vector<SplitTask> tasks = {
      SplitTask{1, 3, 4, 1, 1, true},
      SplitTask{2, 5, 6, 2, 3, false},
  };
  if (batched) {
    p->ApplySplitBatch(tasks, matrix, pool);
  } else {
    for (const SplitTask& t : tasks) {
      p->ApplySplit(t.node_id, t.left_id, t.right_id, matrix, t.feature,
                    t.split_bin, t.default_left, pool);
    }
  }
  return {3, 4, 5, 6};
}

// Steady state across trees allocates nothing: after the first tree has
// grown every buffer to size, further Reset + split cycles leave the
// grow-event counter unchanged.
TEST(RowPartitioner, SteadyStateAllocatesNothingAcrossTrees) {
  const uint32_t rows = 20000;  // root split takes the parallel path
  const Dataset ds = MakeDataset(rows, 6, 0.8, 101);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  const auto gh = MakeGradients(rows, 102);
  ThreadPool pool(4);

  for (bool membuf : {true, false}) {
    RowPartitioner partitioner(rows, membuf);
    // Warm-up tree: every arena, window table, and scratch buffer grows to
    // its steady-state size (and NodeSum grows its partial buffer).
    GrowTwoLevels(&partitioner, matrix, gh, &pool, true);
    partitioner.NodeSum(0, &pool);
    const int64_t warm = partitioner.stats().grow_events;
    EXPECT_GT(warm, 0);
    for (int tree = 0; tree < 3; ++tree) {
      for (int leaf : GrowTwoLevels(&partitioner, matrix, gh, &pool, true)) {
        partitioner.NodeSum(leaf, &pool);
      }
    }
    EXPECT_EQ(partitioner.stats().grow_events, warm)
        << "membuf=" << membuf << ": steady-state trees must not allocate";
  }
}

// The same guarantee one layer up: HarpTreeBuilder's per-batch staging
// vectors (split tasks, build/subtract lists, the find grid) live in
// reused member scratch, so repeated identical trees leave both the
// partitioner's grow counter and the builder's scratch fingerprint alone.
TEST(RowPartitioner, BuilderSteadyStateAllocatesNothingAcrossTrees) {
  const uint32_t rows = 20000;
  const Dataset ds = MakeDataset(rows, 8, 0.8, 121);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  const auto gh = MakeGradients(rows, 122);
  ThreadPool pool(4);

  for (ParallelMode mode : {ParallelMode::kSYNC, ParallelMode::kMP}) {
    TrainParams p;
    p.grow_policy = GrowPolicy::kTopK;
    p.topk = 8;
    p.tree_size = 6;
    p.min_split_loss = 0.0;
    p.min_child_weight = 0.1;
    p.mode = mode;
    p.use_hist_subtraction = true;
    p.num_threads = 4;
    HarpTreeBuilder builder(matrix, p, pool);
    TrainStats stats;
    builder.BuildTree(gh, &stats);  // warm-up: scratch reaches high water
    const int64_t warm_builder = builder.scratch_grow_events();
    const int64_t warm_partitioner = builder.partitioner().stats().grow_events;
    for (int tree = 0; tree < 3; ++tree) builder.BuildTree(gh, &stats);
    EXPECT_EQ(builder.scratch_grow_events(), warm_builder)
        << ToString(mode) << ": builder scratch must stop growing";
    EXPECT_EQ(builder.partitioner().stats().grow_events, warm_partitioner)
        << ToString(mode) << ": partitioner must stay allocation-free";
  }
}

// The batched path (one count region + one scatter region for all K
// tasks) must produce exactly the trees the per-node path produces:
// same sizes, same stable row order, disjoint cover of all rows.
TEST(RowPartitioner, BatchedApplyMatchesPerNodeApply) {
  const uint32_t rows = 20000;  // total over the batch takes the batch path
  const Dataset ds = MakeDataset(rows, 6, 0.8, 111);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  const auto gh = MakeGradients(rows, 112);
  ThreadPool pool(4);

  for (bool membuf : {true, false}) {
    RowPartitioner batched(rows, membuf);
    RowPartitioner per_node(rows, membuf);
    const auto leaves = GrowTwoLevels(&batched, matrix, gh, &pool, true);
    GrowTwoLevels(&per_node, matrix, gh, nullptr, false);

    std::set<uint32_t> seen;
    uint32_t total = 0;
    for (int leaf : leaves) {
      ASSERT_EQ(batched.NodeSize(leaf), per_node.NodeSize(leaf));
      const auto a = NodeRids(batched, leaf);
      const auto b = NodeRids(per_node, leaf);
      EXPECT_EQ(a, b) << "leaf " << leaf;
      for (uint32_t rid : a) EXPECT_TRUE(seen.insert(rid).second);
      total += batched.NodeSize(leaf);
    }
    EXPECT_EQ(total, rows);
    EXPECT_EQ(seen.size(), rows);
    // Both parents were emptied by their splits.
    EXPECT_EQ(batched.NodeSize(1), 0u);
    EXPECT_EQ(batched.NodeSize(2), 0u);
    // The batch issued one region pair, not one per node.
    EXPECT_GE(batched.stats().batches, 1);
  }
}

// Fused child sums: every split caches both children's sums, NodeSum
// returns the cached value, the value is bit-identical whichever apply
// path produced it (serial, per-node pooled, batched; any thread count),
// and it matches a direct scan of the child to accumulation error.
TEST(RowPartitioner, FusedSumsBitIdenticalAcrossApplyPaths) {
  const uint32_t rows = 20000;
  const Dataset ds = MakeDataset(rows, 6, 0.8, 121);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  const auto gh = MakeGradients(rows, 122);
  ThreadPool pool2(2);
  ThreadPool pool4(4);

  for (bool membuf : {true, false}) {
    RowPartitioner serial(rows, membuf);
    RowPartitioner pooled(rows, membuf);
    RowPartitioner batched(rows, membuf);
    const auto leaves = GrowTwoLevels(&serial, matrix, gh, nullptr, false);
    GrowTwoLevels(&pooled, matrix, gh, &pool2, false);
    GrowTwoLevels(&batched, matrix, gh, &pool4, true);

    for (int leaf : leaves) {
      ASSERT_TRUE(serial.HasFusedSum(leaf));
      ASSERT_TRUE(pooled.HasFusedSum(leaf));
      ASSERT_TRUE(batched.HasFusedSum(leaf));
      const GHPair s = serial.NodeSum(leaf);
      const GHPair p = pooled.NodeSum(leaf);
      const GHPair b = batched.NodeSum(leaf);
      // Bit-identical across paths and thread counts: the fused reduction
      // runs on the parent's fixed chunk grid in ascending order
      // everywhere.
      EXPECT_EQ(s.g, p.g);
      EXPECT_EQ(s.h, p.h);
      EXPECT_EQ(s.g, b.g);
      EXPECT_EQ(s.h, b.h);
      // And it is the child's sum (direct scan association differs, so
      // NEAR, not EQ).
      GHPair direct;
      serial.ForEachRow(leaf, [&](uint32_t, float g, float h) {
        direct.Add(g, h);
      });
      EXPECT_NEAR(s.g, direct.g, 1e-6);
      EXPECT_NEAR(s.h, direct.h, 1e-6);
    }
    // The root was never produced by a split: no fused sum, NodeSum falls
    // back to the scan.
    EXPECT_FALSE(serial.HasFusedSum(0));
  }
}

// The ASYNC contract: workers may serially split *disjoint* nodes
// concurrently (disjoint arena windows in both buffers, thread-local
// scratch). Run the second level on two threads and compare against the
// single-threaded reference.
TEST(RowPartitioner, ConcurrentDisjointSplitsMatchSerial) {
  const uint32_t rows = 20000;
  const Dataset ds = MakeDataset(rows, 6, 0.8, 131);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  const auto gh = MakeGradients(rows, 132);

  for (bool membuf : {true, false}) {
    RowPartitioner concurrent(rows, membuf);
    concurrent.Reset(gh, 16, nullptr);
    concurrent.ApplySplit(0, 1, 2, matrix, 0, 2, false, nullptr);
    const std::vector<SplitTask> tasks = {
        SplitTask{1, 3, 4, 1, 1, true},
        SplitTask{2, 5, 6, 2, 3, false},
    };
    std::vector<std::thread> workers;
    for (const SplitTask& t : tasks) {
      workers.emplace_back([&concurrent, &matrix, t] {
        concurrent.ApplySplit(t.node_id, t.left_id, t.right_id, matrix,
                              t.feature, t.split_bin, t.default_left,
                              nullptr);
      });
    }
    for (auto& w : workers) w.join();

    RowPartitioner reference(rows, membuf);
    GrowTwoLevels(&reference, matrix, gh, nullptr, false);
    for (int leaf : {3, 4, 5, 6}) {
      ASSERT_EQ(concurrent.NodeSize(leaf), reference.NodeSize(leaf));
      EXPECT_EQ(NodeRids(concurrent, leaf), NodeRids(reference, leaf));
      const GHPair a = concurrent.NodeSum(leaf);
      const GHPair b = reference.NodeSum(leaf);
      EXPECT_EQ(a.g, b.g);
      EXPECT_EQ(a.h, b.h);
    }
  }
}

// ApplySplit-phase accounting: the batched path issues one region pair
// (2 barriers) per batch regardless of K, and bytes_moved counts each
// partitioned element exactly once.
TEST(RowPartitioner, PartitionStatsTrackBarriersAndBytes) {
  const uint32_t rows = 20000;
  const Dataset ds = MakeDataset(rows, 6, 0.8, 141);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  const auto gh = MakeGradients(rows, 142);
  ThreadPool pool(4);

  RowPartitioner partitioner(rows, true);
  partitioner.Reset(gh, 16, &pool);
  const PartitionStats before = partitioner.stats();
  partitioner.ApplySplit(0, 1, 2, matrix, 0, 2, false, &pool);
  const std::vector<SplitTask> tasks = {
      SplitTask{1, 3, 4, 1, 1, true},
      SplitTask{2, 5, 6, 2, 3, false},
  };
  partitioner.ApplySplitBatch(tasks, matrix, &pool);
  const PartitionStats after = partitioner.stats();

  EXPECT_EQ(after.splits - before.splits, 3);
  // Root split = one single-task batch, level 2 = one two-task batch: two
  // region pairs total even though three nodes were partitioned.
  EXPECT_EQ(after.batches - before.batches, 2);
  EXPECT_EQ(after.barriers - before.barriers, 4);
  // Every row moved once per level: 2 levels x rows elements.
  EXPECT_EQ(after.bytes_moved - before.bytes_moved,
            static_cast<int64_t>(2 * rows * sizeof(MemBufEntry)));
}

TEST(RowPartitionerDeath, OutOfRangeNode) {
  const auto gh = MakeGradients(10, 1);
  RowPartitioner partitioner(10, true);
  partitioner.Reset(gh, 4, nullptr);
  EXPECT_DEATH(partitioner.NodeSize(4), "CHECK");
  EXPECT_DEATH(partitioner.NodeSize(-1), "CHECK");
}

}  // namespace
}  // namespace harp
