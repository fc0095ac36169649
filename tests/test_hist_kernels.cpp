// Kernel-layer tests: every specialized hist_kernels variant must produce
// BIT-IDENTICAL histograms to the reference scalar AccumulateRow — across
// MemBuf/gather row sources, caller-tiled and full feature blocks, both
// ISA tables, uneven per-feature bin counts, and row ranges that exercise
// the empty / single-row / odd-length remainder paths and the internal
// row-tile boundary. Plus the DP replica lifecycle (storage reuse, lazy
// clearing).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/hist_builder.h"
#include "core/hist_kernels.h"
#include "test_util.h"

namespace harp {
namespace {

using harp::testing::MakeDataset;
using harp::testing::MakeGradients;
using harp::testing::NaiveHist;

// 19 features forces the full-feature kernels through their internal
// feature tiling (tile width 16); 2100 rows crosses the 2048-row internal
// row-tile boundary; 13 distinct values against 16 cut candidates makes
// per-feature bin counts uneven.
struct KernelFixture {
  Dataset ds;
  BinnedMatrix matrix;
  std::vector<GradientPair> gh;

  KernelFixture()
      : ds(MakeDataset(2100, 19, 0.85, 71, /*distinct=*/13)),
        matrix(BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16))),
        gh(MakeGradients(2100, 72)) {}
};

struct KernelCase {
  bool membuf;
  bool full_features;
};

std::string KernelCaseName(const ::testing::TestParamInfo<KernelCase>& info) {
  const KernelCase& c = info.param;
  std::string name = c.membuf ? "membuf" : "gather";
  name += c.full_features ? "_fullblock" : "_tiled";
  return name;
}

class HistKernelParity : public ::testing::TestWithParam<KernelCase> {};

// Every dispatchable kernel, against the scalar reference, over row ranges
// covering the empty range, a single row, odd lengths (4-row remainder
// path), and ranges spanning the internal row-tile boundary, for the
// scalar table and (when the CPU has it) the AVX2 table. Equality is exact
// (GHPair operator==): the kernels must not change the per-slot
// floating-point accumulation order.
TEST_P(HistKernelParity, BitExactVsScalarReference) {
  const KernelCase& c = GetParam();
  const KernelFixture fx;
  const uint32_t rows = fx.matrix.num_rows();
  const uint32_t features = fx.matrix.num_features();

  ThreadPool pool(1);
  RowPartitioner partitioner(rows, c.membuf);
  partitioner.Reset(fx.gh, /*max_nodes=*/2, &pool);

  const HistKernelMatrix km = MakeHistKernelMatrix(fx.matrix, partitioner);
  const HistRowSource src = MakeHistRowSource(partitioner, /*node_id=*/0);
  const HistKernelFn kernel = SelectHistKernel(c.membuf, c.full_features);
  ASSERT_NE(kernel, nullptr);
  const HistKernelFn kernel_avx2 =
      SimdSupported(SimdLevel::kAVX2)
          ? SelectHistKernel(c.membuf, c.full_features, SimdLevel::kAVX2)
          : nullptr;

  // Caller-tiled kernels get 5-feature blocks (19 % 5 != 0, so the last
  // block is ragged); full-block kernels get the whole feature space.
  const auto blocks =
      MakeFeatureBlocks(features, c.full_features ? 0 : 5);

  const std::pair<uint32_t, uint32_t> row_ranges[] = {
      {0, 0},       // empty
      {5, 5},       // empty, non-zero origin
      {0, 1},       // single row
      {3, 10},      // odd length, unaligned origin
      {0, 2059},    // crosses the 2048-row internal tile boundary
      {2040, 2100}, // range starting near the tile boundary
      {0, rows},    // everything
  };

  for (const auto& [begin, end] : row_ranges) {
    std::vector<GHPair> actual(fx.matrix.TotalBins());
    std::vector<GHPair> avx2(fx.matrix.TotalBins());
    std::vector<GHPair> expected(fx.matrix.TotalBins());
    for (const Range& fb : blocks) {
      kernel(km, src, begin, end, actual.data(), fb);
      if (kernel_avx2 != nullptr) {
        kernel_avx2(km, src, begin, end, avx2.data(), fb);
      }
      partitioner.ForEachRowRange(
          0, begin, end, [&](uint32_t rid, float g, float h) {
            AccumulateRow(fx.matrix.RowBins(rid), g, h, fx.matrix,
                          expected.data(), fb);
          });
    }
    for (size_t s = 0; s < expected.size(); ++s) {
      ASSERT_EQ(actual[s], expected[s])
          << "rows [" << begin << ", " << end << ") slot " << s;
      if (kernel_avx2 != nullptr) {
        ASSERT_EQ(avx2[s], expected[s])
            << "avx2, rows [" << begin << ", " << end << ") slot " << s;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, HistKernelParity,
    ::testing::Values(KernelCase{true, true}, KernelCase{true, false},
                      KernelCase{false, true}, KernelCase{false, false}),
    KernelCaseName);

TEST(HistKernels, GatherSourceRequiresGradients) {
  const KernelFixture fx;
  RowPartitioner partitioner(fx.matrix.num_rows(), /*use_membuf=*/false);
  // No Reset: the gradient array is unset.
  EXPECT_DEATH(MakeHistKernelMatrix(fx.matrix, partitioner),
               "gather kernels need");
}

// ---------- DP replica lifecycle ----------

// Shared setup: dataset with a root split so node blocks hold two nodes.
struct DpFixture {
  DpFixture(int threads, bool membuf, int node_blk)
      : ds(MakeDataset(900, 7, 0.8, 41, /*distinct=*/21)),
        matrix(BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 32))),
        gh(MakeGradients(900, 42)),
        pool(threads),
        partitioner(900, membuf) {
    params.node_blk_size = node_blk;
    params.use_membuf = membuf;
    partitioner.Reset(gh, /*max_nodes=*/8, &pool);
    const uint32_t split_bin = std::max(1u, (matrix.NumBins(0) - 1) / 2);
    partitioner.ApplySplit(0, 1, 2, matrix, 0, split_bin,
                           /*default_left=*/false, &pool);
  }

  std::vector<GHPair> Reference(int node) {
    std::vector<uint32_t> node_rows;
    partitioner.ForEachRow(node, [&](uint32_t rid, float, float) {
      node_rows.push_back(rid);
    });
    return NaiveHist(matrix, gh, node_rows);
  }

  void CheckNode(HistogramPool& hists, int node) {
    const std::vector<GHPair> expected = Reference(node);
    const GHPair* actual = hists.Get(node);
    for (size_t s = 0; s < expected.size(); ++s) {
      ASSERT_EQ(actual[s], expected[s]) << "node " << node << " slot " << s;
    }
  }

  Dataset ds;
  BinnedMatrix matrix;
  std::vector<GradientPair> gh;
  TrainParams params;
  ThreadPool pool;
  RowPartitioner partitioner;
};

// Replica storage must be allocated once and reused across Build calls;
// repeated builds must stay correct, which proves the lazy clearing wipes
// exactly the regions the previous build dirtied.
TEST(HistBuilderDpReplicas, StorageReusedAcrossBuilds) {
  DpFixture fx(/*threads=*/3, /*membuf=*/true, /*node_blk=*/2);
  HistogramPool hists(fx.matrix.TotalBins());
  const BuildContext ctx{fx.matrix, fx.params, fx.pool, fx.partitioner,
                         hists};
  const std::vector<int> nodes{1, 2};
  HistBuilderDP dp;

  for (int iter = 0; iter < 3; ++iter) {
    hists.Acquire(1);
    hists.Acquire(2);
    dp.Build(ctx, nodes);
    fx.CheckNode(hists, 1);
    fx.CheckNode(hists, 2);
    hists.ReleaseAll();
  }

  const auto& stats = dp.replica_stats();
  EXPECT_EQ(stats.grow_events, 1) << "replicas_ must not reallocate when "
                                     "the layout is unchanged";
  EXPECT_EQ(stats.node_blocks, 3);
  EXPECT_GT(dp.replica_capacity(), 0u);
}

// Shrinking the node block (smaller replica stride) must reuse the larger
// allocation and still clear the right regions — the dirty ledger tracks
// flat offsets, which survive the layout change.
TEST(HistBuilderDpReplicas, LayoutChangeKeepsCleanInvariant) {
  DpFixture fx(/*threads=*/2, /*membuf=*/false, /*node_blk=*/2);
  HistogramPool hists(fx.matrix.TotalBins());
  const BuildContext ctx{fx.matrix, fx.params, fx.pool, fx.partitioner,
                         hists};
  HistBuilderDP dp;

  hists.Acquire(1);
  hists.Acquire(2);
  dp.Build(ctx, std::vector<int>{1, 2});  // two-node block
  hists.ReleaseAll();
  const size_t capacity = dp.replica_capacity();

  hists.Acquire(1);
  dp.Build(ctx, std::vector<int>{1});  // one-node block: stride halves
  fx.CheckNode(hists, 1);
  hists.ReleaseAll();

  hists.Acquire(2);
  dp.Build(ctx, std::vector<int>{2});
  fx.CheckNode(hists, 2);
  hists.ReleaseAll();

  EXPECT_EQ(dp.replica_stats().grow_events, 1);
  EXPECT_EQ(dp.replica_capacity(), capacity) << "smaller layouts must not "
                                                "reallocate";
}

// Untouched (thread, node) regions are skipped by the reduction: with far
// more threads than row tasks, most replicas stay untouched.
TEST(HistBuilderDpReplicas, ReductionSkipsUntouchedThreads) {
  DpFixture fx(/*threads=*/4, /*membuf=*/true, /*node_blk=*/1);
  // One giant row block per node: at most one thread accumulates a node.
  fx.params.row_blk_size = 1 << 20;
  HistogramPool hists(fx.matrix.TotalBins());
  const BuildContext ctx{fx.matrix, fx.params, fx.pool, fx.partitioner,
                         hists};
  HistBuilderDP dp;

  hists.Acquire(1);
  hists.Acquire(2);
  dp.Build(ctx, std::vector<int>{1, 2});
  fx.CheckNode(hists, 1);
  fx.CheckNode(hists, 2);
  hists.ReleaseAll();

  const auto& stats = dp.replica_stats();
  // 2 node blocks x 4 threads = 8 regions total, but each single-task
  // node is touched by exactly one thread.
  EXPECT_EQ(stats.regions_total, 8);
  EXPECT_EQ(stats.regions_touched, 2);
}

}  // namespace
}  // namespace harp
