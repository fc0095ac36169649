// Histogram tests: pool lifecycle, subtraction, and the central property
// sweep — DP and MP block-wise builders must reproduce a naive serial
// reference histogram for EVERY block configuration, thread count and
// MemBuf setting, and must write every slot they own (a poisoned pool
// builds the same bytes as a fresh one).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>

#include "baselines/lightgbm_like.h"
#include "core/hist_builder.h"
#include "core/simd.h"
#include "test_util.h"

namespace harp {
namespace {

using harp::testing::MakeDataset;
using harp::testing::MakeGradients;
using harp::testing::NaiveHist;

// ---------- HistogramPool ----------

// Acquire recycles a released buffer as it is: clearing is the builders'
// job, inside their parallel phases (the PoisonedPool cases below).
TEST(HistogramPool, AcquireReusesReleasedBuffer) {
  HistogramPool pool(8);
  GHPair* a = pool.Acquire(1);
  a[3] = GHPair{1.0, 2.0};
  pool.Release(1);
  GHPair* b = pool.Acquire(2);
  EXPECT_EQ(b, a);
  EXPECT_EQ(pool.Get(2), a);
  pool.Release(2);
}

TEST(HistogramPool, TracksPeak) {
  HistogramPool pool(4);
  pool.Acquire(1);
  pool.Acquire(2);
  pool.Acquire(3);
  pool.Release(2);
  pool.Acquire(4);
  EXPECT_EQ(pool.PeakBytes(), 3 * 4 * sizeof(GHPair));
  pool.ReleaseAll();
  EXPECT_FALSE(pool.Has(1));
  // Peak persists after release.
  EXPECT_EQ(pool.PeakBytes(), 3 * 4 * sizeof(GHPair));
}

TEST(HistogramPool, HasAndGet) {
  HistogramPool pool(2);
  EXPECT_FALSE(pool.Has(5));
  GHPair* h = pool.Acquire(5);
  EXPECT_TRUE(pool.Has(5));
  EXPECT_EQ(pool.Get(5), h);
  pool.Release(5);
  EXPECT_FALSE(pool.Has(5));
}

TEST(HistogramPool, TransferKeepsContentsAndRetainOnlyReleasesTheRest) {
  HistogramPool pool(2);
  GHPair* parent = pool.Acquire(1);
  parent[1] = GHPair{3.0, 4.0};
  pool.Acquire(2);
  pool.Acquire(3);
  pool.Transfer(1, 4);
  EXPECT_FALSE(pool.Has(1));
  EXPECT_EQ(pool.Get(4), parent);
  EXPECT_EQ(pool.Get(4)[1], (GHPair{3.0, 4.0}));
  const int keep[] = {4, 3, 7};
  pool.RetainOnly(keep);
  EXPECT_TRUE(pool.Has(4));
  EXPECT_TRUE(pool.Has(3));
  EXPECT_FALSE(pool.Has(2));
  // A transfer moves a buffer, so it never raises the peak.
  EXPECT_EQ(pool.PeakBytes(), 3 * 2 * sizeof(GHPair));
}

TEST(HistogramPoolDeath, DoubleAcquireAndMissingGet) {
  HistogramPool pool(2);
  pool.Acquire(1);
  EXPECT_DEATH(pool.Acquire(1), "already owns");
  EXPECT_DEATH(pool.Get(9), "no histogram");
  EXPECT_DEATH(pool.Release(9), "no histogram");
  EXPECT_DEATH(pool.Transfer(9, 2), "no histogram");
  pool.Acquire(2);
  EXPECT_DEATH(pool.Transfer(1, 2), "already owns");
}

TEST(HistogramPool, ConcurrentAcquireRelease) {
  HistogramPool pool(16);
  ThreadPool threads(4);
  threads.ParallelForDynamic(200, 1, [&](int64_t b, int64_t e, int) {
    for (int64_t i = b; i < e; ++i) {
      GHPair* h = pool.Acquire(static_cast<int>(i));
      h[0] = GHPair{static_cast<double>(i), 1.0};
      EXPECT_EQ(pool.Get(static_cast<int>(i))[0].g, static_cast<double>(i));
      pool.Release(static_cast<int>(i));
    }
  });
}

// ---------- kernels ----------

TEST(HistogramKernels, AddAndSubtract) {
  std::vector<GHPair> parent{{5, 5}, {3, 1}, {0, 0}};
  std::vector<GHPair> small{{2, 1}, {1, 1}, {0, 0}};
  std::vector<GHPair> large = parent;  // in place: parent becomes large
  SubtractHistogram(large.data(), small.data(), 3);
  EXPECT_EQ(large[0], (GHPair{3, 4}));
  EXPECT_EQ(large[1], (GHPair{2, 0}));
  AddHistogram(large.data(), small.data(), 3);
  EXPECT_EQ(large[0], (GHPair{5, 5}));
  ClearHistogram(large.data(), 3);
  EXPECT_EQ(large[2], GHPair{});
  EXPECT_EQ(large[0], GHPair{});
}

TEST(HistogramKernels, SumFeature) {
  std::vector<GHPair> hist{{1, 1}, {2, 2}, {3, 3}, {4, 4}};
  const GHPair sum = SumHistogramFeature(hist.data(), 1, 2);
  EXPECT_EQ(sum, (GHPair{5, 5}));
}

// ---------- builder property sweep ----------

struct BuilderCase {
  bool use_mp;       // MP builder (else DP)
  int feature_blk;   // 0 = all
  int node_blk;
  bool membuf;
  int threads;
};

std::string CaseName(const ::testing::TestParamInfo<BuilderCase>& info) {
  const BuilderCase& c = info.param;
  std::string name = c.use_mp ? "MP" : "DP";
  name += "_f" + std::to_string(c.feature_blk);
  name += "_n" + std::to_string(c.node_blk);
  name += c.membuf ? "_membuf" : "_gather";
  name += "_t" + std::to_string(c.threads);
  return name;
}

class HistBuilderSweep : public ::testing::TestWithParam<BuilderCase> {};

TEST_P(HistBuilderSweep, MatchesNaiveReference) {
  const BuilderCase& c = GetParam();

  const uint32_t rows = 700;
  const Dataset ds = MakeDataset(rows, 11, 0.8, 17, /*distinct=*/13);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  const auto gh = MakeGradients(rows, 18);

  TrainParams params;
  params.feature_blk_size = c.feature_blk;
  params.node_blk_size = c.node_blk;
  params.use_membuf = c.membuf;

  ThreadPool pool(c.threads);
  RowPartitioner partitioner(rows, c.membuf);
  partitioner.Reset(gh, /*max_nodes=*/8, &pool);

  // Split the root on feature 0 so we have three nodes (1, 2 from the
  // split, plus we rebuild the root into node 3... keep 1 and 2).
  const uint32_t split_bin =
      std::max(1u, (matrix.NumBins(0) - 1) / 2);
  partitioner.ApplySplit(0, 1, 2, matrix, 0, split_bin,
                         /*default_left=*/false, &pool);
  ASSERT_GT(partitioner.NodeSize(1), 0u);
  ASSERT_GT(partitioner.NodeSize(2), 0u);

  HistogramPool hists(matrix.TotalBins());
  hists.Acquire(1);
  hists.Acquire(2);
  const BuildContext ctx{matrix, params, pool, partitioner, hists};
  const std::vector<int> nodes{1, 2};
  HistBuilderDP dp;
  HistBuilderMP mp;
  if (c.use_mp) {
    mp.Build(ctx, nodes);
  } else {
    dp.Build(ctx, nodes);
  }

  // Reference per node.
  for (int node : nodes) {
    std::vector<uint32_t> node_rows;
    partitioner.ForEachRowRange(
        node, 0, partitioner.NodeSize(node),
        [&](uint32_t rid, float, float) { node_rows.push_back(rid); });
    const std::vector<GHPair> expected = NaiveHist(matrix, gh, node_rows);
    const GHPair* actual = hists.Get(node);
    for (size_t s = 0; s < expected.size(); ++s) {
      ASSERT_NEAR(actual[s].g, expected[s].g, 1e-9)
          << "node " << node << " slot " << s;
      ASSERT_NEAR(actual[s].h, expected[s].h, 1e-9)
          << "node " << node << " slot " << s;
    }
  }
}

// ---------- poisoned pool: builders write every slot they own ----------

// Acquire hands recycled buffers back uncleared. These cases acquire
// buffers, fill them with NaN and release them, so the next Acquire of a
// build returns a poisoned buffer; the build must then come out
// byte-equal to one into a fresh pool.
constexpr int kPoisonId = 1000;

void PoisonPool(HistogramPool& hists, int count) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < count; ++i) {
    GHPair* h = hists.Acquire(kPoisonId + i);
    std::fill(h, h + hists.total_bins(), GHPair{kNaN, kNaN});
  }
  for (int i = 0; i < count; ++i) hists.Release(kPoisonId + i);
}

// Node 1 and 4 hold rows; node 3 holds none, so no thread touches it and
// its histogram must still come out all zero.
const std::vector<int> kPoisonNodes{1, 3, 4};

struct PoisonFixture {
  static constexpr uint32_t kRows = 700;
  Dataset ds = MakeDataset(kRows, 11, 0.8, 17, /*distinct=*/13);
  BinnedMatrix matrix = BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  std::vector<GradientPair> gh = MakeGradients(kRows, 18);

  // Root -> 1, 2 on feature 0; then 2 -> 3, 4 on the same threshold,
  // which sends every row of 2 right.
  void Split(RowPartitioner& partitioner, ThreadPool& pool) const {
    partitioner.Reset(gh, /*max_nodes=*/8, &pool);
    const uint32_t split_bin = std::max(1u, (matrix.NumBins(0) - 1) / 2);
    partitioner.ApplySplit(0, 1, 2, matrix, 0, split_bin,
                           /*default_left=*/false, &pool);
    partitioner.ApplySplit(2, 3, 4, matrix, 0, split_bin,
                           /*default_left=*/false, &pool);
  }

  // The histograms of kPoisonNodes, concatenated.
  std::vector<GHPair> Collect(const HistogramPool& hists) const {
    std::vector<GHPair> out;
    for (int node : kPoisonNodes) {
      const GHPair* h = hists.Get(node);
      out.insert(out.end(), h, h + matrix.TotalBins());
    }
    return out;
  }

  void ExpectSame(const std::vector<GHPair>& fresh,
                  const std::vector<GHPair>& poisoned) const {
    ASSERT_EQ(fresh.size(), poisoned.size());
    EXPECT_EQ(0, std::memcmp(fresh.data(), poisoned.data(),
                             fresh.size() * sizeof(GHPair)));
    // Node 3 (the second slice) is empty.
    for (size_t s = 0; s < matrix.TotalBins(); ++s) {
      ASSERT_EQ(fresh[matrix.TotalBins() + s], GHPair{}) << "slot " << s;
    }
  }
};

// DP and MP, f64 and quantized, region-per-phase and fused. The poisoned
// build also reuses builders warmed by an earlier build, so stale DP
// replicas and a stale quantized MP arena are covered too.
TEST_P(HistBuilderSweep, PoisonedPoolMatchesFreshPool) {
  const BuilderCase& c = GetParam();
  const PoisonFixture fx;
  TrainParams params;
  params.feature_blk_size = c.feature_blk;
  params.node_blk_size = c.node_blk;
  params.use_membuf = c.membuf;

  ThreadPool pool(c.threads);
  RowPartitioner partitioner(PoisonFixture::kRows, c.membuf);
  fx.Split(partitioner, pool);
  ASSERT_GT(partitioner.NodeSize(1), 0u);
  ASSERT_EQ(partitioner.NodeSize(3), 0u);
  ASSERT_GT(partitioner.NodeSize(4), 0u);

  QuantRound qround;
  qround.scales = ComputeQuantScales(fx.gh, nullptr);
  QuantizeGradients(fx.gh, qround.scales, 0, nullptr, &qround.packed);
  const SimdLevel simd = ResolveSimdLevel("auto");

  for (const bool quant : {false, true}) {
    for (const bool fused : {false, true}) {
      SCOPED_TRACE(std::string(quant ? "quantized" : "f64") +
                   (fused ? " fused" : " region-per-phase"));
      const auto build = [&](HistogramPool& hists, HistBuilderDP& dp,
                             HistBuilderMP& mp) {
        for (int node : kPoisonNodes) hists.Acquire(node);
        const BuildContext ctx{fx.matrix, params, pool, partitioner,
                               hists, quant ? &qround : nullptr, simd};
        if (fused) {
          ThreadPool::FusedRegion region(pool);
          int64_t reduce_ns = 0;
          region.Run([&](int thread_id) {
            if (c.use_mp) {
              mp.BuildInRegion(ctx, kPoisonNodes, region, thread_id);
            } else {
              dp.BuildInRegion(ctx, kPoisonNodes, region, thread_id,
                               &reduce_ns);
            }
          });
        } else if (c.use_mp) {
          mp.Build(ctx, kPoisonNodes);
        } else {
          dp.Build(ctx, kPoisonNodes);
        }
        return fx.Collect(hists);
      };

      HistogramPool fresh_hists(fx.matrix.TotalBins());
      HistBuilderDP fresh_dp;
      HistBuilderMP fresh_mp;
      const std::vector<GHPair> fresh = build(fresh_hists, fresh_dp, fresh_mp);

      HistogramPool hists(fx.matrix.TotalBins());
      HistBuilderDP dp;
      HistBuilderMP mp;
      build(hists, dp, mp);
      hists.ReleaseAll();
      PoisonPool(hists, 2 * static_cast<int>(kPoisonNodes.size()));
      fx.ExpectSame(fresh, build(hists, dp, mp));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BlockConfigs, HistBuilderSweep,
    ::testing::Values(
        // DP: feature blocks x node blocks x threads x membuf
        BuilderCase{false, 0, 1, true, 1},
        BuilderCase{false, 0, 1, true, 4},
        BuilderCase{false, 1, 1, true, 4},
        BuilderCase{false, 3, 2, true, 4},
        BuilderCase{false, 4, 2, false, 2},
        BuilderCase{false, 0, 2, false, 4},
        BuilderCase{false, 11, 1, true, 3},
        // MP: feature blocks x node blocks x threads x membuf
        BuilderCase{true, 0, 1, true, 1},
        BuilderCase{true, 1, 1, true, 4},
        BuilderCase{true, 1, 2, true, 4},
        BuilderCase{true, 3, 1, true, 4},
        BuilderCase{true, 4, 2, false, 4},
        BuilderCase{true, 0, 2, false, 2},
        BuilderCase{true, 11, 2, false, 3}),
    CaseName);

// ASYNC's serial per-node build, whole-width and feature-tiled.
TEST(PoisonedPool, BuildHistSerialMatchesFreshPool) {
  const PoisonFixture fx;
  ThreadPool pool(2);
  RowPartitioner partitioner(PoisonFixture::kRows, /*use_membuf=*/true);
  fx.Split(partitioner, pool);
  for (const int feature_blk : {0, 4}) {
    SCOPED_TRACE("feature_blk " + std::to_string(feature_blk));
    TrainParams params;
    params.feature_blk_size = feature_blk;
    const auto build = [&](HistogramPool& hists) {
      const BuildContext ctx{fx.matrix, params, pool, partitioner, hists};
      for (int node : kPoisonNodes) {
        BuildHistSerial(ctx, node, hists.Acquire(node));
      }
      return fx.Collect(hists);
    };
    HistogramPool fresh_hists(fx.matrix.TotalBins());
    const std::vector<GHPair> fresh = build(fresh_hists);
    HistogramPool hists(fx.matrix.TotalBins());
    PoisonPool(hists, 2 * static_cast<int>(kPoisonNodes.size()));
    fx.ExpectSame(fresh, build(hists));
  }
}

// The LightGBM-like baseline's per-feature tasks, which clear their own
// feature ranges concurrently.
TEST(PoisonedPool, LightGbmColumnHistMatchesFreshPool) {
  PoisonFixture fx;
  fx.matrix.EnsureColumnMajor();
  ThreadPool pool(3);
  RowPartitioner partitioner(PoisonFixture::kRows, /*use_membuf=*/false);
  fx.Split(partitioner, pool);
  const auto build = [&](HistogramPool& hists) {
    for (int node : kPoisonNodes) {
      baselines::BuildColumnHist(fx.matrix, partitioner.NodeRowIds(node),
                                 fx.gh.data(), pool, hists.Acquire(node));
    }
    return fx.Collect(hists);
  };
  HistogramPool fresh_hists(fx.matrix.TotalBins());
  const std::vector<GHPair> fresh = build(fresh_hists);
  HistogramPool hists(fx.matrix.TotalBins());
  PoisonPool(hists, 2 * static_cast<int>(kPoisonNodes.size()));
  fx.ExpectSame(fresh, build(hists));
}

// Subtraction-trick cross-check: parent - sibling == direct build.
TEST(HistogramSubtraction, MatchesDirectBuild) {
  const uint32_t rows = 500;
  const Dataset ds = MakeDataset(rows, 6, 0.9, 29);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  const auto gh = MakeGradients(rows, 30);

  ThreadPool pool(2);
  RowPartitioner partitioner(rows, true);
  partitioner.Reset(gh, 8, &pool);
  const std::vector<uint32_t> all = harp::testing::AllRows(rows);
  const std::vector<GHPair> parent_hist = NaiveHist(matrix, gh, all);

  partitioner.ApplySplit(0, 1, 2, matrix, 2, 1, false, &pool);
  std::vector<uint32_t> left_rows;
  std::vector<uint32_t> right_rows;
  partitioner.ForEachRowRange(1, 0, partitioner.NodeSize(1),
                              [&](uint32_t rid, float, float) {
                                left_rows.push_back(rid);
                              });
  partitioner.ForEachRowRange(2, 0, partitioner.NodeSize(2),
                              [&](uint32_t rid, float, float) {
                                right_rows.push_back(rid);
                              });
  const std::vector<GHPair> left = NaiveHist(matrix, gh, left_rows);
  const std::vector<GHPair> right_direct = NaiveHist(matrix, gh, right_rows);
  std::vector<GHPair> right_sub = parent_hist;
  SubtractHistogram(right_sub.data(), left.data(), matrix.TotalBins());
  for (size_t s = 0; s < right_sub.size(); ++s) {
    EXPECT_NEAR(right_sub[s].g, right_direct[s].g, 1e-9);
    EXPECT_NEAR(right_sub[s].h, right_direct[s].h, 1e-9);
  }
}

// Histogram total must equal the node's gradient sum, feature by feature.
TEST(HistogramInvariant, PerFeatureTotalsEqualNodeSum) {
  const uint32_t rows = 300;
  const Dataset ds = MakeDataset(rows, 5, 0.7, 31);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  const auto gh = MakeGradients(rows, 32);
  const auto all = harp::testing::AllRows(rows);
  const auto hist = NaiveHist(matrix, gh, all);
  const GHPair total = harp::testing::SumGh(gh, all);
  for (uint32_t f = 0; f < matrix.num_features(); ++f) {
    const GHPair fsum =
        SumHistogramFeature(hist.data(), matrix.BinOffset(f),
                            matrix.NumBins(f));
    EXPECT_NEAR(fsum.g, total.g, 1e-9);
    EXPECT_NEAR(fsum.h, total.h, 1e-9);
  }
}

}  // namespace
}  // namespace harp
