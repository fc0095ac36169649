// Tests for the simulated cluster communicator and distributed training.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include "core/metrics.h"
#include "core/model_io.h"
#include "data/synthetic.h"
#include "distributed/dist_gbdt.h"
#include "distributed/inprocess_transport.h"
#include "distributed/socket_transport.h"
#include "distributed/sparse_hist.h"
#include "parallel/thread_pool.h"
#include "test_util.h"

namespace harp {
namespace {

// ---------- Communicator ----------

class ClusterSizes : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Worlds, ClusterSizes, ::testing::Values(1, 2, 3, 5));

TEST_P(ClusterSizes, AllreduceSumsAcrossRanks) {
  const int world = GetParam();
  SimulatedCluster cluster(world);
  cluster.Run([&](Communicator& comm) {
    std::vector<double> data(16);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<double>(comm.rank() + 1) * (i + 1);
    }
    comm.AllreduceSum(data.data(), data.size());
    // Sum over ranks r of (r+1)*(i+1) = (i+1) * world(world+1)/2.
    const double factor = world * (world + 1) / 2.0;
    for (size_t i = 0; i < data.size(); ++i) {
      EXPECT_DOUBLE_EQ(data[i], factor * (i + 1))
          << "rank " << comm.rank() << " slot " << i;
    }
  });
}

TEST_P(ClusterSizes, RepeatedCollectivesStayInSync) {
  const int world = GetParam();
  SimulatedCluster cluster(world);
  cluster.Run([&](Communicator& comm) {
    int64_t value = 1;
    for (int round = 0; round < 200; ++round) {
      int64_t local = value;
      comm.AllreduceSum(&local, 1);
      EXPECT_EQ(local, value * world) << "round " << round;
    }
  });
}

TEST(Communicator, AllreduceGhPairs) {
  SimulatedCluster cluster(3);
  cluster.Run([&](Communicator& comm) {
    GHPair data{static_cast<double>(comm.rank()), 1.0};
    comm.AllreduceSum(&data, 1);
    EXPECT_DOUBLE_EQ(data.g, 0.0 + 1.0 + 2.0);
    EXPECT_DOUBLE_EQ(data.h, 3.0);
  });
}

TEST(Communicator, CountsTraffic) {
  SimulatedCluster cluster(2);
  cluster.Run([&](Communicator& comm) {
    double v = 1.0;
    comm.AllreduceSum(&v, 1);
  });
  const CommStats stats = cluster.TotalStats();
  EXPECT_EQ(stats.allreduce_calls, 2);
  EXPECT_EQ(stats.allreduce_bytes, 2 * 8);  // 8 bytes x (world-1) x ranks
}

TEST(Communicator, AllreduceMaxAcrossRanks) {
  SimulatedCluster cluster(3);
  cluster.Run([&](Communicator& comm) {
    double data[3] = {static_cast<double>(comm.rank()),
                      -static_cast<double>(comm.rank()) - 1.0, 0.5};
    comm.AllreduceMax(data, 3);
    EXPECT_DOUBLE_EQ(data[0], 2.0);
    EXPECT_DOUBLE_EQ(data[1], -1.0);
    EXPECT_DOUBLE_EQ(data[2], 0.5);
  });
}

// Per-rank data with awkward magnitudes, so f64 addition order matters,
// and signed zeros, so max's tie order shows.
double FoldValue(int rank, size_t i) {
  uint64_t x = 0x9E3779B97F4A7C15ull * (i + 1) + rank * 0x10001ull;
  x ^= x >> 33;
  if (x % 11 == 0) return (x & 2) ? 0.0 : -0.0;
  const double mag = static_cast<double>(x % 100003) / 997.0;
  return (x & 1) ? mag * 1e12 : -mag * 1e-7;
}

// The serial rank-ordered fold: rank 0's value, then op(acc, rank r's
// value) for r = 1, 2, ...
template <typename T, typename Value, typename Op>
std::vector<T> SerialFold(int world, size_t count, Value value, Op op) {
  std::vector<T> acc(count);
  for (size_t i = 0; i < count; ++i) {
    acc[i] = value(0, i);
    for (int r = 1; r < world; ++r) op(acc[i], value(r, i));
  }
  return acc;
}

// Uneven owner cell ranges for histogram reduce-scatter tests: rank r owns
// about r/W of the cells, and rank 1 owns none from three ranks up.
std::vector<uint32_t> TestCellBounds(int world, uint32_t cells) {
  std::vector<uint32_t> bounds;
  for (int r = 0; r <= world; ++r) {
    bounds.push_back(static_cast<uint32_t>(static_cast<uint64_t>(cells) * r *
                                           r / (world * world)));
  }
  if (world >= 3) bounds[2] = bounds[1];
  return bounds;
}

// After a reduce-scatter, rank `rank`'s cells of each of the `num_hists`
// histograms of `cells` slots must equal `want` bit for bit, and every
// other cell must still hold `mine`, the rank's input.
void ExpectReduceScattered(const std::vector<GHPair>& got,
                           const std::vector<GHPair>& want,
                           const std::vector<GHPair>& mine,
                           const std::vector<uint32_t>& bounds, int rank,
                           uint32_t num_hists, uint32_t cells,
                           const std::string& where) {
  const uint32_t begin = bounds[static_cast<size_t>(rank)];
  const uint32_t end = bounds[static_cast<size_t>(rank) + 1];
  for (uint32_t h = 0; h < num_hists; ++h) {
    for (uint32_t c = 0; c < cells; ++c) {
      const size_t i = static_cast<size_t>(h) * cells + c;
      const GHPair& expect = c >= begin && c < end ? want[i] : mine[i];
      ASSERT_EQ(0, std::memcmp(&got[i], &expect, sizeof(GHPair)))
          << where << " hist " << h << " cell " << c << " owned ["
          << begin << ", " << end << ")";
    }
  }
}

// Every typed allreduce, and the dense histogram reduce-scatter folded over
// a pool, is bitwise the serial rank-ordered fold: however the fold splits
// its range, each element sees the ranks in order.
TEST(Communicator, FoldMatchesSerialRankOrder) {
  const auto sum_f64 = [](double& a, double b) { a += b; };
  const auto max_f64 = [](double& a, double b) { a = std::max(a, b); };
  const auto value_i64 = [](int rank, size_t i) {
    const uint64_t x = (0x9E3779B97F4A7C15ull * (i + 1)) ^
                       (0xBF58476D1CE4E5B9ull * static_cast<uint64_t>(rank));
    const int64_t mag = static_cast<int64_t>(x >> 6);  // < 2^58: no overflow
    return (x & 1) ? mag : -mag;
  };
  const size_t count = 1001;
  const uint32_t cells = 1000;  // folded as 1000 GHPairs: 3 * 333 + 1
  for (const int world : {2, 3, 5}) {
    const auto expect_sum =
        SerialFold<double>(world, count, FoldValue, sum_f64);
    const auto expect_max =
        SerialFold<double>(world, count, FoldValue, max_f64);
    const auto expect_i64 =
        SerialFold<int64_t>(world, count, value_i64,
                            [](int64_t& a, int64_t b) { a += b; });
    const auto expect_hist =
        SerialFold<double>(world, 2 * cells, FoldValue, sum_f64);
    for (const int threads : {0, 1, 3}) {
      SimulatedCluster cluster(world);
      cluster.Run([&](Communicator& comm) {
        const int rank = comm.rank();
        const std::string where = "world " + std::to_string(world) +
                                  " pool " + std::to_string(threads) +
                                  " rank " + std::to_string(rank);
        std::vector<double> sum(count);
        std::vector<double> mx(count);
        std::vector<int64_t> isum(count);
        for (size_t i = 0; i < count; ++i) {
          sum[i] = mx[i] = FoldValue(rank, i);
          isum[i] = value_i64(rank, i);
        }
        comm.AllreduceSum(sum.data(), count);
        comm.AllreduceMax(mx.data(), count);
        comm.AllreduceSum(isum.data(), count);
        EXPECT_EQ(0, std::memcmp(sum.data(), expect_sum.data(),
                                 count * sizeof(double))) << where;
        EXPECT_EQ(0, std::memcmp(mx.data(), expect_max.data(),
                                 count * sizeof(double))) << where;
        EXPECT_EQ(isum, expect_i64) << where;

        std::unique_ptr<ThreadPool> pool;
        if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
        std::vector<GHPair> hist(cells);
        for (uint32_t c = 0; c < cells; ++c) {
          hist[c] = GHPair{FoldValue(rank, 2 * c), FoldValue(rank, 2 * c + 1)};
        }
        const std::vector<GHPair> mine = hist;
        std::vector<GHPair> want(cells);
        for (uint32_t c = 0; c < cells; ++c) {
          want[c] = GHPair{expect_hist[2 * c], expect_hist[2 * c + 1]};
        }
        GHPair* ptrs[1] = {hist.data()};
        Communicator::HistExchangeOpts opts;
        opts.pool = pool.get();
        const std::vector<uint32_t> bounds = TestCellBounds(world, cells);
        comm.ReduceScatterHistograms(ptrs, 1, cells, bounds.data(), opts);
        ExpectReduceScattered(hist, want, mine, bounds, rank, 1, cells, where);
      });
    }
  }
}

TEST(Communicator, WorkerExceptionPropagates) {
  SimulatedCluster cluster(2);
  EXPECT_THROW(cluster.Run([&](Communicator& comm) {
    if (comm.rank() == 1) throw std::runtime_error("worker died");
    // Rank 0 must not deadlock waiting for rank 1 — it does no
    // collectives here.
  }),
               std::runtime_error);
}

// ---------- SparseHistogram codec ----------

// Exact quantization scales for codec tests: values are multiples of the
// inverse scale, so encode/decode round-trips bit for bit.
SparseHistFormat QuantFormat() {
  SparseHistFormat fmt;
  fmt.quant = true;
  fmt.scales.g_exp = 8;
  fmt.scales.g_scale = 256.0f;
  fmt.scales.g_inv = 1.0 / 256.0;
  fmt.scales.h_exp = 10;
  fmt.scales.h_scale = 1024.0f;
  fmt.scales.h_inv = 1.0 / 1024.0;
  return fmt;
}

// Per-rank test histograms: scattered touched cells (different cells per
// rank, some overlapping), values exactly representable at the quant
// scales so f64 and quant paths must both be exact.
std::vector<std::vector<GHPair>> RankHists(int world, uint32_t num_hists,
                                           uint32_t cells) {
  std::vector<std::vector<GHPair>> hists(static_cast<size_t>(world));
  const SparseHistFormat fmt = QuantFormat();
  for (int r = 0; r < world; ++r) {
    auto& h = hists[static_cast<size_t>(r)];
    h.assign(static_cast<size_t>(num_hists) * cells, GHPair{});
    for (size_t i = 0; i < h.size(); ++i) {
      if ((i * 7 + static_cast<size_t>(r) * 3) % 5 == 0) {
        const double k = static_cast<double>((i % 97) + 1);
        h[i].g = (r % 2 == 0 ? k : -k) * fmt.scales.g_inv;
        h[i].h = k * fmt.scales.h_inv;
      }
    }
  }
  return hists;
}

// Reference: the dense rank-ordered reduction (rank 0's cell, then += each
// higher rank in order) — what the dense oracle path computes.
std::vector<GHPair> DenseRankOrderedSum(
    const std::vector<std::vector<GHPair>>& hists) {
  std::vector<GHPair> acc = hists[0];
  for (size_t r = 1; r < hists.size(); ++r) {
    for (size_t i = 0; i < acc.size(); ++i) {
      acc[i].g += hists[r][i].g;
      acc[i].h += hists[r][i].h;
    }
  }
  return acc;
}

// With one rank the global sum is the input: both encodings leave every
// bit alone (-0.0 included), count the exchange, and ship nothing.
TEST(Communicator, OneRankHistogramExchangeIsIdentity) {
  SimulatedCluster cluster(1);
  cluster.Run([&](Communicator& comm) {
    for (const bool sparse : {false, true}) {
      std::vector<GHPair> hist(24);
      hist[3].g = -0.0;
      hist[7] = GHPair{1.5, 2.0};
      const std::vector<GHPair> before = hist;
      GHPair* ptrs[1] = {hist.data()};
      Communicator::HistExchangeOpts opts;
      opts.sparse = sparse;
      const uint32_t bounds[] = {0, 24};
      comm.ReduceScatterHistograms(ptrs, 1, 24, bounds, opts);
      EXPECT_EQ(0, std::memcmp(hist.data(), before.data(),
                               hist.size() * sizeof(GHPair)))
          << "sparse=" << sparse;
    }
  });
  const CommStats stats = cluster.TotalStats();
  EXPECT_EQ(stats.hist_exchanges, 2);
  EXPECT_EQ(stats.hist_wire_bytes, 0);
  EXPECT_EQ(stats.hist_dense_bytes, 0);
}

// The pooled sparse reduce-scatter sums like the dense one at every world
// size (with an owner of no cells from three ranks up), and each rank times
// its exchanges and their parts.
TEST(Communicator, PooledSparseExchangeMatchesDense) {
  const uint32_t num_hists = 3;
  const uint32_t cells = 37;
  for (const int world : {2, 3, 4}) {
    const auto hists = RankHists(world, num_hists, cells);
    const std::vector<GHPair> expect = DenseRankOrderedSum(hists);
    const std::vector<uint32_t> bounds = TestCellBounds(world, cells);
    for (const bool sparse : {false, true}) {
      SimulatedCluster cluster(world);
      cluster.Run([&](Communicator& comm) {
        ThreadPool pool(2);
        const size_t rank = static_cast<size_t>(comm.rank());
        std::vector<GHPair> mine = hists[rank];
        std::vector<GHPair*> ptrs(num_hists);
        for (uint32_t h = 0; h < num_hists; ++h) {
          ptrs[h] = mine.data() + static_cast<size_t>(h) * cells;
        }
        Communicator::HistExchangeOpts opts;
        opts.sparse = sparse;
        opts.quant = true;
        opts.scales = QuantFormat().scales;
        opts.pool = &pool;
        comm.ReduceScatterHistograms(ptrs.data(), num_hists, cells,
                                     bounds.data(), opts);
        const std::string where = "world " + std::to_string(world) +
                                  " sparse=" + std::to_string(sparse) +
                                  " rank " + std::to_string(rank);
        ExpectReduceScattered(mine, expect, hists[rank], bounds,
                              comm.rank(), num_hists, cells, where);
        const CommStats& stats = comm.stats();
        EXPECT_GT(stats.hist_exchange_ns, 0) << where;
        EXPECT_GE(stats.HistTransportNs(), 0) << where;
        EXPECT_EQ(stats.hist_fold_ns > 0, bounds[rank + 1] > bounds[rank])
            << where;
        // This rank's traffic: the dense f64 segments it sends (the cells
        // others own) and receives (its own, from each peer).
        const int64_t own =
            DenseHistBytes(num_hists, bounds[rank + 1] - bounds[rank]);
        EXPECT_EQ(stats.hist_dense_bytes,
                  DenseHistBytes(num_hists, cells) - own + (world - 1) * own)
            << where;
        if (!sparse) {
          EXPECT_EQ(stats.hist_wire_bytes, stats.hist_dense_bytes) << where;
        }
      });
    }
  }
}

// The best-split allreduce merges in rank order with BetterThan: the
// higher gain wins, and among equal gains the lower feature, so its
// result does not depend on which rank held which candidate.
TEST(Communicator, AllreduceBestSplitsMergesByBetterThan) {
  const auto split = [](double gain, uint32_t feature, uint32_t bin) {
    SplitInfo s;
    s.gain = gain;
    s.feature = feature;
    s.bin = bin;
    s.default_left = feature % 2 == 1;
    s.left_sum = GHPair{gain, 1.0 + feature};
    s.right_sum = GHPair{-gain, 2.0 + bin};
    return s;
  };
  for (const int world : {1, 2, 3}) {
    SimulatedCluster cluster(world);
    cluster.Run([&](Communicator& comm) {
      const uint32_t r = static_cast<uint32_t>(comm.rank());
      // Node 0: every rank ties on gain, the lowest feature wins. Node 1:
      // the last rank's gain wins. Node 2: no rank has a valid split.
      std::vector<SplitInfo> splits = {split(2.0, 10 + r, 3), split(1.0 + r, r, 1),
                                       SplitInfo{}};
      comm.AllreduceBestSplits(splits.data(), splits.size());
      const SplitInfo want[] = {split(2.0, 10, 3),
                                split(world, static_cast<uint32_t>(world - 1), 1),
                                SplitInfo{}};
      for (size_t i = 0; i < splits.size(); ++i) {
        const std::string where = "world " + std::to_string(world) + " rank " +
                                  std::to_string(r) + " node " +
                                  std::to_string(i);
        EXPECT_EQ(splits[i].gain, want[i].gain) << where;
        EXPECT_EQ(splits[i].feature, want[i].feature) << where;
        EXPECT_EQ(splits[i].bin, want[i].bin) << where;
        EXPECT_EQ(splits[i].default_left, want[i].default_left) << where;
        EXPECT_EQ(splits[i].left_sum.g, want[i].left_sum.g) << where;
        EXPECT_EQ(splits[i].left_sum.h, want[i].left_sum.h) << where;
        EXPECT_EQ(splits[i].right_sum.g, want[i].right_sum.g) << where;
        EXPECT_EQ(splits[i].right_sum.h, want[i].right_sum.h) << where;
      }
    });
  }
}

class SparseHistCodec : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(Formats, SparseHistCodec,
                         ::testing::Values(false, true));

// Rank `self`'s fold of every rank's frame into `own`, its own
// histograms (`num_hists` x `cells`), which it returns.
std::vector<GHPair> FoldAt(const std::vector<std::vector<uint8_t>>& frames,
                           size_t self, std::vector<GHPair> own,
                           uint32_t num_hists, uint32_t cells,
                           const SparseHistFormat& fmt,
                           ThreadPool* pool = nullptr) {
  Transport::Frames views;
  for (const auto& frame : frames) views.emplace_back(frame.data(), frame.size());
  std::vector<GHPair*> ptrs(num_hists);
  for (uint32_t h = 0; h < num_hists; ++h) {
    ptrs[h] = own.data() + static_cast<size_t>(h) * cells;
  }
  FoldSparseHist(views, self, ptrs.data(), num_hists, cells, fmt, pool);
  return own;
}

// Encodes each rank's `num_hists` x `cells` histograms and folds the
// frames at every rank, which must give the dense rank-ordered sum bit for
// bit. Returns the largest frame's size.
size_t ExpectCodecMatchesDense(const std::vector<std::vector<GHPair>>& hists,
                               uint32_t num_hists, uint32_t cells,
                               const SparseHistFormat& fmt) {
  std::vector<std::vector<uint8_t>> frames(hists.size());
  std::vector<const GHPair*> ptrs(num_hists);
  size_t largest = 0;
  for (size_t r = 0; r < hists.size(); ++r) {
    for (uint32_t h = 0; h < num_hists; ++h) {
      ptrs[h] = hists[r].data() + static_cast<size_t>(h) * cells;
    }
    EncodeSparseHist(ptrs.data(), num_hists, cells, fmt, &frames[r]);
    largest = std::max(largest, frames[r].size());
  }
  const std::vector<GHPair> expect = DenseRankOrderedSum(hists);
  for (size_t self = 0; self < hists.size(); ++self) {
    const std::vector<GHPair> folded =
        FoldAt(frames, self, hists[self], num_hists, cells, fmt);
    EXPECT_EQ(0, std::memcmp(folded.data(), expect.data(),
                             folded.size() * sizeof(GHPair)))
        << "fold at rank " << self;
  }
  return largest;
}

TEST_P(SparseHistCodec, EncodeFoldMatchesDenseRankOrderBitwise) {
  SparseHistFormat fmt = QuantFormat();
  fmt.quant = GetParam();
  const uint32_t num_hists = 2;
  const uint32_t cells = 37;  // partial last region
  const size_t largest = ExpectCodecMatchesDense(
      RankHists(/*world=*/3, num_hists, cells), num_hists, cells, fmt);
  // Compression: every frame must beat the dense payload on this data.
  EXPECT_LT(largest, static_cast<size_t>(DenseHistBytes(num_hists, cells)));
}

TEST_P(SparseHistCodec, AllZeroHistogramsShipHeaderOnlyFrames) {
  const bool quant = GetParam();
  const uint32_t cells = 24;
  SparseHistFormat fmt = QuantFormat();
  fmt.quant = quant;
  const std::vector<GHPair> zero(cells, GHPair{});
  const GHPair* ptrs[1] = {zero.data()};
  std::vector<uint8_t> frame;
  EncodeSparseHist(ptrs, 1, cells, fmt, &frame);
  EXPECT_EQ(frame.size(), sizeof(SparseHistHeader));
  // Encoding appends: a second frame lands after the first.
  EncodeSparseHist(ptrs, 1, cells, fmt, &frame);
  EXPECT_EQ(frame.size(), 2 * sizeof(SparseHistHeader));
  frame.resize(sizeof(SparseHistHeader));

  // Folding three empty frames leaves zero histograms zero.
  const std::vector<std::vector<uint8_t>> frames(3, frame);
  const std::vector<GHPair> folded = FoldAt(frames, 1, zero, 1, cells, fmt);
  for (const GHPair& cell : folded) {
    EXPECT_FALSE(std::signbit(cell.g));
    EXPECT_EQ(cell.g, 0.0);
    EXPECT_EQ(cell.h, 0.0);
  }
}

// Payload cells follow one bitmap byte per listed region, so a frame that
// lists an odd number of regions leaves every payload cell misaligned; the
// codec must load them bytewise (the UBSan job traps misaligned loads).
TEST_P(SparseHistCodec, OddListedRegionCountRoundTrips) {
  SparseHistFormat fmt = QuantFormat();
  fmt.quant = GetParam();
  const double g = fmt.scales.g_inv;
  const double h = fmt.scales.h_inv;
  const uint32_t cells = 24;  // three regions
  std::vector<std::vector<GHPair>> hists(2, std::vector<GHPair>(cells));
  hists[0][1] = GHPair{3 * g, 2 * h};    // rank 0 lists region 0 only
  hists[1][1] = GHPair{-1 * g, 5 * h};   // rank 1 lists all three
  hists[1][12] = GHPair{7 * g, 1 * h};
  hists[1][23] = GHPair{-2 * g, 4 * h};
  ExpectCodecMatchesDense(hists, 1, cells, fmt);
}

TEST(SparseHistCodecEdge, NegativeZeroCountsAsTouched) {
  // -0.0 has nonzero bits; skipping it would flip the sign the dense
  // oracle preserves.
  SparseHistFormat fmt;  // f64
  std::vector<GHPair> hist(8, GHPair{});
  hist[3].g = -0.0;
  const GHPair* ptrs[1] = {hist.data()};
  std::vector<uint8_t> frame;
  EncodeSparseHist(ptrs, 1, 8, fmt, &frame);
  EXPECT_GT(frame.size(), sizeof(SparseHistHeader));
  // Rank 1 holds nothing; rank 0's -0.0 reaches it.
  const std::vector<GHPair> folded =
      FoldAt({frame, {}}, 1, std::vector<GHPair>(8), 1, 8, fmt);
  EXPECT_TRUE(std::signbit(folded[3].g));
}

TEST(SparseHistCodecEdge, MalformedFramesRejected) {
  SparseHistFormat fmt;
  const auto hists = RankHists(1, 1, 16);
  const GHPair* ptrs[1] = {hists[0].data()};
  std::vector<uint8_t> frame;
  EncodeSparseHist(ptrs, 1, 16, fmt, &frame);
  const std::vector<GHPair> mine(16, GHPair{0.5, 0.25});
  // Rank 1 folds rank 0's frame; a rejected frame must leave its cells
  // untouched.
  const auto fold = [&](const std::vector<uint8_t>& f,
                        const SparseHistFormat& format) {
    std::vector<GHPair> out = mine;
    GHPair* out_ptrs[1] = {out.data()};
    const Transport::Frames views = {{f.data(), f.size()}, {nullptr, 0}};
    try {
      FoldSparseHist(views, 1, out_ptrs, 1, 16, format);
    } catch (const std::runtime_error&) {
      EXPECT_EQ(0, std::memcmp(out.data(), mine.data(),
                               mine.size() * sizeof(GHPair)));
      throw;
    }
  };
  const auto decode = [&](const std::vector<uint8_t>& f) { fold(f, fmt); };
  ASSERT_NO_THROW(decode(frame));

  {
    std::vector<uint8_t> f = frame;  // short header
    f.resize(sizeof(SparseHistHeader) - 1);
    EXPECT_THROW(decode(f), std::runtime_error);
  }
  {
    std::vector<uint8_t> f = frame;  // truncated payload
    f.resize(f.size() - 1);
    EXPECT_THROW(decode(f), std::runtime_error);
  }
  {
    std::vector<uint8_t> f = frame;  // bad magic
    f[0] ^= 0xFF;
    EXPECT_THROW(decode(f), std::runtime_error);
  }
  {
    std::vector<uint8_t> f = frame;  // bad version
    f[4] ^= 0xFF;
    EXPECT_THROW(decode(f), std::runtime_error);
  }
  {
    std::vector<uint8_t> f = frame;  // unknown flags
    f[6] |= 0x80;
    EXPECT_THROW(decode(f), std::runtime_error);
  }
  {
    std::vector<uint8_t> f = frame;  // geometry mismatch
    SparseHistHeader h;
    std::memcpy(&h, f.data(), sizeof(h));
    h.cells_per_hist = 99;
    std::memcpy(f.data(), &h, sizeof(h));
    EXPECT_THROW(decode(f), std::runtime_error);
  }
  {
    std::vector<uint8_t> f = frame;  // absurd run count
    SparseHistHeader h;
    std::memcpy(&h, f.data(), sizeof(h));
    h.num_runs = 1u << 30;
    std::memcpy(f.data(), &h, sizeof(h));
    EXPECT_THROW(decode(f), std::runtime_error);
  }
  {
    std::vector<uint8_t> f = frame;  // zeroed region bitmap
    SparseHistHeader h;
    std::memcpy(&h, f.data(), sizeof(h));
    ASSERT_GT(h.num_runs, 0u);
    f[sizeof(h) + h.num_runs * sizeof(SparseHistRun)] = 0;
    EXPECT_THROW(decode(f), std::runtime_error);
  }
  // Format mismatch (quant flag).
  EXPECT_THROW(fold(frame, QuantFormat()), std::runtime_error);
}

// ---------- codec oracle ----------
//
// The serial codec the pooled one replaced, kept as the oracle: a per-cell
// encode with llround, a reduce that indexes every rank's listed regions in
// a full region table, and a zero-fill-then-scatter decode. Frames are
// trusted here; validation is tested above and below.
namespace oracle {

uint32_t RegionsPerHist(uint32_t cells) {
  return (cells + kSparseRegionCells - 1) / kSparseRegionCells;
}

struct Frame {
  SparseHistHeader header;
  std::vector<SparseHistRun> runs;
  std::vector<uint8_t> bitmaps;
  std::vector<uint8_t> payload;

  void AddRegion(uint32_t region, uint8_t bitmap) {
    if (!runs.empty() &&
        runs.back().first_region + runs.back().num_regions == region) {
      ++runs.back().num_regions;
    } else {
      runs.push_back(SparseHistRun{region, 1});
    }
    bitmaps.push_back(bitmap);
    header.payload_cells += static_cast<uint32_t>(std::popcount(bitmap));
  }
  template <typename Cell>
  void AddCell(const Cell& cell) {
    const size_t off = payload.size();
    payload.resize(off + sizeof(Cell));
    std::memcpy(payload.data() + off, &cell, sizeof(Cell));
  }
};

std::vector<uint8_t> Serialize(Frame f, uint32_t num_hists, uint32_t cells,
                               const SparseHistFormat& fmt) {
  f.header.flags = fmt.quant ? kSparseHistFlagQuant : 0;
  f.header.num_hists = num_hists;
  f.header.cells_per_hist = cells;
  f.header.num_runs = static_cast<uint32_t>(f.runs.size());
  const size_t runs_bytes = f.runs.size() * sizeof(SparseHistRun);
  std::vector<uint8_t> out(sizeof(f.header) + runs_bytes + f.bitmaps.size() +
                           f.payload.size());
  uint8_t* p = out.data();
  std::memcpy(p, &f.header, sizeof(f.header));
  p += sizeof(f.header);
  if (runs_bytes > 0) std::memcpy(p, f.runs.data(), runs_bytes);
  std::copy(f.bitmaps.begin(), f.bitmaps.end(), p + runs_bytes);
  std::copy(f.payload.begin(), f.payload.end(),
            p + runs_bytes + f.bitmaps.size());
  return out;
}

Frame Parse(const std::vector<uint8_t>& bytes, const SparseHistFormat& fmt) {
  Frame f;
  std::memcpy(&f.header, bytes.data(), sizeof(f.header));
  const uint8_t* p = bytes.data() + sizeof(f.header);
  f.runs.resize(f.header.num_runs);
  if (!f.runs.empty()) {
    std::memcpy(f.runs.data(), p, f.runs.size() * sizeof(SparseHistRun));
  }
  p += f.runs.size() * sizeof(SparseHistRun);
  size_t listed = 0;
  for (const SparseHistRun& run : f.runs) listed += run.num_regions;
  f.bitmaps.assign(p, p + listed);
  p += listed;
  const size_t cell_bytes = fmt.quant ? sizeof(int64_t) : sizeof(GHPair);
  f.payload.assign(p, p + f.header.payload_cells * cell_bytes);
  return f;
}

template <typename Cell>
Cell LoadCell(const std::vector<uint8_t>& payload, size_t index) {
  Cell cell;
  std::memcpy(&cell, payload.data() + index * sizeof(Cell), sizeof(Cell));
  return cell;
}

std::vector<uint8_t> Encode(const std::vector<GHPair>& hists,
                            uint32_t num_hists, uint32_t cells,
                            const SparseHistFormat& fmt) {
  const uint32_t rph = RegionsPerHist(cells);
  Frame f;
  for (uint32_t h = 0; h < num_hists; ++h) {
    const GHPair* hist = hists.data() + static_cast<size_t>(h) * cells;
    for (uint32_t lr = 0; lr < rph; ++lr) {
      const uint32_t begin = lr * kSparseRegionCells;
      const uint32_t n = std::min(kSparseRegionCells, cells - begin);
      uint8_t bitmap = 0;
      for (uint32_t i = 0; i < n; ++i) {
        uint64_t bits[2];
        std::memcpy(bits, &hist[begin + i], sizeof(bits));
        if ((bits[0] | bits[1]) != 0) {
          bitmap |= static_cast<uint8_t>(1u << i);
        }
      }
      if (bitmap == 0) continue;
      f.AddRegion(h * rph + lr, bitmap);
      for (uint32_t i = 0; i < n; ++i) {
        if (!(bitmap & (1u << i))) continue;
        const GHPair& cell = hist[begin + i];
        if (fmt.quant) {
          const int64_t g = std::llround(
              cell.g * static_cast<double>(fmt.scales.g_scale));
          const int64_t hh = std::llround(
              cell.h * static_cast<double>(fmt.scales.h_scale));
          f.AddCell<int64_t>((g << 32) + hh);
        } else {
          f.AddCell(cell);
        }
      }
    }
  }
  return Serialize(std::move(f), num_hists, cells, fmt);
}

template <typename Cell>
void ReduceRegion(const std::vector<Frame>& frames,
                  const std::vector<std::vector<int64_t>>& bitmap_of,
                  const std::vector<std::vector<uint32_t>>& cell_of,
                  uint32_t region, Frame* out) {
  Cell acc[kSparseRegionCells];
  uint8_t seen = 0;
  for (size_t rank = 0; rank < frames.size(); ++rank) {
    const int64_t b = bitmap_of[rank][region];
    if (b < 0) continue;
    const uint8_t bitmap = frames[rank].bitmaps[static_cast<size_t>(b)];
    size_t cell_idx = cell_of[rank][region];
    for (uint32_t i = 0; i < kSparseRegionCells; ++i) {
      if (!(bitmap & (1u << i))) continue;
      const Cell cell = LoadCell<Cell>(frames[rank].payload, cell_idx++);
      if (seen & (1u << i)) {
        acc[i] += cell;
      } else {
        acc[i] = cell;
      }
    }
    seen |= bitmap;
  }
  if (seen == 0) return;
  out->AddRegion(region, seen);
  for (uint32_t i = 0; i < kSparseRegionCells; ++i) {
    if (seen & (1u << i)) out->AddCell(acc[i]);
  }
}

std::vector<uint8_t> Reduce(const std::vector<std::vector<uint8_t>>& frames,
                            uint32_t num_hists, uint32_t cells,
                            const SparseHistFormat& fmt) {
  const uint32_t total = num_hists * RegionsPerHist(cells);
  std::vector<Frame> parsed;
  std::vector<std::vector<int64_t>> bitmap_of;
  std::vector<std::vector<uint32_t>> cell_of;
  for (const auto& bytes : frames) {
    parsed.push_back(Parse(bytes, fmt));
    bitmap_of.emplace_back(total, -1);
    cell_of.emplace_back(total, 0);
    uint32_t bitmap_idx = 0;
    uint32_t cursor = 0;
    for (const SparseHistRun& run : parsed.back().runs) {
      for (uint32_t r = run.first_region;
           r < run.first_region + run.num_regions; ++r, ++bitmap_idx) {
        bitmap_of.back()[r] = bitmap_idx;
        cell_of.back()[r] = cursor;
        cursor += static_cast<uint32_t>(
            std::popcount(parsed.back().bitmaps[bitmap_idx]));
      }
    }
  }
  Frame out;
  for (uint32_t region = 0; region < total; ++region) {
    if (fmt.quant) {
      ReduceRegion<int64_t>(parsed, bitmap_of, cell_of, region, &out);
    } else {
      ReduceRegion<GHPair>(parsed, bitmap_of, cell_of, region, &out);
    }
  }
  return Serialize(std::move(out), num_hists, cells, fmt);
}

std::vector<GHPair> Decode(const std::vector<uint8_t>& bytes,
                           uint32_t num_hists, uint32_t cells,
                           const SparseHistFormat& fmt) {
  const uint32_t rph = RegionsPerHist(cells);
  const Frame f = Parse(bytes, fmt);
  std::vector<GHPair> out(static_cast<size_t>(num_hists) * cells);
  uint32_t bitmap_idx = 0;
  size_t cursor = 0;
  for (const SparseHistRun& run : f.runs) {
    for (uint32_t r = run.first_region; r < run.first_region + run.num_regions;
         ++r, ++bitmap_idx) {
      GHPair* dst = out.data() + static_cast<size_t>(r / rph) * cells +
                    (r % rph) * kSparseRegionCells;
      for (uint32_t i = 0; i < kSparseRegionCells; ++i) {
        if (!(f.bitmaps[bitmap_idx] & (1u << i))) continue;
        if (fmt.quant) {
          const int64_t cell = LoadCell<int64_t>(f.payload, cursor++);
          dst[i] = GHPair{static_cast<double>(CellG(cell)) * fmt.scales.g_inv,
                          static_cast<double>(CellH(cell)) * fmt.scales.h_inv};
        } else {
          dst[i] = LoadCell<GHPair>(f.payload, cursor++);
        }
      }
    }
  }
  return out;
}

}  // namespace oracle

// Sparse random histograms: each cell is touched with probability
// `density`, with values exact at QuantFormat's scales; one touched cell in
// twenty carries g = -0.0 (touched by its bits, zero by value).
std::vector<GHPair> RandomHists(uint32_t num_hists, uint32_t cells,
                                double density, uint32_t seed) {
  const SparseHistFormat fmt = QuantFormat();
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> k(-300, 300);
  std::vector<GHPair> hists(static_cast<size_t>(num_hists) * cells);
  for (GHPair& cell : hists) {
    if (unit(rng) >= density) continue;
    const int v = k(rng);
    cell.g = unit(rng) < 0.05 ? -0.0 : v * fmt.scales.g_inv;
    cell.h = (std::abs(v) + 1) * fmt.scales.h_inv;
  }
  return hists;
}

std::vector<const GHPair*> HistPtrs(const std::vector<GHPair>& hists,
                                    uint32_t num_hists, uint32_t cells) {
  std::vector<const GHPair*> ptrs(num_hists);
  for (uint32_t h = 0; h < num_hists; ++h) {
    ptrs[h] = hists.data() + static_cast<size_t>(h) * cells;
  }
  return ptrs;
}

// W x {f64, quant}: every geometry below must give the oracle's frames and
// reduced decodes, byte for byte, with no pool and with pools of 1, 2 and 3
// threads.
class SparseHistOracle
    : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  void ExpectMatchesOracle(const std::vector<std::vector<GHPair>>& ranks,
                           uint32_t num_hists, uint32_t cells,
                           const std::string& what) {
    SparseHistFormat fmt = QuantFormat();
    fmt.quant = std::get<1>(GetParam());
    std::vector<std::vector<uint8_t>> want_frames;
    for (const auto& hists : ranks) {
      want_frames.push_back(oracle::Encode(hists, num_hists, cells, fmt));
    }
    const std::vector<uint8_t> want_reduced =
        oracle::Reduce(want_frames, num_hists, cells, fmt);
    const std::vector<GHPair> want_decoded =
        oracle::Decode(want_reduced, num_hists, cells, fmt);

    ThreadPool one(1), two(2), three(3);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &two,
                             &three}) {
      const std::string where =
          what + " threads=" +
          std::to_string(pool != nullptr ? pool->num_threads() : 0);
      std::vector<std::vector<uint8_t>> frames(ranks.size());
      for (size_t r = 0; r < ranks.size(); ++r) {
        EncodeSparseHist(HistPtrs(ranks[r], num_hists, cells).data(),
                         num_hists, cells, fmt, &frames[r], pool);
        EXPECT_EQ(frames[r], want_frames[r]) << where << " rank " << r;
      }
      // Every rank's fold over its own dense cells gives the oracle's
      // reduce-then-decode; its own frame is never read.
      for (size_t self = 0; self < ranks.size(); ++self) {
        std::vector<std::vector<uint8_t>> peers = frames;
        peers[self] = {0xEE};
        const std::vector<GHPair> folded =
            FoldAt(peers, self, ranks[self], num_hists, cells, fmt, pool);
        EXPECT_EQ(0, std::memcmp(folded.data(), want_decoded.data(),
                                 folded.size() * sizeof(GHPair)))
            << where << " fold at rank " << self;
      }
    }
  }
  int world() const { return std::get<0>(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(WorldsAndFormats, SparseHistOracle,
                         ::testing::Combine(::testing::Range(1, 6),
                                            ::testing::Bool()));

TEST_P(SparseHistOracle, PartialLastRegion) {
  std::vector<std::vector<GHPair>> ranks;
  for (int r = 0; r < world(); ++r) {
    ranks.push_back(RandomHists(3, 37, 0.3, 100 + static_cast<uint32_t>(r)));
  }
  ExpectMatchesOracle(ranks, 3, 37, "partial");
}

TEST_P(SparseHistOracle, RunsCrossHistogramBoundaries) {
  // Each rank touches the last cell of one histogram and the first of the
  // next, so a run spans the boundary; rank 0 fills everything, which
  // makes its frame one run over all histograms.
  const uint32_t num_hists = 3;
  const uint32_t cells = 16;
  std::vector<std::vector<GHPair>> ranks;
  for (int r = 0; r < world(); ++r) {
    std::vector<GHPair> hists =
        RandomHists(num_hists, cells, r == 0 ? 1.0 : 0.0,
                    200 + static_cast<uint32_t>(r));
    const uint32_t h = static_cast<uint32_t>(r) % (num_hists - 1);
    hists[h * cells + cells - 1] = GHPair{0.5, 0.25};
    hists[(h + 1) * cells] = GHPair{-0.75, 0.5};
    ranks.push_back(std::move(hists));
  }
  SparseHistFormat fmt = QuantFormat();
  const std::vector<uint8_t> frame =
      oracle::Encode(ranks.back(), num_hists, cells, fmt);
  const oracle::Frame parsed = oracle::Parse(frame, fmt);
  const uint32_t rph = oracle::RegionsPerHist(cells);
  bool crosses = false;
  for (const SparseHistRun& run : parsed.runs) {
    crosses |= run.first_region % rph + run.num_regions > rph;
  }
  ASSERT_TRUE(crosses);
  ExpectMatchesOracle(ranks, num_hists, cells, "crossing");
}

TEST_P(SparseHistOracle, EmptyFrameFromOneRank) {
  std::vector<std::vector<GHPair>> ranks;
  for (int r = 0; r < world(); ++r) {
    ranks.push_back(RandomHists(2, 40, r == world() / 2 ? 0.0 : 0.2,
                                300 + static_cast<uint32_t>(r)));
  }
  ExpectMatchesOracle(ranks, 2, 40, "empty rank");
}

TEST_P(SparseHistOracle, NegativeZeroCells) {
  std::vector<std::vector<GHPair>> ranks;
  for (int r = 0; r < world(); ++r) {
    std::vector<GHPair> hists(24);
    hists[5].g = -0.0;  // every rank: stays -0.0 in f64
    hists[3 + static_cast<size_t>(r)] = GHPair{-0.0, -0.0};
    hists[20] = GHPair{0.25 * (r + 1), 0.5};
    ranks.push_back(std::move(hists));
  }
  ExpectMatchesOracle(ranks, 1, 24, "negative zero");
}

TEST_P(SparseHistOracle, WideBatchGeometry) {
  // The dist_sparse batch shape: 16 histograms of 61,023 cells.
  std::vector<std::vector<GHPair>> ranks;
  for (int r = 0; r < world(); ++r) {
    ranks.push_back(
        RandomHists(16, 61023, 0.05, 400 + static_cast<uint32_t>(r)));
  }
  ExpectMatchesOracle(ranks, 16, 61023, "wide");
}

// Seeded mutations of valid frames — bit flips, truncations, appended
// bytes, boundary values in header, run and bitmap fields, and
// size-preserving shifts of runs and bitmap bits. Every
// mutated frame must either fold or throw std::runtime_error: never
// crash, CHECK-abort or read out of bounds (the ASan/UBSan job runs this).
std::vector<uint8_t> MutateFrame(std::vector<uint8_t> f, std::mt19937& rng) {
  SparseHistHeader h;
  std::memcpy(&h, f.data(), sizeof(h));
  const size_t runs_at = sizeof(h);
  const size_t bitmaps_at = runs_at + h.num_runs * sizeof(SparseHistRun);
  size_t listed = 0;  // bitmap bytes
  for (uint32_t i = 0; i < h.num_runs; ++i) {
    SparseHistRun run;
    std::memcpy(&run, f.data() + runs_at + i * sizeof(run), sizeof(run));
    listed += run.num_regions;
  }
  const uint32_t boundary[] = {0u,          1u,          0x7FFFFFFFu,
                               0x80000000u, 0xFFFFFFFFu, h.num_runs + 1,
                               h.payload_cells + 1};
  const auto put_u32 = [&](size_t at, uint32_t v) {
    if (at + sizeof(v) <= f.size()) std::memcpy(f.data() + at, &v, sizeof(v));
  };
  const uint32_t pick = rng() % 8;
  if (pick == 0) {
    for (uint32_t n = 1 + rng() % 4; n > 0; --n) {
      f[rng() % f.size()] ^= static_cast<uint8_t>(1u << (rng() % 8));
    }
  } else if (pick == 1) {
    f.resize(rng() % f.size());
  } else if (pick == 2) {
    for (uint32_t n = 1 + rng() % 16; n > 0; --n) {
      f.push_back(static_cast<uint8_t>(rng()));
    }
  } else if (pick == 3) {
    // num_hists, cells_per_hist, num_runs, payload_cells
    put_u32(8 + 4 * (rng() % 4), boundary[rng() % std::size(boundary)]);
  } else if (pick == 4 && h.num_runs > 0) {
    put_u32(runs_at + (rng() % h.num_runs) * sizeof(SparseHistRun) +
                4 * (rng() % 2),
            boundary[rng() % std::size(boundary)]);
  } else if (pick == 5 && h.num_runs > 0) {
    // Shift one run by a region: the frame keeps its size.
    const size_t at = runs_at + (rng() % h.num_runs) * sizeof(SparseHistRun);
    uint32_t first;
    std::memcpy(&first, f.data() + at, sizeof(first));
    put_u32(at, rng() % 2 == 0 ? first + 1 : first - 1);
  } else if (pick == 6 && listed > 0) {
    // Move one set bit of a bitmap: the popcount, and so every size
    // check, still holds.
    uint8_t& bitmap = f[bitmaps_at + rng() % listed];
    const int from = static_cast<int>(rng() % 8);
    const int to = static_cast<int>(rng() % 8);
    if (((bitmap >> from) & 1) && !((bitmap >> to) & 1)) {
      bitmap = static_cast<uint8_t>((bitmap & ~(1u << from)) | (1u << to));
    }
  } else if (listed > 0) {
    const uint8_t values[] = {0, 0xFF, 0x80, static_cast<uint8_t>(rng())};
    f[bitmaps_at + rng() % listed] = values[rng() % std::size(values)];
  }
  return f;
}

TEST(SparseHistCodecEdge, MutatedFramesThrowOrDecode) {
  struct Geometry {
    uint32_t num_hists;
    uint32_t cells;
    bool quant;
  };
  ThreadPool pool(2);
  uint32_t seed = 1;
  int decoded = 0;
  int rejected = 0;
  for (const Geometry g : {Geometry{1, 16, false}, Geometry{3, 37, true},
                           Geometry{4, 61, false}, Geometry{2, 24, true}}) {
    SparseHistFormat fmt = QuantFormat();
    fmt.quant = g.quant;
    const std::vector<GHPair> hists =
        RandomHists(g.num_hists, g.cells, 0.3, seed);
    std::vector<uint8_t> frame;
    EncodeSparseHist(HistPtrs(hists, g.num_hists, g.cells).data(),
                     g.num_hists, g.cells, fmt, &frame);
    // One allocation per histogram, so a write past any histogram's end
    // is out of bounds for ASan.
    std::vector<std::vector<GHPair>> out(g.num_hists,
                                         std::vector<GHPair>(g.cells));
    std::vector<GHPair*> out_ptrs(g.num_hists);
    for (uint32_t h = 0; h < g.num_hists; ++h) out_ptrs[h] = out[h].data();
    std::mt19937 rng(seed++);
    for (int iter = 0; iter < 600; ++iter) {
      const std::vector<uint8_t> bad = MutateFrame(frame, rng);
      ThreadPool* p = iter % 2 == 0 ? &pool : nullptr;
      // Rank 2, which holds nothing, folds a good frame and the bad one.
      for (auto& hist : out) std::fill(hist.begin(), hist.end(), GHPair{});
      const Transport::Frames views = {{frame.data(), frame.size()},
                                       {bad.data(), bad.size()},
                                       {nullptr, 0}};
      try {
        FoldSparseHist(views, 2, out_ptrs.data(), g.num_hists, g.cells, fmt,
                       p);
        ++decoded;
      } catch (const std::runtime_error&) {
        ++rejected;
      }
    }
  }
  // Both outcomes occur: payload bit flips still fold, header damage
  // does not.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

// ---------- DistributedGbdt ----------

Dataset TrainData(uint32_t rows = 4000) {
  SyntheticSpec spec;
  spec.rows = rows;
  spec.features = 10;
  spec.density = 0.9;
  spec.margin_scale = 3.0;
  spec.seed = 1101;
  return GenerateSynthetic(spec);
}

TrainParams DistParams(int trees = 5) {
  TrainParams p;
  p.num_trees = trees;
  p.tree_size = 4;
  p.grow_policy = GrowPolicy::kTopK;
  p.topk = 8;
  return p;
}

TEST(DistributedGbdt, SingleWorkerLearns) {
  const Dataset data = TrainData();
  const DistributedResult result =
      DistributedGbdt::Train(data, 1, DistParams(10));
  EXPECT_GT(Auc(data.labels(), result.model.Predict(data)), 0.85);
}

TEST(DistributedGbdt, WorkerCountDoesNotChangeTheModel) {
  const Dataset data = TrainData();
  const DistributedResult one = DistributedGbdt::Train(data, 1, DistParams());
  for (int workers : {2, 4}) {
    const DistributedResult many =
        DistributedGbdt::Train(data, workers, DistParams());
    ASSERT_EQ(one.model.NumTrees(), many.model.NumTrees());
    for (size_t t = 0; t < one.model.NumTrees(); ++t) {
      // Identical structure and splits. Leaf values may differ at the
      // last float bit from summation order; compare structure + predict.
      const RegTree& a = one.model.tree(t);
      const RegTree& b = many.model.tree(t);
      ASSERT_EQ(a.num_nodes(), b.num_nodes()) << "workers " << workers;
      for (int i = 0; i < a.num_nodes(); ++i) {
        EXPECT_EQ(a.node(i).IsLeaf(), b.node(i).IsLeaf());
        if (!a.node(i).IsLeaf()) {
          EXPECT_EQ(a.node(i).split_feature, b.node(i).split_feature);
          EXPECT_EQ(a.node(i).split_bin, b.node(i).split_bin);
          EXPECT_EQ(a.node(i).default_left, b.node(i).default_left);
        } else {
          EXPECT_NEAR(a.node(i).leaf_value, b.node(i).leaf_value, 1e-9);
        }
        EXPECT_EQ(a.node(i).num_rows, b.node(i).num_rows);
      }
    }
  }
}

// ---------- one grow loop: byte identity ----------
//
// Sharded training is the single-process HarpTreeBuilder plus a reducer,
// so one worker must reproduce GbdtTrainer bit for bit (SerializeModel
// emits hex floats), and with quantized histograms — exact integer sums —
// so must every worker count.

constexpr int kWorkerThreads = 2;

TrainParams IdentityParams(ParallelMode mode, bool subtraction, bool quant) {
  TrainParams p = DistParams(3);
  p.tree_size = 5;
  p.mode = mode;
  p.use_hist_subtraction = subtraction;
  p.quantize_hist = quant;
  return p;
}

std::string SingleProcessModel(const Dataset& data, TrainParams p) {
  p.num_threads = kWorkerThreads;
  return SerializeModel(GbdtTrainer(p).Train(data));
}

std::string ShardedModel(const Dataset& data, int workers,
                         const TrainParams& p) {
  return SerializeModel(
      DistributedGbdt::Train(data, workers, p, kWorkerThreads).model);
}

std::string CaseName(const TrainParams& p) {
  return ToString(p.mode) + " sub=" + std::to_string(p.use_hist_subtraction) +
         " quant=" + std::to_string(p.quantize_hist);
}

TEST(DistributedGbdt, OneWorkerMatchesGbdtTrainerBytewise) {
  const Dataset data = TrainData(2500);
  for (ParallelMode mode :
       {ParallelMode::kDP, ParallelMode::kMP, ParallelMode::kSYNC}) {
    for (bool subtraction : {false, true}) {
      for (bool quant : {false, true}) {
        const TrainParams p = IdentityParams(mode, subtraction, quant);
        EXPECT_EQ(SingleProcessModel(data, p), ShardedModel(data, 1, p))
            << CaseName(p);
      }
    }
  }
}

TEST(DistributedGbdt, OneWorkerMatchesGbdtTrainerWithSampling) {
  const Dataset data = TrainData(2500);
  const TrainParams base =
      IdentityParams(ParallelMode::kSYNC, /*subtraction=*/true, false);
  TrainParams rows = base;
  rows.subsample = 0.8;
  TrainParams cols = base;
  cols.colsample_bytree = 0.7;
  for (const TrainParams* p : {&rows, &cols}) {
    const std::string model = ShardedModel(data, 1, *p);
    EXPECT_EQ(SingleProcessModel(data, *p), model);
    // Sampling is honoured, not ignored.
    EXPECT_NE(ShardedModel(data, 1, base), model);
    EXPECT_NE(ShardedModel(data, 2, base), ShardedModel(data, 2, *p));
  }
}

Dataset RegressionData(uint32_t rows) {
  SyntheticSpec spec;
  spec.rows = rows;
  spec.features = 10;
  spec.label = LabelKind::kRegression;
  spec.margin_scale = 2.0;
  spec.seed = 411;
  return GenerateSynthetic(spec);
}

TEST(DistributedGbdt, OneWorkerMatchesGbdtTrainerForQuantile) {
  const Dataset data = RegressionData(2500);
  TrainParams p = IdentityParams(ParallelMode::kSYNC, false, false);
  p.objective = ObjectiveKind::kQuantile;
  p.quantile_alpha = 0.9;
  p.base_score = 0.0;
  EXPECT_EQ(SingleProcessModel(data, p), ShardedModel(data, 1, p));
}

// Row sampling hashes the global row index, so every sharding draws the
// same sample and quantized models stay worker-count invariant.
TEST(DistributedGbdt, RowSamplingIsWorkerCountInvariant) {
  const Dataset data = TrainData(2500);
  TrainParams p =
      IdentityParams(ParallelMode::kSYNC, /*subtraction=*/true, /*quant=*/true);
  p.subsample = 0.7;
  const std::string one = ShardedModel(data, 1, p);
  EXPECT_EQ(SingleProcessModel(data, p), one);
  for (int workers : {2, 3}) {
    EXPECT_EQ(one, ShardedModel(data, workers, p)) << "workers=" << workers;
  }
}

TEST(DistributedGbdt, QuantizedModelIsWorkerCountInvariant) {
  const Dataset data = TrainData(2500);
  for (ParallelMode mode :
       {ParallelMode::kDP, ParallelMode::kMP, ParallelMode::kSYNC}) {
    for (bool subtraction : {false, true}) {
      TrainParams p = IdentityParams(mode, subtraction, /*quant=*/true);
      const std::string one = ShardedModel(data, 1, p);
      for (int workers : {2, 3, 4, 5}) {
        for (const char* compress : {"dense", "sparse"}) {
          p.comm_compress = compress;
          EXPECT_EQ(one, ShardedModel(data, workers, p))
              << CaseName(p) << " workers=" << workers << " " << compress;
        }
      }
    }
  }
}

// Owner-computes split finding at every worker count from 1 to 5 (a rank
// per feature range, merged by BetterThan): with quantized histograms
// (exact sums) every count, encoding and subtraction setting writes the
// single-process model; with f64 histograms the sparse encoding writes the
// dense oracle's model at every count.
TEST(DistributedGbdt, OwnerComputesMatchesEveryEncodingAndWorkerCount) {
  const Dataset data = TrainData(1500);
  for (bool subtraction : {false, true}) {
    for (bool quant : {false, true}) {
      TrainParams p = IdentityParams(ParallelMode::kSYNC, subtraction, quant);
      const std::string single = SingleProcessModel(data, p);
      for (int workers = 1; workers <= 5; ++workers) {
        p.comm_compress = "dense";
        const std::string dense = ShardedModel(data, workers, p);
        p.comm_compress = "sparse";
        const std::string sparse = ShardedModel(data, workers, p);
        const std::string where =
            CaseName(p) + " workers=" + std::to_string(workers);
        EXPECT_EQ(dense, sparse) << where;
        if (quant || workers == 1) {
          EXPECT_EQ(single, dense) << where;
        }
      }
    }
  }
}

// Every feature duplicated, the copies appended: the owner boundary at two
// ranks falls exactly between the originals and the copies, so every
// split ties across ranks and the merge must keep the lower feature, as
// one scan does.
TEST(DistributedGbdt, TiesAcrossOwnersKeepTheLowerFeature) {
  const Dataset base = TrainData(1500);
  const uint32_t nf = base.num_features();
  std::vector<float> values;
  for (uint32_t r = 0; r < base.num_rows(); ++r) {
    for (uint32_t copy = 0; copy < 2; ++copy) {
      for (uint32_t f = 0; f < nf; ++f) values.push_back(base.At(r, f));
    }
  }
  const Dataset data = Dataset::FromDense(base.num_rows(), 2 * nf,
                                          std::move(values), base.labels());
  const BinnedMatrix matrix =
      BinnedMatrix::Build(data, QuantileCuts::Compute(data, 256));
  ASSERT_EQ(FeatureOwnerBounds(matrix.BinOffsetsData(), 2 * nf, 2),
            (std::vector<uint32_t>{0, nf, 2 * nf}));
  for (bool quant : {false, true}) {
    TrainParams p = IdentityParams(ParallelMode::kSYNC, true, quant);
    const std::string single = SingleProcessModel(data, p);
    for (int workers : {2, 3, 4}) {
      for (const char* compress : {"dense", "sparse"}) {
        p.comm_compress = compress;
        const DistributedResult result =
            DistributedGbdt::Train(data, workers, p, kWorkerThreads);
        const std::string where = CaseName(p) + " workers=" +
                                  std::to_string(workers) + " " + compress;
        if (quant) {
          EXPECT_EQ(single, SerializeModel(result.model)) << where;
        }
        for (const RegTree& tree : result.model.trees()) {
          for (int i = 0; i < tree.num_nodes(); ++i) {
            if (!tree.node(i).IsLeaf()) {
              EXPECT_LT(tree.node(i).split_feature, nf) << where;
            }
          }
        }
      }
    }
  }
}

// More workers than features: some ranks own no feature, scan nothing and
// still take part in every collective.
TEST(DistributedGbdt, WorkersWithoutFeatures) {
  SyntheticSpec spec;
  spec.rows = 1200;
  spec.features = 3;
  spec.density = 0.9;
  spec.margin_scale = 3.0;
  spec.seed = 1103;
  const Dataset data = GenerateSynthetic(spec);
  TrainParams p = IdentityParams(ParallelMode::kSYNC, true, /*quant=*/true);
  const std::string single = SingleProcessModel(data, p);
  for (int workers : {4, 6}) {
    for (const char* compress : {"dense", "sparse"}) {
      p.comm_compress = compress;
      EXPECT_EQ(single, ShardedModel(data, workers, p))
          << "workers=" << workers << " " << compress;
    }
  }
}

TEST(FeatureOwnerBounds, BalancesCellsWithContiguousRanges) {
  const uint32_t even[] = {0, 10, 20, 30, 40};
  EXPECT_EQ(FeatureOwnerBounds(even, 4, 1), (std::vector<uint32_t>{0, 4}));
  EXPECT_EQ(FeatureOwnerBounds(even, 4, 2), (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_EQ(FeatureOwnerBounds(even, 4, 4),
            (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  // Five ranks over four features: one owns none.
  EXPECT_EQ(FeatureOwnerBounds(even, 4, 5),
            (std::vector<uint32_t>{0, 1, 2, 2, 3, 4}));
  // One wide feature: the boundary nearest each share's end.
  const uint32_t wide[] = {0, 100, 101, 102};
  EXPECT_EQ(FeatureOwnerBounds(wide, 3, 2), (std::vector<uint32_t>{0, 1, 3}));
  EXPECT_EQ(FeatureOwnerBounds(wide, 3, 3),
            (std::vector<uint32_t>{0, 0, 1, 3}));
  // Ties go to the lower boundary: cell 4 is as far from 2 as from 6.
  const uint32_t tie[] = {0, 2, 6};
  EXPECT_EQ(FeatureOwnerBounds(tie, 2, 3),
            (std::vector<uint32_t>{0, 1, 1, 2}));
}

TEST(DistributedGbdt, ShardingErrorNamesWhatCannotBeHonoured) {
  const Dataset data = TrainData(4);
  const TrainParams p = DistParams(1);
  EXPECT_EQ(ShardingError(data, p, 4), "");
  EXPECT_NE(ShardingError(data, p, 0).find("at least 1, got 0"),
            std::string::npos);
  EXPECT_NE(ShardingError(data, p, -3).find("got -3"), std::string::npos);
  EXPECT_NE(ShardingError(data, p, 5).find("5 workers need at least 5 rows"),
            std::string::npos);
  TrainParams bad = p;
  bad.tree_size = 99;
  EXPECT_EQ(ShardingError(data, bad, 2), bad.Check());
}

// The sharded trainer builds its objective from every TrainParams field:
// an alpha=0.9 fit must cover ~90% of the labels, not the median's 50%.
TEST(DistributedGbdt, QuantileCoverageMatchesAlpha) {
  const Dataset data = RegressionData(6000);
  TrainParams p = DistParams(80);
  p.tree_size = 8;
  p.objective = ObjectiveKind::kQuantile;
  p.quantile_alpha = 0.9;
  p.base_score = 0.0;
  const GbdtModel model =
      DistributedGbdt::Train(data, 2, p, kWorkerThreads).model;
  EXPECT_EQ(model.quantile_alpha(), 0.9);
  const std::vector<double> preds = model.Predict(data);
  double covered = 0.0;
  for (size_t i = 0; i < preds.size(); ++i) {
    if (static_cast<double>(data.labels()[i]) <= preds[i]) covered += 1.0;
  }
  EXPECT_NEAR(covered / static_cast<double>(preds.size()), 0.9, 0.02);
}

// With subtraction only the directly built child of each split crosses the
// wire: 1 + splits histograms per tree instead of 1 + 2 * splits. Under
// quantization the subtraction is exact, so the model does not change.
TEST(DistributedGbdt, SubtractionExchangesOneChildPerSplit) {
  const Dataset data = TrainData(2500);
  const int64_t cells =
      BinnedMatrix::Build(data, QuantileCuts::Compute(data, 256)).TotalBins();
  // At two ranks each exchanged histogram moves once per rank: the cells
  // the peer owns are sent, and the rank's own cells are received.
  const int64_t per_hist = DenseHistBytes(1, static_cast<uint32_t>(cells));
  std::string models[2];
  for (bool subtraction : {false, true}) {
    TrainParams p =
        IdentityParams(ParallelMode::kSYNC, subtraction, /*quant=*/true);
    const DistributedResult result =
        DistributedGbdt::Train(data, 2, p, kWorkerThreads);
    // The shards grow the single-process trees from the same queue, so
    // they build exactly the histograms a single process builds: the
    // root, the smaller child of each split, and both children of a
    // popped candidate whose histogram was not retained.
    p.num_threads = kWorkerThreads;
    TrainStats single;
    GbdtTrainer(p).Train(data, &single);
    int64_t splits = 0;
    for (const RegTree& tree : result.model.trees()) {
      splits += tree.num_nodes() / 2;
    }
    const int64_t trees = static_cast<int64_t>(result.model.trees().size());
    EXPECT_GE(single.hist_builds, trees + splits);
    EXPECT_LE(single.hist_builds, trees + 2 * splits);
    if (!subtraction) {
      EXPECT_EQ(single.hist_builds, trees + 2 * splits);
    }
    for (const CommStats& rank : result.per_rank) {
      EXPECT_EQ(rank.hist_dense_bytes, single.hist_builds * per_hist)
          << "subtraction=" << subtraction;
    }
    models[subtraction] = SerializeModel(result.model);
  }
  EXPECT_EQ(models[0], models[1]);
}

// Query groups are never split across workers, so LambdaRank sees whole
// queries on every shard and trains the same model at any worker count.
TEST(DistributedGbdt, LambdaRankShardsWholeQueries) {
  RankingSpec spec;
  spec.num_queries = 60;
  spec.seed = 101;
  const Dataset data = GenerateRankingSynthetic(spec);
  TrainParams p = DistParams(4);
  p.objective = ObjectiveKind::kLambdaRank;
  p.quantize_hist = true;
  EXPECT_EQ(ShardedModel(data, 1, p), ShardedModel(data, 2, p));
}

TEST(DistributedGbdtDeath, FewerQueriesThanWorkers) {
  RankingSpec spec;
  spec.num_queries = 2;
  const Dataset data = GenerateRankingSynthetic(spec);
  TrainParams p = DistParams(1);
  p.objective = ObjectiveKind::kLambdaRank;
  EXPECT_DEATH(DistributedGbdt::Train(data, 3, p),
               "at least as many query groups as workers");

  // Enough queries, but the middle worker's boundaries both snap to the
  // start of the one large query.
  Dataset uneven = TrainData(100);
  uneven.SetGroupPtr({0, 1, 2, 100});
  EXPECT_DEATH(DistributedGbdt::Train(uneven, 3, DistParams(1)),
               "worker 1 gets no rows");
}

TEST(DistributedGbdtDeath, AsyncModeRejected) {
  TrainParams p = DistParams(1);
  p.mode = ParallelMode::kASYNC;
  EXPECT_DEATH(DistributedGbdt::Train(TrainData(200), 2, p),
               "ASYNC mode cannot train sharded");
}

TEST(DistributedGbdt, CommunicationVolumeScalesWithWorkers) {
  const Dataset data = TrainData(2000);
  const DistributedResult two = DistributedGbdt::Train(data, 2, DistParams(2));
  const DistributedResult four =
      DistributedGbdt::Train(data, 4, DistParams(2));
  EXPECT_GT(two.comm.allreduce_calls, 0);
  // Per-rank calls are equal; total calls and bytes grow with world size.
  EXPECT_GT(four.comm.allreduce_calls, two.comm.allreduce_calls);
  EXPECT_GT(four.comm.allreduce_bytes, two.comm.allreduce_bytes);
}

TEST(DistributedGbdt, UnevenShardsHandled) {
  const Dataset data = TrainData(1003);  // does not divide evenly
  const DistributedResult result =
      DistributedGbdt::Train(data, 4, DistParams(3));
  EXPECT_EQ(result.model.NumTrees(), 3u);
  for (const RegTree& tree : result.model.trees()) {
    EXPECT_TRUE(tree.CheckValid());
    EXPECT_EQ(tree.node(0).num_rows, data.num_rows());
  }
}

TEST(DistributedGbdtDeath, MoreWorkersThanRows) {
  const Dataset data = TrainData(4);
  EXPECT_DEATH(DistributedGbdt::Train(data, 8, DistParams(1)), "CHECK");
}

// The acceptance gate of the compressed exchange: at every worker count,
// with and without histogram quantization, on sparse and dense data, the
// sparse wire format must reproduce the dense f64 oracle's model bit for
// bit (SerializeModel emits hex floats, so string equality is bit
// equality).
TEST(DistributedGbdt, SparseExchangeModelMatchesDenseOracle) {
  SyntheticSpec sparse_spec;
  sparse_spec.rows = 700;
  sparse_spec.features = 40;
  sparse_spec.density = 0.08;
  sparse_spec.density_skew = 0.8;
  sparse_spec.mean_distinct = 32.0;
  sparse_spec.distinct_cv = 0.5;
  sparse_spec.margin_scale = 3.0;
  sparse_spec.sparse_storage = true;
  sparse_spec.seed = 2203;
  const Dataset sparse_data = GenerateSynthetic(sparse_spec);
  const Dataset dense_data = TrainData(700);

  for (const Dataset* data : {&sparse_data, &dense_data}) {
    for (const bool quant : {false, true}) {
      for (const int workers : {1, 2, 3, 4}) {
        TrainParams p = DistParams(2);
        p.tree_size = 3;
        p.quantize_hist = quant;
        p.comm_compress = "dense";
        const DistributedResult oracle =
            DistributedGbdt::Train(*data, workers, p);
        p.comm_compress = "sparse";
        const DistributedResult compressed =
            DistributedGbdt::Train(*data, workers, p);
        EXPECT_EQ(SerializeModel(oracle.model),
                  SerializeModel(compressed.model))
            << "workers=" << workers << " quant=" << quant
            << " rows=" << data->num_rows();
        // The sparse path must actually compress relative to dense f64
        // whenever histograms were exchanged.
        if (workers > 1) {
          EXPECT_LT(compressed.comm.hist_wire_bytes,
                    compressed.comm.hist_dense_bytes);
        }
      }
    }
  }
}

// rows == workers: every shard holds exactly one row, so after the first
// split most nodes are empty on most ranks — their local histograms are
// all-zero and their sparse frames header-only.
TEST(DistributedGbdt, OneRowShards) {
  const Dataset data = TrainData(6);
  for (const char* compress : {"dense", "sparse"}) {
    TrainParams p = DistParams(2);
    p.tree_size = 3;
    p.comm_compress = compress;
    const DistributedResult result = DistributedGbdt::Train(data, 6, p);
    EXPECT_EQ(result.model.NumTrees(), 2u);
    for (const RegTree& tree : result.model.trees()) {
      EXPECT_TRUE(tree.CheckValid());
    }
  }
}

// ---------- SocketTransport ----------

// Distinct base port per test process; tests in this binary run
// sequentially and use different offsets.
int TestPort(int offset) { return 21100 + (getpid() % 997) * 7 % 8000 + offset; }

TEST(SocketTransport, CollectivesMatchInProcessSemantics) {
  const int world = 3;
  const int port = TestPort(0);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int rank = 0; rank < world; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        auto transport = SocketTransport::Create(rank, world, port);
        Communicator comm(*transport);
        double sum[2] = {static_cast<double>(rank + 1), 0.5};
        comm.AllreduceSum(sum, 2);
        if (sum[0] != 6.0 || sum[1] != 1.5) ++failures;
        int64_t isum = rank;
        comm.AllreduceSum(&isum, 1);
        if (isum != 3) ++failures;
        double mx = rank == 1 ? 9.0 : -1.0;
        comm.AllreduceMax(&mx, 1);
        if (mx != 9.0) ++failures;
        GHPair gh{static_cast<double>(rank), 1.0};
        comm.AllreduceSum(&gh, 1);
        if (gh.g != 3.0 || gh.h != 3.0) ++failures;
        if (comm.stats().allreduce_calls != 4) ++failures;
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Both collectives of one rank: rank r's frame holds segment s as bytes
// 10r + s, repeated r + s + 1 times, except that segment 1 is empty. Rank
// r must receive segment r of every rank's frame, and every rank's whole
// frame, in rank order. Returns the number of mismatches.
int CheckCollectives(Transport& transport) {
  const int world = transport.world_size();
  const int rank = transport.rank();
  const auto segment = [](int r, int seg) {
    return seg == 1 ? std::vector<uint8_t>{}
                    : std::vector<uint8_t>(static_cast<size_t>(r + seg + 1),
                                           static_cast<uint8_t>(10 * r + seg));
  };
  std::vector<uint8_t> frame;
  std::vector<size_t> bounds = {0};
  for (int seg = 0; seg < world; ++seg) {
    const std::vector<uint8_t> bytes = segment(rank, seg);
    frame.insert(frame.end(), bytes.begin(), bytes.end());
    bounds.push_back(frame.size());
  }
  int mismatches = 0;
  transport.ReduceScatter(
      frame.data(), bounds.data(), [&](const Transport::Frames& frames) {
        mismatches += static_cast<int>(frames.size()) != world;
        for (size_t w = 0; w < frames.size(); ++w) {
          const std::vector<uint8_t> want = segment(static_cast<int>(w), rank);
          mismatches += std::vector<uint8_t>(frames[w].first,
                                             frames[w].first +
                                                 frames[w].second) != want;
        }
      });
  transport.Allgather(frame.data(), frame.size(),
                      [&](const Transport::Frames& frames) {
                        mismatches += static_cast<int>(frames.size()) != world;
                        for (size_t w = 0; w < frames.size(); ++w) {
                          std::vector<uint8_t> want;
                          for (int seg = 0; seg < world; ++seg) {
                            const auto bytes = segment(static_cast<int>(w), seg);
                            want.insert(want.end(), bytes.begin(), bytes.end());
                          }
                          mismatches += std::vector<uint8_t>(
                                            frames[w].first,
                                            frames[w].first + frames[w].second) !=
                                        want;
                        }
                      });
  return mismatches;
}

TEST(SocketTransport, CollectivesRouteFramesInRankOrder) {
  for (const int world : {1, 2, 3}) {
    const int port = TestPort(40 + world);
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int rank = 0; rank < world; ++rank) {
      threads.emplace_back([&, rank] {
        try {
          auto transport = SocketTransport::Create(rank, world, port);
          failures += CheckCollectives(*transport);
        } catch (const std::exception&) {
          ++failures;
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0) << "world " << world;

    InProcessCluster cluster(world);
    std::atomic<int> inproc_failures{0};
    threads.clear();
    for (int rank = 0; rank < world; ++rank) {
      threads.emplace_back([&, rank] {
        inproc_failures += CheckCollectives(cluster.transport(rank));
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(inproc_failures.load(), 0) << "in process, world " << world;
  }
}

// Ranks that disagree on an allreduce's count all throw: every rank
// receives every frame and checks every frame's size.
TEST(SocketTransport, MismatchedAllreduceCountsThrowOnEveryRank) {
  const int world = 3;
  int offset = 30;
  for (const std::vector<size_t>& counts :
       {std::vector<size_t>{2, 2, 3}, std::vector<size_t>{3, 2, 2}}) {
    const int port = TestPort(offset++);
    std::atomic<int> threw{0};
    std::vector<std::thread> threads;
    for (int rank = 0; rank < world; ++rank) {
      threads.emplace_back([&, rank] {
        try {
          auto transport = SocketTransport::Create(rank, world, port);
          Communicator comm(*transport);
          std::vector<double> data(counts[static_cast<size_t>(rank)], 1.0);
          comm.AllreduceSum(data.data(), data.size());
        } catch (const std::runtime_error&) {
          ++threw;
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(threw.load(), world) << "counts " << counts[0] << ","
                                   << counts[1] << "," << counts[2];
  }
}

TEST(SocketTransport, TrainedModelMatchesInProcessBitwise) {
  const Dataset data = TrainData(900);
  TrainParams p = DistParams(2);
  p.tree_size = 3;
  p.quantize_hist = true;
  p.comm_compress = "sparse";
  const int world = 3;
  // Two threads per rank: rank 0 reduces the socket frames on its pool.
  const DistributedResult inproc =
      DistributedGbdt::Train(data, world, p, kWorkerThreads);
  const std::string expect = SerializeModel(inproc.model);

  const int port = TestPort(10);
  std::vector<std::string> models(world);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int rank = 0; rank < world; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        auto transport = SocketTransport::Create(rank, world, port);
        Communicator comm(*transport);
        models[static_cast<size_t>(rank)] = SerializeModel(
            DistributedGbdt::TrainShard(data, comm, p, kWorkerThreads));
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  for (int rank = 0; rank < world; ++rank) {
    EXPECT_EQ(models[static_cast<size_t>(rank)], expect) << "rank " << rank;
  }
}

TEST(SocketTransport, RejectsMalformedHandshakeFrame) {
  const int port = TestPort(20);
  std::atomic<bool> threw{false};
  std::thread root([&] {
    try {
      // The handshake validates every frame; garbage must throw, not be
      // interpreted.
      SocketTransport::Create(0, 2, port, /*timeout_ms=*/5000);
    } catch (const std::runtime_error&) {
      threw = true;
    }
  });
  std::thread client([&] {
    // Raw TCP client sending 64 bytes of garbage instead of a hello.
    int fd = -1;
    for (int attempt = 0; attempt < 200; ++attempt) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      ASSERT_GE(fd, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        break;
      }
      ::close(fd);
      fd = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ASSERT_GE(fd, 0) << "could not connect to test root";
    uint8_t garbage[64];
    std::memset(garbage, 0xAB, sizeof(garbage));
    (void)::send(fd, garbage, sizeof(garbage), 0);
    ::close(fd);
  });
  root.join();
  client.join();
  EXPECT_TRUE(threw.load());
}

}  // namespace
}  // namespace harp
