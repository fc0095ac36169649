// Quantized-histogram tests: scale selection invariants on adversarial
// gradient distributions, round-trip error bounds, pack/widen/cell field
// arithmetic, thread-count determinism, forced-scalar vs forced-AVX2
// bit-identity of the whole quantized pipeline (quantize, accumulate,
// reduce, dequantize), kernel parity against a WidenQuant reference loop
// across every dispatch variant, the quantized DP builder, and end-to-end
// training accuracy against the f64 oracle.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/gbdt.h"
#include "core/hist_builder.h"
#include "core/hist_kernels.h"
#include "core/metrics.h"
#include "core/quantize.h"
#include "core/simd.h"
#include "data/synthetic.h"
#include "test_util.h"

namespace harp {
namespace {

using harp::testing::MakeDataset;
using harp::testing::MakeGradients;
using harp::testing::NaiveHist;

// Multiplicative slack on the analytic rounding bounds: the scaled value
// g * 2^k is exact in float (power-of-two multiply) except when it lands
// in the subnormal range, where the absolute loss is < 2^-126 — far below
// half a quantization step. The slack absorbs that and the f64 reference
// accumulation rounding.
constexpr double kBoundSlack = 1.0 + 1e-6;

std::vector<GradientPair> ConstGradients(size_t n, float g, float h) {
  std::vector<GradientPair> gh(n);
  for (auto& p : gh) {
    p.g = g;
    p.h = h;
  }
  return gh;
}

// Checks the documented scale-selection contract for one channel.
void CheckExponent(int exp, double max_abs, double sum_abs, double fit_limit,
                   size_t n, const std::string& channel) {
  SCOPED_TRACE(channel);
  ASSERT_GE(exp, -126);
  ASSERT_LE(exp, 126);
  if (max_abs == 0.0) {
    // All-zero stream: any scale is exact; the picker returns the max.
    EXPECT_EQ(exp, 126);
    return;
  }
  const double sum_room = kQuantSumLimit - static_cast<double>(n);
  // fit: every row's scaled magnitude fits the 16-bit field.
  EXPECT_LE(std::ldexp(max_abs, exp), fit_limit);
  // sum: any per-cell subset sum plus one unit of rounding drift per row
  // fits the 32-bit field.
  EXPECT_LE(std::ldexp(sum_abs, exp), sum_room);
  // Maximality: one more bit of precision violates a constraint (unless
  // already clamped at the top of the exact-power-of-two range).
  if (exp < 126) {
    EXPECT_TRUE(std::ldexp(max_abs, exp + 1) > fit_limit ||
                std::ldexp(sum_abs, exp + 1) > sum_room)
        << "exponent " << exp << " is not maximal";
  }
}

void CheckScales(const QuantScales& s,
                 const std::vector<GradientPair>& gh) {
  double g_max = 0.0, h_max = 0.0, g_sum = 0.0, h_sum = 0.0;
  for (const auto& p : gh) {
    g_max = std::max(g_max, static_cast<double>(std::fabs(p.g)));
    h_max = std::max(h_max, static_cast<double>(p.h));
    g_sum += std::fabs(p.g);
    h_sum += p.h;
  }
  CheckExponent(s.g_exp, g_max, g_sum, kQuantGMax, gh.size(), "g");
  CheckExponent(s.h_exp, h_max, h_sum, kQuantHMax, gh.size(), "h");
  // Scale fields are exact powers of two and exact inverses of each other.
  EXPECT_EQ(s.g_scale, std::ldexp(1.0f, s.g_exp));
  EXPECT_EQ(s.h_scale, std::ldexp(1.0f, s.h_exp));
  EXPECT_EQ(s.g_inv, std::ldexp(1.0, -s.g_exp));
  EXPECT_EQ(s.h_inv, std::ldexp(1.0, -s.h_exp));
  EXPECT_EQ(static_cast<double>(s.g_scale) * s.g_inv, 1.0);
  EXPECT_EQ(static_cast<double>(s.h_scale) * s.h_inv, 1.0);
}

// Round-trip bound over every row: round-to-nearest moves each value by
// at most half a step.
void CheckRoundTrip(const std::vector<GradientPair>& gh,
                    const QuantScales& s,
                    const AlignedVector<int32_t>& packed) {
  ASSERT_EQ(packed.size(), gh.size());
  const double g_bound = 0.5 * s.g_inv * kBoundSlack;
  const double h_bound = 0.5 * s.h_inv * kBoundSlack;
  for (size_t i = 0; i < gh.size(); ++i) {
    const double g_back = static_cast<double>(QuantG(packed[i])) * s.g_inv;
    const double h_back = static_cast<double>(QuantH(packed[i])) * s.h_inv;
    ASSERT_LE(std::fabs(g_back - static_cast<double>(gh[i].g)), g_bound)
        << "row " << i;
    ASSERT_LE(std::fabs(h_back - static_cast<double>(gh[i].h)), h_bound)
        << "row " << i;
    ASSERT_GE(QuantH(packed[i]), 0) << "row " << i;
  }
}

// ---------- scale selection on adversarial distributions ----------

TEST(QuantScales, RandomGradientsSatisfyFitSumAndMaximality) {
  const auto gh = MakeGradients(5000, 7);
  const QuantScales s = ComputeQuantScales(gh, nullptr);
  CheckScales(s, gh);
  AlignedVector<int32_t> packed;
  QuantizeGradients(gh, s, 0, nullptr, &packed);
  CheckRoundTrip(gh, s, packed);
}

TEST(QuantScales, DenormalGradientsStayExactWithinHalfStep) {
  // Subnormal floats: the exponent clamps at 126 and scaled values round
  // to zero, but the round-trip error must still respect the step bound.
  auto gh = ConstGradients(64, 1e-40f, 1e-41f);
  gh[3].g = -1e-40f;
  const QuantScales s = ComputeQuantScales(gh, nullptr);
  CheckScales(s, gh);
  EXPECT_TRUE(std::isfinite(s.g_scale));
  EXPECT_TRUE(std::isfinite(s.g_inv));
  AlignedVector<int32_t> packed;
  QuantizeGradients(gh, s, 0, nullptr, &packed);
  CheckRoundTrip(gh, s, packed);
}

TEST(QuantScales, MaxMagnitudeGradientsFitWithoutOverflow) {
  auto gh = ConstGradients(100, FLT_MAX, FLT_MAX);
  for (size_t i = 0; i < gh.size(); i += 2) gh[i].g = -FLT_MAX;
  const QuantScales s = ComputeQuantScales(gh, nullptr);
  CheckScales(s, gh);
  EXPECT_LT(s.g_exp, 0) << "FLT_MAX needs a down-scaling exponent";
  AlignedVector<int32_t> packed;
  QuantizeGradients(gh, s, 0, nullptr, &packed);
  for (size_t i = 0; i < gh.size(); ++i) {
    ASSERT_GE(QuantG(packed[i]), -32767);
    ASSERT_LE(QuantG(packed[i]), 32767);
    ASSERT_LE(QuantH(packed[i]), 65535);
  }
  CheckRoundTrip(gh, s, packed);
}

TEST(QuantScales, AllZeroHessiansQuantizeToZero) {
  auto gh = MakeGradients(300, 11);
  for (auto& p : gh) p.h = 0.0f;
  const QuantScales s = ComputeQuantScales(gh, nullptr);
  CheckScales(s, gh);
  EXPECT_EQ(s.h_exp, 126);
  AlignedVector<int32_t> packed;
  QuantizeGradients(gh, s, 0, nullptr, &packed);
  for (size_t i = 0; i < packed.size(); ++i) {
    ASSERT_EQ(QuantH(packed[i]), 0) << "row " << i;
  }
  CheckRoundTrip(gh, s, packed);
}

TEST(QuantScales, AllZeroGradientsProduceZeroPacked) {
  const auto gh = ConstGradients(50, 0.0f, 0.0f);
  const QuantScales s = ComputeQuantScales(gh, nullptr);
  EXPECT_EQ(s.g_exp, 126);
  EXPECT_EQ(s.h_exp, 126);
  AlignedVector<int32_t> packed;
  QuantizeGradients(gh, s, 0, nullptr, &packed);
  for (int32_t p : packed) ASSERT_EQ(p, 0);
}

TEST(QuantScales, NegativeHessianDies) {
  auto gh = MakeGradients(10, 3);
  gh[7].h = -0.25f;
  EXPECT_DEATH(ComputeQuantScales(gh, nullptr), "negative hessian");
}

TEST(QuantScales, DeterministicAcrossThreadCounts) {
  const auto gh = MakeGradients(20000, 21);  // several 4096-row chunks
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const QuantScales a = ComputeQuantScales(gh, nullptr);
  const QuantScales b = ComputeQuantScales(gh, &pool1);
  const QuantScales c = ComputeQuantScales(gh, &pool4);
  EXPECT_EQ(a.g_exp, b.g_exp);
  EXPECT_EQ(a.g_exp, c.g_exp);
  EXPECT_EQ(a.h_exp, b.h_exp);
  EXPECT_EQ(a.h_exp, c.h_exp);

  AlignedVector<int32_t> pa, pb, pc;
  QuantizeGradients(gh, a, 0, nullptr, &pa);
  QuantizeGradients(gh, a, 0, &pool1, &pb);
  QuantizeGradients(gh, a, 0, &pool4, &pc);
  ASSERT_EQ(pa.size(), gh.size());
  EXPECT_EQ(0, std::memcmp(pa.data(), pb.data(),
                           pa.size() * sizeof(int32_t)));
  EXPECT_EQ(0, std::memcmp(pa.data(), pc.data(),
                           pa.size() * sizeof(int32_t)));
}

// ---------- pack / widen / cell field arithmetic ----------

TEST(QuantPack, FieldRoundTripAndWidenAdditivity) {
  const int32_t gs[] = {-32767, -1, 0, 1, 255, 32767};
  const int32_t hs[] = {0, 1, 255, 65535};
  for (int32_t qg : gs) {
    for (int32_t qh : hs) {
      const int32_t packed = PackQuant(qg, qh);
      ASSERT_EQ(QuantG(packed), qg);
      ASSERT_EQ(QuantH(packed), qh);
      const int64_t w = WidenQuant(packed);
      ASSERT_EQ(CellG(w), qg);
      ASSERT_EQ(CellH(w), qh);
    }
  }
  // Cell addition is field-wise: h never borrows from g while the h sum
  // stays below 2^31 (guaranteed by the sum constraint).
  int64_t cell = 0;
  int64_t g_sum = 0, h_sum = 0;
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const int32_t qg =
        static_cast<int32_t>(rng.NextBelow(2 * 32767 + 1)) - 32767;
    const int32_t qh = static_cast<int32_t>(rng.NextBelow(65536));
    cell += WidenQuant(PackQuant(qg, qh));
    g_sum += qg;
    h_sum += qh;
    ASSERT_EQ(CellG(cell), g_sum) << "after " << i + 1 << " adds";
    ASSERT_EQ(CellH(cell), h_sum) << "after " << i + 1 << " adds";
  }
}

// ---------- SIMD dispatch plumbing ----------

TEST(SimdDispatch, ParseResolveAndTables) {
  SimdLevel level;
  EXPECT_TRUE(ParseSimdLevel("scalar", &level));
  EXPECT_EQ(level, SimdLevel::kScalar);
  EXPECT_TRUE(ParseSimdLevel("avx2", &level));
  EXPECT_EQ(level, SimdLevel::kAVX2);
  EXPECT_FALSE(ParseSimdLevel("sse9", &level));
  EXPECT_FALSE(ParseSimdLevel("auto", &level));  // not a concrete level

  EXPECT_EQ(ResolveSimdLevel("scalar"), SimdLevel::kScalar);
  EXPECT_TRUE(SimdSupported(SimdLevel::kScalar));
  EXPECT_EQ(SimdSupported(SimdLevel::kAVX2),
            DetectSimdLevel() == SimdLevel::kAVX2);
  if (!SimdSupported(SimdLevel::kAVX2)) {
    // Requesting an unrunnable level downgrades instead of crashing.
    EXPECT_EQ(ResolveSimdLevel("avx2"), SimdLevel::kScalar);
  } else {
    EXPECT_EQ(ResolveSimdLevel("avx2"), SimdLevel::kAVX2);
    EXPECT_NE(Avx2KernelTables(), nullptr);
  }
}

// ---------- elementwise kernels: scalar vs AVX2 bit-identity ----------

TEST(QuantSimd, QuantizeDequantizeAddBitIdenticalAcrossLevels) {
  if (!SimdSupported(SimdLevel::kAVX2)) {
    GTEST_SKIP() << "AVX2 kernel table unavailable on this binary/CPU";
  }
  // Odd length exercises both vector bodies and scalar tails.
  const auto gh = MakeGradients(4099, 55);
  const QuantScales s = ComputeQuantScales(gh, nullptr);

  AlignedVector<int32_t> ps, pa;
  QuantizeGradients(gh, s, static_cast<int>(SimdLevel::kScalar), nullptr,
                    &ps);
  QuantizeGradients(gh, s, static_cast<int>(SimdLevel::kAVX2), nullptr,
                    &pa);
  ASSERT_EQ(ps.size(), pa.size());
  for (size_t i = 0; i < ps.size(); ++i) {
    ASSERT_EQ(ps[i], pa[i]) << "quantize row " << i;
  }

  // Accumulate some cells, then dequantize with both tables.
  std::vector<int64_t> cells(1031, 0);
  for (size_t i = 0; i < ps.size(); ++i) {
    cells[i % cells.size()] += WidenQuant(ps[i]);
  }
  std::vector<GHPair> ds(cells.size()), da(cells.size());
  DequantizeHistogram(cells.data(), ds.data(), cells.size(), s,
                      static_cast<int>(SimdLevel::kScalar));
  DequantizeHistogram(cells.data(), da.data(), cells.size(), s,
                      static_cast<int>(SimdLevel::kAVX2));
  EXPECT_EQ(0, std::memcmp(ds.data(), da.data(),
                           cells.size() * sizeof(GHPair)));

  std::vector<int64_t> accs(cells), acca(cells);
  AddHistogramI64(accs.data(), cells.data(), cells.size(),
                  static_cast<int>(SimdLevel::kScalar));
  AddHistogramI64(acca.data(), cells.data(), cells.size(),
                  static_cast<int>(SimdLevel::kAVX2));
  EXPECT_EQ(0, std::memcmp(accs.data(), acca.data(),
                           cells.size() * sizeof(int64_t)));
}

// ---------- accumulation kernels: parity + cross-level identity ----------

// Same shape as the f64 kernel fixture: 19 features forces internal
// feature tiling, 2100 rows crosses the 2048-row tile boundary, 13
// distinct values makes per-feature bin counts uneven.
struct QuantKernelFixture {
  Dataset ds;
  BinnedMatrix matrix;
  std::vector<GradientPair> gh;
  QuantScales scales;
  AlignedVector<int32_t> packed;

  explicit QuantKernelFixture(uint32_t features = 19)
      : ds(MakeDataset(2100, features, 0.85, 71, /*distinct=*/13)),
        matrix(BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16))),
        gh(MakeGradients(2100, 72)) {
    scales = ComputeQuantScales(gh, nullptr);
    QuantizeGradients(gh, scales, 0, nullptr, &packed);
  }
};

struct QuantKernelCase {
  bool membuf;
  bool full_features;
  uint32_t features;
};

std::string QuantKernelCaseName(
    const ::testing::TestParamInfo<QuantKernelCase>& info) {
  const QuantKernelCase& c = info.param;
  std::string name = c.membuf ? "membuf" : "gather";
  name += c.full_features ? "_fullblock" : "_tiled";
  name += "_f" + std::to_string(c.features);
  return name;
}

class QuantKernelParity : public ::testing::TestWithParam<QuantKernelCase> {};

// Every quantized kernel variant must produce EXACTLY the WidenQuant
// reference sums (integer accumulation leaves no ordering freedom), and
// the AVX2 instantiation must match the scalar one bit-for-bit.
TEST_P(QuantKernelParity, MatchesWidenQuantReference) {
  const QuantKernelCase& c = GetParam();
  const QuantKernelFixture fx(c.features);
  const uint32_t rows = fx.matrix.num_rows();
  const uint32_t features = fx.matrix.num_features();

  ThreadPool pool(1);
  RowPartitioner partitioner(rows, c.membuf);
  partitioner.Reset(fx.gh, /*max_nodes=*/2, &pool);

  const HistKernelMatrix km =
      MakeHistKernelMatrix(fx.matrix, partitioner, fx.packed.data());
  const HistRowSource src = MakeHistRowSource(partitioner, /*node_id=*/0);
  const QuantKernelFn kernel =
      SelectQuantHistKernel(c.membuf, c.full_features, SimdLevel::kScalar);
  ASSERT_NE(kernel, nullptr);
  const QuantKernelFn kernel_avx2 =
      SimdSupported(SimdLevel::kAVX2)
          ? SelectQuantHistKernel(c.membuf, c.full_features, SimdLevel::kAVX2)
          : nullptr;

  const auto blocks = MakeFeatureBlocks(features, c.full_features ? 0 : 5);

  const std::pair<uint32_t, uint32_t> row_ranges[] = {
      {0, 0},        // empty
      {0, 1},        // single row
      {3, 10},       // odd length, unaligned origin
      {0, 2059},     // crosses the 2048-row internal tile boundary
      {2040, 2100},  // range starting near the tile boundary
      {0, rows},     // everything
  };

  for (const auto& [begin, end] : row_ranges) {
    std::vector<int64_t> actual(fx.matrix.TotalBins(), 0);
    std::vector<int64_t> avx2(fx.matrix.TotalBins(), 0);
    std::vector<int64_t> expected(fx.matrix.TotalBins(), 0);
    for (const Range& fb : blocks) {
      kernel(km, src, begin, end, actual.data(), fb);
      if (kernel_avx2 != nullptr) {
        kernel_avx2(km, src, begin, end, avx2.data(), fb);
      }
      partitioner.ForEachRowRange(
          0, begin, end, [&](uint32_t rid, float, float) {
            const int64_t w = WidenQuant(fx.packed[rid]);
            for (uint32_t f = fb.first; f < fb.second; ++f) {
              expected[fx.matrix.BinOffset(f) + fx.matrix.Bin(rid, f)] += w;
            }
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

// Every variant at each width: 16 and 32 are whole 16-feature chunks, 19
// and 65 end each row in the scalar tail of the full-width AVX2 pass, 256
// is its widest case and 260 falls back to the feature-tiled walk.
std::vector<QuantKernelCase> AllQuantKernelCases() {
  std::vector<QuantKernelCase> cases;
  for (const uint32_t features : {16u, 19u, 32u, 65u, 256u, 260u}) {
    for (const bool membuf : {true, false}) {
      for (const bool full : {true, false}) {
        cases.push_back(QuantKernelCase{membuf, full, features});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllVariants, QuantKernelParity,
                         ::testing::ValuesIn(AllQuantKernelCases()),
                         QuantKernelCaseName);

// The dequantized full-histogram must track the f64 reference within the
// per-slot analytic bound: each contributing row adds at most half a
// quantization step of error per channel.
TEST(QuantAccuracy, DequantizedHistogramWithinPerSlotBound) {
  const QuantKernelFixture fx;
  const uint32_t rows = fx.matrix.num_rows();
  ThreadPool pool(1);
  RowPartitioner partitioner(rows, /*use_membuf=*/true);
  partitioner.Reset(fx.gh, /*max_nodes=*/2, &pool);

  const HistKernelMatrix km =
      MakeHistKernelMatrix(fx.matrix, partitioner, fx.packed.data());
  const HistRowSource src = MakeHistRowSource(partitioner, 0);
  const QuantKernelFn kernel =
      SelectQuantHistKernel(true, true, SimdLevel::kScalar);

  std::vector<int64_t> cells(fx.matrix.TotalBins(), 0);
  kernel(km, src, 0, rows, cells.data(),
         Range{0u, fx.matrix.num_features()});
  std::vector<GHPair> deq(cells.size());
  DequantizeHistogram(cells.data(), deq.data(), cells.size(), fx.scales,
                      static_cast<int>(SimdLevel::kScalar));

  const std::vector<GHPair> ref =
      NaiveHist(fx.matrix, fx.gh, harp::testing::AllRows(rows));
  std::vector<int64_t> counts(cells.size(), 0);
  for (uint32_t rid = 0; rid < rows; ++rid) {
    for (uint32_t f = 0; f < fx.matrix.num_features(); ++f) {
      counts[fx.matrix.BinOffset(f) + fx.matrix.Bin(rid, f)] += 1;
    }
  }
  for (size_t s = 0; s < ref.size(); ++s) {
    const double cnt = static_cast<double>(counts[s]);
    ASSERT_LE(std::fabs(deq[s].g - ref[s].g),
              cnt * 0.5 * fx.scales.g_inv * kBoundSlack + 1e-12)
        << "slot " << s;
    ASSERT_LE(std::fabs(deq[s].h - ref[s].h),
              cnt * 0.5 * fx.scales.h_inv * kBoundSlack + 1e-12)
        << "slot " << s;
  }
}

// ---------- quantized DP builder ----------

// The DP builder in quantized mode (int64 replicas, quant-domain reduce,
// dequantize into the pool histograms) must produce exactly the
// dequantized naive quantized histogram, across repeated builds (replica
// reuse + dirty-ledger clearing) and multiple threads.
TEST(HistBuilderDpQuant, MatchesDequantizedReferenceAcrossBuilds) {
  const Dataset ds = MakeDataset(900, 7, 0.8, 41, /*distinct=*/21);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 32));
  const auto gh = MakeGradients(900, 42);
  TrainParams params;
  params.node_blk_size = 2;
  ThreadPool pool(3);
  RowPartitioner partitioner(900, /*use_membuf=*/true);
  partitioner.Reset(gh, /*max_nodes=*/8, &pool);
  const uint32_t split_bin = std::max(1u, (matrix.NumBins(0) - 1) / 2);
  partitioner.ApplySplit(0, 1, 2, matrix, 0, split_bin,
                         /*default_left=*/false, &pool);

  QuantRound qround;
  qround.scales = ComputeQuantScales(gh, nullptr);
  QuantizeGradients(gh, qround.scales, 0, nullptr, &qround.packed);

  HistogramPool hists(matrix.TotalBins());
  const BuildContext ctx{matrix, params,  pool,  partitioner,
                         hists,  &qround, SimdLevel::kScalar};
  HistBuilderDP dp;

  auto reference = [&](int node) {
    std::vector<int64_t> cells(matrix.TotalBins(), 0);
    partitioner.ForEachRow(node, [&](uint32_t rid, float, float) {
      const int64_t w = WidenQuant(qround.packed[rid]);
      for (uint32_t f = 0; f < matrix.num_features(); ++f) {
        cells[matrix.BinOffset(f) + matrix.Bin(rid, f)] += w;
      }
    });
    std::vector<GHPair> expected(cells.size());
    DequantizeHistogram(cells.data(), expected.data(), cells.size(),
                        qround.scales, static_cast<int>(SimdLevel::kScalar));
    return expected;
  };

  for (int iter = 0; iter < 3; ++iter) {
    hists.Acquire(1);
    hists.Acquire(2);
    dp.Build(ctx, std::vector<int>{1, 2});
    for (int node : {1, 2}) {
      const std::vector<GHPair> expected = reference(node);
      const GHPair* actual = hists.Get(node);
      for (size_t s = 0; s < expected.size(); ++s) {
        ASSERT_EQ(actual[s], expected[s])
            << "iter " << iter << " node " << node << " slot " << s;
      }
    }
    hists.ReleaseAll();
  }
  EXPECT_EQ(dp.replica_stats().grow_events, 1)
      << "quant replicas must not reallocate when the layout is unchanged";
}

// ---------- end-to-end training ----------

Dataset LearnableData(uint32_t rows, uint64_t seed = 301) {
  SyntheticSpec spec;
  spec.rows = rows;
  spec.features = 12;
  spec.density = 0.9;
  spec.mean_distinct = 40;
  spec.active_features = 6;
  spec.margin_scale = 3.0;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

TrainParams QuantParams() {
  TrainParams p;
  p.num_trees = 20;
  p.tree_size = 4;
  p.grow_policy = GrowPolicy::kTopK;
  p.topk = 8;
  p.num_threads = 2;
  p.mode = ParallelMode::kSYNC;
  p.quantize_hist = true;
  p.simd = "scalar";
  return p;
}

// Quantized training must match the f64 oracle's generalization within
// 1e-3 AUC on held-out data (16-bit scales leave split decisions intact
// on well-separated problems).
TEST(QuantTraining, AucMatchesF64WithinTolerance) {
  const Dataset all = LearnableData(4000);
  const Dataset train = all.Slice(0, 3000);
  const Dataset test = all.Slice(3000, 4000);

  TrainParams pq = QuantParams();
  TrainParams pf = QuantParams();
  pf.quantize_hist = false;

  TrainStats sq, sf;
  GbdtTrainer tq(pq), tf(pf);
  const GbdtModel mq = tq.Train(train, &sq);
  const GbdtModel mf = tf.Train(train, &sf);

  const double auc_q = Auc(test.labels(), mq.Predict(test));
  const double auc_f = Auc(test.labels(), mf.Predict(test));
  EXPECT_GT(auc_f, 0.80);
  EXPECT_NEAR(auc_q, auc_f, 1e-3);

  // Stats must reflect the cell storage actually used.
  EXPECT_EQ(sq.hist_cell_bytes, sizeof(int64_t));
  EXPECT_EQ(sf.hist_cell_bytes, sizeof(GHPair));
  EXPECT_GT(sq.quantize_ns, 0);
  EXPECT_EQ(sf.quantize_ns, 0);
}

// ASYNC's serial node tasks have no quantized path, so the pair is refused
// instead of silently training f64.
TEST(QuantTrainingDeathTest, AsyncModeRefused) {
  TrainParams p = QuantParams();
  p.mode = ParallelMode::kASYNC;
  EXPECT_DEATH(p.Validate(), "quantize_hist is not supported in ASYNC mode");
}

// Integer accumulation is order-independent and dequantization is exact,
// so quantized training is bit-identical across thread counts AND across
// the scalar / AVX2 kernel tables — a stronger guarantee than the f64
// path (which relies on accumulation-order preservation).
class QuantDeterminism : public ::testing::TestWithParam<ParallelMode> {};

TEST_P(QuantDeterminism, BitIdenticalAcrossThreadsAndSimdLevels) {
  const Dataset train = LearnableData(1500);
  TrainParams base = QuantParams();
  base.num_trees = 5;
  base.mode = GetParam();

  auto run = [&](int threads, const std::string& simd) {
    TrainParams p = base;
    p.num_threads = threads;
    p.simd = simd;
    GbdtTrainer trainer(p);
    return trainer.Train(train);
  };
  const GbdtModel a = run(2, "scalar");
  const GbdtModel b = run(1, "scalar");
  const GbdtModel c = run(4, "scalar");
  ASSERT_EQ(a.NumTrees(), b.NumTrees());
  for (size_t t = 0; t < a.NumTrees(); ++t) {
    EXPECT_TRUE(harp::testing::TreesEqual(a.tree(t), b.tree(t)))
        << "tree " << t << " differs across thread counts";
    EXPECT_TRUE(harp::testing::TreesEqual(a.tree(t), c.tree(t)))
        << "tree " << t << " differs across thread counts";
  }
  if (SimdSupported(SimdLevel::kAVX2)) {
    const GbdtModel v = run(2, "avx2");
    ASSERT_EQ(a.NumTrees(), v.NumTrees());
    for (size_t t = 0; t < a.NumTrees(); ++t) {
      EXPECT_TRUE(harp::testing::TreesEqual(a.tree(t), v.tree(t)))
          << "tree " << t << " differs between scalar and AVX2";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DpMpSync, QuantDeterminism,
                         ::testing::Values(ParallelMode::kDP,
                                           ParallelMode::kMP,
                                           ParallelMode::kSYNC),
                         [](const ::testing::TestParamInfo<ParallelMode>& i) {
                           return ToString(i.param);
                         });

}  // namespace
}  // namespace harp
