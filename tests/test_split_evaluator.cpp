// Tests for the Eq. 2 / Eq. 3 arithmetic and histogram split enumeration,
// including a brute-force cross-check over raw rows.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/quantize.h"
#include "core/split_evaluator.h"
#include "test_util.h"

namespace harp {
namespace {

using harp::testing::AllRows;
using harp::testing::MakeDataset;
using harp::testing::MakeGradients;
using harp::testing::NaiveHist;
using harp::testing::SumGh;

TrainParams BaseParams() {
  TrainParams p;
  p.reg_lambda = 1.0;
  p.min_split_loss = 0.0;
  p.min_child_weight = 0.0;
  p.learning_rate = 0.1;
  return p;
}

TEST(SplitEvaluator, LeafWeightFormula) {
  const SplitEvaluator eval(BaseParams());
  const GHPair sum{4.0, 3.0};
  EXPECT_DOUBLE_EQ(eval.RawLeafWeight(sum), -4.0 / (3.0 + 1.0));
  EXPECT_DOUBLE_EQ(eval.LeafValue(sum), 0.1 * -1.0);
}

TEST(SplitEvaluator, GainFormulaHandComputed) {
  TrainParams p = BaseParams();
  p.min_split_loss = 0.5;  // gamma
  const SplitEvaluator eval(p);
  const GHPair left{2.0, 1.0};
  const GHPair right{-3.0, 2.0};
  const GHPair parent = left + right;
  // 0.5*(4/2 + 9/3 - 1/4) - 0.5
  const double expected = 0.5 * (2.0 + 3.0 - 0.25) - 0.5;
  EXPECT_NEAR(eval.SplitGain(parent, left, right), expected, 1e-12);
}

TEST(SplitEvaluator, GammaShiftsGain) {
  TrainParams p = BaseParams();
  const GHPair left{2.0, 1.0};
  const GHPair right{-1.0, 1.5};
  const GHPair parent = left + right;
  p.min_split_loss = 0.0;
  const double g0 = SplitEvaluator(p).SplitGain(parent, left, right);
  p.min_split_loss = 1.0;
  const double g1 = SplitEvaluator(p).SplitGain(parent, left, right);
  EXPECT_NEAR(g0 - g1, 1.0, 1e-12);
}

TEST(SplitEvaluator, MinChildWeightBlocksSplits) {
  // One feature, two bins, tiny hessian on one side.
  const Dataset ds = Dataset::FromDense(
      4, 1, {0.0f, 0.0f, 0.0f, 1.0f}, {0, 0, 0, 1});
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 256));
  std::vector<GradientPair> gh{{1.0f, 0.4f}, {1.0f, 0.4f},
                               {1.0f, 0.4f}, {-3.0f, 0.1f}};
  const auto rows = AllRows(4);
  const auto hist = NaiveHist(matrix, gh, rows);
  const GHPair total = SumGh(gh, rows);

  TrainParams p = BaseParams();
  p.min_child_weight = 0.0;
  const SplitInfo allowed = SplitEvaluator(p).FindBestSplit(
      matrix, hist.data(), total, 0, 1);
  EXPECT_TRUE(allowed.IsValid());

  p.min_child_weight = 0.5;  // right child h = 0.1 < 0.5 -> rejected
  const SplitInfo blocked = SplitEvaluator(p).FindBestSplit(
      matrix, hist.data(), total, 0, 1);
  EXPECT_FALSE(blocked.IsValid());
}

TEST(SplitEvaluator, PicksObviousSplit) {
  // Feature 0 separates gradients perfectly; feature 1 is noise.
  const Dataset ds = Dataset::FromDense(
      6, 2,
      {0.0f, 5.0f, 0.0f, 6.0f, 0.0f, 5.0f,
       1.0f, 6.0f, 1.0f, 5.0f, 1.0f, 6.0f},
      {0, 0, 0, 1, 1, 1});
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 256));
  std::vector<GradientPair> gh(6);
  for (int i = 0; i < 6; ++i) {
    gh[static_cast<size_t>(i)] = {i < 3 ? 1.0f : -1.0f, 1.0f};
  }
  const auto rows = AllRows(6);
  const auto hist = NaiveHist(matrix, gh, rows);
  const SplitInfo split = SplitEvaluator(BaseParams()).FindBestSplit(
      matrix, hist.data(), SumGh(gh, rows), 0, 2);
  ASSERT_TRUE(split.IsValid());
  EXPECT_EQ(split.feature, 0u);
  EXPECT_EQ(split.bin, 1u);  // first bin of feature 0 holds value 0.0
  EXPECT_NEAR(split.left_sum.g, 3.0, 1e-12);
  EXPECT_NEAR(split.right_sum.g, -3.0, 1e-12);
}

TEST(SplitEvaluator, ChildSumsAddUpToParent) {
  const Dataset ds = MakeDataset(300, 5, 0.8, 41);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  const auto gh = MakeGradients(300, 42);
  const auto rows = AllRows(300);
  const auto hist = NaiveHist(matrix, gh, rows);
  const GHPair total = SumGh(gh, rows);
  const SplitInfo split = SplitEvaluator(BaseParams()).FindBestSplit(
      matrix, hist.data(), total, 0, 5);
  ASSERT_TRUE(split.IsValid());
  EXPECT_NEAR(split.left_sum.g + split.right_sum.g, total.g, 1e-9);
  EXPECT_NEAR(split.left_sum.h + split.right_sum.h, total.h, 1e-9);
}

// Brute force over raw rows: for every (feature, bin, default direction),
// partition rows directly and compute the gain; the evaluator must find the
// same maximum gain.
TEST(SplitEvaluator, MatchesBruteForceEnumeration) {
  TrainParams p = BaseParams();
  p.min_split_loss = 0.1;
  p.min_child_weight = 0.2;
  const SplitEvaluator eval(p);

  for (uint64_t seed : {1u, 2u, 3u}) {
    const Dataset ds = MakeDataset(120, 4, 0.75, seed, /*distinct=*/8);
    const BinnedMatrix matrix =
        BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 256));
    const auto gh = MakeGradients(120, seed + 100);
    const auto rows = AllRows(120);
    const auto hist = NaiveHist(matrix, gh, rows);
    const GHPair total = SumGh(gh, rows);

    double best_gain = 0.0;
    for (uint32_t f = 0; f < matrix.num_features(); ++f) {
      for (uint32_t bin = 1; bin + 1 < matrix.NumBins(f); ++bin) {
        for (bool default_left : {false, true}) {
          GHPair left;
          for (uint32_t rid : rows) {
            const uint8_t b = matrix.Bin(rid, f);
            const bool goes_left =
                b == 0 ? default_left : b <= bin;
            if (goes_left) left.Add(gh[rid].g, gh[rid].h);
          }
          const GHPair right = total - left;
          if (left.h < p.min_child_weight || right.h < p.min_child_weight) {
            continue;
          }
          best_gain =
              std::max(best_gain, eval.SplitGain(total, left, right));
        }
      }
    }

    const SplitInfo found = eval.FindBestSplit(matrix, hist.data(), total, 0,
                                               matrix.num_features());
    if (best_gain <= 0.0) {
      EXPECT_FALSE(found.IsValid());
    } else {
      ASSERT_TRUE(found.IsValid());
      EXPECT_NEAR(found.gain, best_gain, 1e-9) << "seed " << seed;
    }
  }
}

// Partitioning the feature range must not change the merged winner.
TEST(SplitEvaluator, FeatureRangeMergeIsDeterministic) {
  const Dataset ds = MakeDataset(200, 8, 0.9, 7);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 32));
  const auto gh = MakeGradients(200, 8);
  const auto rows = AllRows(200);
  const auto hist = NaiveHist(matrix, gh, rows);
  const GHPair total = SumGh(gh, rows);
  const SplitEvaluator eval(BaseParams());

  const SplitInfo whole =
      eval.FindBestSplit(matrix, hist.data(), total, 0, 8);
  for (uint32_t chunk : {1u, 2u, 3u, 5u}) {
    SplitInfo merged;
    for (uint32_t f = 0; f < 8; f += chunk) {
      const SplitInfo part = eval.FindBestSplit(matrix, hist.data(), total,
                                                f, std::min(8u, f + chunk));
      if (part.BetterThan(merged)) merged = part;
    }
    EXPECT_EQ(merged.feature, whole.feature);
    EXPECT_EQ(merged.bin, whole.bin);
    EXPECT_EQ(merged.default_left, whole.default_left);
    EXPECT_DOUBLE_EQ(merged.gain, whole.gain);
  }
}

// The plain enumeration: every split bin of every feature, both missing
// directions, one SplitInfo per candidate merged by BetterThan, with a
// separate present_total accumulation pass. FindBestSplit skips the bins
// whose prefix does not move and tracks only the winning gain; it must
// reproduce this BIT FOR BIT, because each prefix is accumulated in the
// same left-to-right order and each gain in the same expression order.
SplitInfo ReferenceFindBestSplit(const SplitEvaluator& eval,
                                 const BinnedMatrix& matrix,
                                 const GHPair* hist, const GHPair& node_sum,
                                 uint32_t feature_begin, uint32_t feature_end,
                                 const uint8_t* column_mask = nullptr) {
  SplitInfo best;
  for (uint32_t f = feature_begin; f < feature_end; ++f) {
    if (column_mask != nullptr && column_mask[f] == 0) continue;
    const uint32_t offset = matrix.BinOffset(f);
    const uint32_t num_bins = matrix.NumBins(f);
    if (num_bins < 3) continue;
    const GHPair missing = hist[offset];

    GHPair present_total;
    for (uint32_t b = 1; b < num_bins; ++b) present_total += hist[offset + b];

    GHPair left_present;
    for (uint32_t b = 1; b + 1 < num_bins; ++b) {
      left_present += hist[offset + b];
      const GHPair right_present = present_total - left_present;

      {
        const GHPair left = left_present;
        const GHPair right = node_sum - left;
        if (eval.SatisfiesChildWeight(left) &&
            eval.SatisfiesChildWeight(right)) {
          const double gain = eval.SplitGain(node_sum, left, right);
          SplitInfo candidate{gain, f, b, /*default_left=*/false, left, right};
          if (candidate.IsValid() && candidate.BetterThan(best)) {
            best = candidate;
          }
        }
      }
      if (missing.g != 0.0 || missing.h != 0.0) {
        const GHPair right = right_present;
        const GHPair left = node_sum - right;
        if (eval.SatisfiesChildWeight(left) &&
            eval.SatisfiesChildWeight(right)) {
          const double gain = eval.SplitGain(node_sum, left, right);
          SplitInfo candidate{gain, f, b, /*default_left=*/true, left, right};
          if (candidate.IsValid() && candidate.BetterThan(best)) {
            best = candidate;
          }
        }
      }
    }
  }
  return best;
}

// Bitwise: == on doubles, not NEAR. Same accumulation order, same bits.
void ExpectSameSplit(const SplitInfo& got, const SplitInfo& want,
                     const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(got.IsValid(), want.IsValid());
  EXPECT_EQ(got.gain, want.gain);
  EXPECT_EQ(got.feature, want.feature);
  EXPECT_EQ(got.bin, want.bin);
  EXPECT_EQ(got.default_left, want.default_left);
  EXPECT_EQ(got.left_sum.g, want.left_sum.g);
  EXPECT_EQ(got.left_sum.h, want.left_sum.h);
  EXPECT_EQ(got.right_sum.g, want.right_sum.g);
  EXPECT_EQ(got.right_sum.h, want.right_sum.h);
}

// Columns of a random dataset, some repeated: features 2, 4 and 6 copy
// features 0, 1 and 3, so equal gains tie across features.
Dataset DuplicatedColumns(uint32_t rows, double density, uint64_t seed) {
  const Dataset base = MakeDataset(rows, 5, density, seed, /*distinct=*/24);
  const uint32_t source[] = {0, 1, 0, 3, 1, 2, 3, 4};
  const uint32_t nf = 8;
  std::vector<float> values(static_cast<size_t>(rows) * nf);
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t f = 0; f < nf; ++f) {
      values[static_cast<size_t>(r) * nf + f] =
          base.dense_values()[static_cast<size_t>(r) * 5 + source[f]];
    }
  }
  std::vector<float> labels = base.labels();
  return Dataset::FromDense(rows, nf, std::move(values), std::move(labels));
}

// The rows whose index is a multiple of `stride`.
std::vector<uint32_t> EveryNth(uint32_t rows, uint32_t stride) {
  std::vector<uint32_t> out;
  for (uint32_t r = 0; r < rows; r += stride) out.push_back(r);
  return out;
}

// Node histogram over `rows` accumulated in 16-bit fixed point and
// dequantized, as the quantized trainers hand it to FindBestSplit.
std::vector<GHPair> DequantizedHist(const BinnedMatrix& matrix,
                                    const std::vector<GradientPair>& gh,
                                    const std::vector<uint32_t>& rows,
                                    GHPair* node_sum) {
  const QuantScales scales = ComputeQuantScales(gh, nullptr);
  AlignedVector<int32_t> packed;
  QuantizeGradients(gh, scales, 0, nullptr, &packed);
  std::vector<int64_t> cells(matrix.TotalBins());
  int64_t total = 0;
  for (uint32_t rid : rows) {
    const int64_t addend = WidenQuant(packed[rid]);
    for (uint32_t f = 0; f < matrix.num_features(); ++f) {
      cells[matrix.BinOffset(f) + matrix.Bin(rid, f)] += addend;
    }
    total += addend;
  }
  std::vector<GHPair> hist(cells.size());
  DequantizeHistogram(cells.data(), hist.data(), cells.size(), scales, 0);
  DequantizeHistogram(&total, node_sum, 1, scales, 0);
  return hist;
}

TEST(SplitEvaluator, CompactedScanMatchesReferenceBitwise) {
  const uint32_t kRows = 2000;
  struct Params {
    double min_child_weight;
    double reg_lambda;
  };
  // min_child_weight 0 and lambda 0 together let empty children through:
  // 0/0 and x/0 child scores.
  const Params params[] = {{0.0, 1.0}, {0.2, 1.0}, {50.0, 1.0}, {0.0, 0.0}};
  struct Node {
    std::string name;
    std::vector<GHPair> hist;
    GHPair sum;
  };
  for (const double density : {1.0, 0.7}) {
    const Dataset ds = DuplicatedColumns(kRows, density, 61);
    const BinnedMatrix matrix =
        BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 32));
    const uint32_t nf = matrix.num_features();
    const auto gh = MakeGradients(kRows, 62);

    // Nodes built from 1%, 10% and 100% of the rows (the small ones leave
    // most bins empty), their quantized twins, parent - sibling, and
    // random doubles.
    std::vector<Node> nodes;
    for (const uint32_t stride : {100u, 10u, 1u}) {
      const auto rows = EveryNth(kRows, stride);
      const std::string pct = std::to_string(100 / stride) + "%";
      nodes.push_back({pct, NaiveHist(matrix, gh, rows), SumGh(gh, rows)});
      Node quant{pct + " dequantized", {}, {}};
      quant.hist = DequantizedHist(matrix, gh, rows, &quant.sum);
      nodes.push_back(std::move(quant));
    }
    for (const uint32_t stride : {100u, 10u}) {
      const auto all = AllRows(kRows);
      const auto sibling_rows = EveryNth(kRows, stride);
      const auto parent = NaiveHist(matrix, gh, all);
      const auto sibling = NaiveHist(matrix, gh, sibling_rows);
      Node sub{"parent - " + std::to_string(100 / stride) + "% sibling",
               std::vector<GHPair>(parent.size()),
               SumGh(gh, all) - SumGh(gh, sibling_rows)};
      for (size_t i = 0; i < parent.size(); ++i) {
        sub.hist[i] = parent[i] - sibling[i];
      }
      nodes.push_back(std::move(sub));
    }

    // Half-empty cells of arbitrary doubles: unlike float gradient sums,
    // their prefixes and differences round, so the child sums' bits show.
    Node noise{"random doubles", std::vector<GHPair>(matrix.TotalBins()), {}};
    Rng rng(63);
    for (GHPair& cell : noise.hist) {
      if (rng.Bernoulli(0.5)) cell = {rng.Normal() / 3.0, rng.NextDouble()};
    }
    for (uint32_t b = 0; b < matrix.NumBins(0); ++b) {
      noise.sum += noise.hist[matrix.BinOffset(0) + b];
    }
    nodes.push_back(std::move(noise));

    std::vector<uint8_t> mask(nf, 1);
    mask[0] = mask[3] = mask[5] = 0;
    for (const Params& pr : params) {
      TrainParams p = BaseParams();
      p.min_child_weight = pr.min_child_weight;
      p.reg_lambda = pr.reg_lambda;
      const SplitEvaluator eval(p);
      for (const Node& node : nodes) {
        for (const uint8_t* column_mask : {(const uint8_t*)nullptr,
                                           (const uint8_t*)mask.data()}) {
          const std::string where =
              "density " + std::to_string(density) + ", " + node.name +
              ", min_child_weight " + std::to_string(pr.min_child_weight) +
              ", lambda " + std::to_string(pr.reg_lambda) +
              (column_mask != nullptr ? ", masked" : "");
          const SplitInfo want = ReferenceFindBestSplit(
              eval, matrix, node.hist.data(), node.sum, 0, nf, column_mask);
          ExpectSameSplit(eval.FindBestSplit(matrix, node.hist.data(),
                                             node.sum, 0, nf, column_mask),
                          want, where);
          // Every split of [0, nf) into contiguous feature ranges: bit b
          // of `cuts` set means a range ends after feature b.
          for (uint32_t cuts = 0; cuts < (1u << (nf - 1)); ++cuts) {
            SplitInfo merged;
            uint32_t begin = 0;
            for (uint32_t f = 0; f < nf; ++f) {
              if (f + 1 < nf && (cuts >> f & 1u) == 0) continue;
              const SplitInfo part = eval.FindBestSplit(
                  matrix, node.hist.data(), node.sum, begin, f + 1,
                  column_mask);
              if (part.BetterThan(merged)) merged = part;
              begin = f + 1;
            }
            ExpectSameSplit(merged, want,
                            where + ", ranges " + std::to_string(cuts));
          }
        }
      }
    }
  }
}

// Hand-made cells that move the prefix in unusual ways: a non-empty cell
// absorbed by a huge prefix (the prefix keeps its bits), a winning cell
// that moves only the hessian, -0.0 cells, an all-empty feature, and a
// feature whose two missing directions tie at the winning bin.
TEST(SplitEvaluator, CompactedScanMatchesReferenceOnCraftedCells) {
  const Dataset ds = MakeDataset(64, 4, 1.0, 71, /*distinct=*/8);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 256));
  for (uint32_t f = 0; f < 4; ++f) ASSERT_GE(matrix.NumBins(f), 7u);
  std::vector<GHPair> hist(matrix.TotalBins());
  const uint32_t o0 = matrix.BinOffset(0);
  hist[o0 + 1] = {1e300, 2.0};
  hist[o0 + 2] = {1.0, 0.0};  // absorbed: the prefix does not move
  hist[o0 + 3] = {-0.0, -0.0};
  hist[o0 + 4] = {-1e300, 1.0};
  const uint32_t o1 = matrix.BinOffset(1);
  hist[o1] = {-0.0, -0.0};  // counts as no missing mass
  hist[o1 + 1] = {-0.0, -0.0};
  hist[o1 + 2] = {0.5, 1.0};
  hist[o1 + 3] = {-2.0, 1.5};
  hist[o1 + 4] = {0.0, 0.5};  // moves h only; wins for node_sum {5, 6}
  // Feature 2 stays all-zero. In feature 3, with node_sum {0, 4} and
  // lambda 1, split bin 1 scores 1/2 + 1/4 with missing right and
  // 1/4 + 1/2 with missing left: missing-right must win the tie.
  const uint32_t o3 = matrix.BinOffset(3);
  hist[o3] = {0.0, 2.0};
  hist[o3 + 1] = {1.0, 1.0};
  hist[o3 + 2] = {-1.0, 1.0};
  for (const GHPair node_sum : {GHPair{5.0, 6.0}, GHPair{0.0, 4.0}}) {
    for (const double lambda : {1.0, 0.0}) {
      TrainParams p = BaseParams();
      p.reg_lambda = lambda;
      const SplitEvaluator eval(p);
      for (uint32_t begin = 0; begin < 4; ++begin) {
        for (uint32_t end = begin + 1; end <= 4; ++end) {
          ExpectSameSplit(
              eval.FindBestSplit(matrix, hist.data(), node_sum, begin, end),
              ReferenceFindBestSplit(eval, matrix, hist.data(), node_sum,
                                     begin, end),
              "node_sum.g " + std::to_string(node_sum.g) + ", lambda " +
                  std::to_string(lambda) + ", features [" +
                  std::to_string(begin) + ", " + std::to_string(end) + ")");
        }
      }
    }
  }
}

TEST(SplitInfoTest, BetterThanIsStrictTotalOrder) {
  SplitInfo a;
  a.gain = 1.0;
  a.feature = 2;
  a.bin = 3;
  SplitInfo b = a;
  EXPECT_FALSE(a.BetterThan(b));
  EXPECT_FALSE(b.BetterThan(a));
  b.gain = 2.0;
  EXPECT_TRUE(b.BetterThan(a));
  b.gain = a.gain;
  b.feature = 1;
  EXPECT_TRUE(b.BetterThan(a));
  b.feature = a.feature;
  b.bin = 2;
  EXPECT_TRUE(b.BetterThan(a));
  b.bin = a.bin;
  b.default_left = true;
  EXPECT_TRUE(a.BetterThan(b));  // missing-right preferred on full tie
}

TEST(SplitInfoTest, DefaultIsInvalid) {
  SplitInfo s;
  EXPECT_FALSE(s.IsValid());
}

}  // namespace
}  // namespace harp
