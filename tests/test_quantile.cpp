// Unit tests for quantile cut computation and bin mapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "common/random.h"
#include "data/binary_cache.h"
#include "data/dataset.h"
#include "data/quantile.h"
#include "parallel/thread_pool.h"

namespace harp {
namespace {

Dataset OneFeature(std::vector<float> values) {
  const uint32_t rows = static_cast<uint32_t>(values.size());
  std::vector<float> labels(rows, 0.0f);
  return Dataset::FromDense(rows, 1, std::move(values), std::move(labels));
}

TEST(Quantile, FewDistinctValuesGetOneBinEach) {
  const Dataset ds = OneFeature({3.0f, 1.0f, 2.0f, 1.0f, 3.0f, 2.0f});
  const QuantileCuts cuts = QuantileCuts::Compute(ds, 256);
  EXPECT_EQ(cuts.NumCuts(0), 3u);
  // Each distinct value lands in its own bin, in value order.
  EXPECT_EQ(cuts.BinFor(0, 1.0f), 1u);
  EXPECT_EQ(cuts.BinFor(0, 2.0f), 2u);
  EXPECT_EQ(cuts.BinFor(0, 3.0f), 3u);
}

TEST(Quantile, MissingMapsToBinZero) {
  const Dataset ds = OneFeature({1.0f, 2.0f});
  const QuantileCuts cuts = QuantileCuts::Compute(ds, 256);
  EXPECT_EQ(cuts.BinFor(0, kMissingValue), 0u);
}

TEST(Quantile, CutsAreUpperBoundsInclusive) {
  const Dataset ds = OneFeature({1.0f, 2.0f, 3.0f});
  const QuantileCuts cuts = QuantileCuts::Compute(ds, 256);
  // A value exactly equal to a cut goes into that cut's bin.
  const float cut1 = cuts.CutFor(0, 1);
  EXPECT_EQ(cuts.BinFor(0, cut1), 1u);
  // Values just above the cut fall into the next bin.
  EXPECT_EQ(cuts.BinFor(0, std::nextafter(cut1, 10.0f)), 2u);
}

TEST(Quantile, ValuesAboveMaxClampToLastBin) {
  const Dataset ds = OneFeature({1.0f, 2.0f, 3.0f});
  const QuantileCuts cuts = QuantileCuts::Compute(ds, 256);
  EXPECT_EQ(cuts.BinFor(0, 100.0f), cuts.NumCuts(0));
  EXPECT_EQ(cuts.BinFor(0, -100.0f), 1u);  // below min -> first bin
}

TEST(Quantile, CutsStrictlyIncreasing) {
  Rng rng(5);
  std::vector<float> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(static_cast<float>(rng.Normal() * 10.0));
  }
  const Dataset ds = OneFeature(std::move(values));
  const QuantileCuts cuts = QuantileCuts::Compute(ds, 64);
  EXPECT_LE(cuts.NumCuts(0), 63u);
  EXPECT_GE(cuts.NumCuts(0), 32u);  // plenty of distinct values available
  for (uint32_t b = 2; b <= cuts.NumCuts(0); ++b) {
    EXPECT_LT(cuts.CutFor(0, b - 1), cuts.CutFor(0, b));
  }
}

TEST(Quantile, EveryValueMapsWithinItsCutBounds) {
  Rng rng(9);
  std::vector<float> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(static_cast<float>(rng.Uniform(-5.0, 5.0)));
  }
  const Dataset ds = OneFeature(values);
  const QuantileCuts cuts = QuantileCuts::Compute(ds, 32);
  for (float v : values) {
    const uint32_t bin = cuts.BinFor(0, v);
    ASSERT_GE(bin, 1u);
    ASSERT_LE(bin, cuts.NumCuts(0));
    EXPECT_LE(v, cuts.CutFor(0, bin));  // inside upper bound
    if (bin > 1) {
      EXPECT_GT(v, cuts.CutFor(0, bin - 1));  // above lower bound
    }
  }
}

TEST(Quantile, QuantilePathRoughlyBalancesDistinctValues) {
  // 1000 distinct uniform values into at most 10 bins: each bin should
  // cover roughly 100 distinct values.
  std::vector<float> values;
  for (int i = 0; i < 1000; ++i) values.push_back(static_cast<float>(i));
  const Dataset ds = OneFeature(values);
  const QuantileCuts cuts = QuantileCuts::Compute(ds, 11);
  ASSERT_LE(cuts.NumCuts(0), 10u);
  std::vector<int> counts(cuts.NumCuts(0) + 1, 0);
  for (float v : values) ++counts[cuts.BinFor(0, v)];
  for (uint32_t b = 1; b <= cuts.NumCuts(0); ++b) {
    EXPECT_GT(counts[b], 50);
    EXPECT_LT(counts[b], 200);
  }
}

TEST(Quantile, FeatureNeverPresentHasNoCuts) {
  // Feature 1 is always missing.
  const Dataset ds = Dataset::FromDense(
      2, 2, {1.0f, kMissingValue, 2.0f, kMissingValue}, {0.0f, 1.0f});
  const QuantileCuts cuts = QuantileCuts::Compute(ds, 256);
  EXPECT_EQ(cuts.NumCuts(1), 0u);
  EXPECT_EQ(cuts.NumBins(1), 1u);
  EXPECT_EQ(cuts.BinFor(1, 5.0f), 0u);  // any value maps to the missing bin
}

TEST(Quantile, ParallelMatchesSerial) {
  Rng rng(21);
  const uint32_t rows = 3000;
  const uint32_t features = 17;
  std::vector<float> values(static_cast<size_t>(rows) * features);
  for (auto& v : values) {
    v = rng.Bernoulli(0.1)
            ? kMissingValue
            : static_cast<float>(rng.Normal() * (1.0 + rng.NextDouble()));
  }
  const Dataset ds = Dataset::FromDense(rows, features, std::move(values),
                                        std::vector<float>(rows, 0.0f));
  const QuantileCuts serial = QuantileCuts::Compute(ds, 64, nullptr);
  ThreadPool pool(4);
  const QuantileCuts parallel = QuantileCuts::Compute(ds, 64, &pool);
  EXPECT_EQ(serial.cuts(), parallel.cuts());
  EXPECT_EQ(serial.cut_ptr(), parallel.cut_ptr());
}

TEST(Quantile, RespectsMaxBins) {
  Rng rng(33);
  std::vector<float> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(static_cast<float>(rng.NextDouble()));
  }
  const Dataset ds = OneFeature(std::move(values));
  for (int max_bins : {2, 4, 16, 256}) {
    const QuantileCuts cuts = QuantileCuts::Compute(ds, max_bins);
    EXPECT_LE(cuts.NumCuts(0), static_cast<uint32_t>(max_bins - 1));
    EXPECT_GE(cuts.NumCuts(0), 1u);
  }
}

TEST(Quantile, FromRawRoundtrip) {
  const Dataset ds = OneFeature({1.0f, 2.0f, 3.0f});
  const QuantileCuts cuts = QuantileCuts::Compute(ds, 256);
  const QuantileCuts copy = QuantileCuts::FromRaw(
      cuts.cuts(), cuts.cut_ptr(), cuts.max_bins());
  EXPECT_EQ(copy.BinFor(0, 2.5f), cuts.BinFor(0, 2.5f));
  EXPECT_EQ(copy.NumCuts(0), cuts.NumCuts(0));
}

// The serial cut algorithm Compute replaced, kept as its oracle: gather
// every present value into growing per-feature vectors, std::sort +
// std::unique them, then select cuts. The one change is the -0.0 -> +0.0
// read Compute also does; without it which zero survives the dedupe
// depends on the sort's internals.
QuantileCuts OracleCuts(const Dataset& dataset, int max_bins) {
  const size_t max_cuts = static_cast<size_t>(max_bins - 1);
  std::vector<std::vector<float>> feature_values(dataset.num_features());
  for (uint32_t r = 0; r < dataset.num_rows(); ++r) {
    dataset.ForEachInRow(r, [&](uint32_t f, float v) {
      feature_values[f].push_back(v == 0.0f ? 0.0f : v);
    });
  }
  std::vector<float> cuts;
  std::vector<uint32_t> cut_ptr{0};
  for (std::vector<float>& values : feature_values) {
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    const size_t distinct = values.size();
    std::vector<float> out;
    if (distinct > 0 && distinct <= max_cuts) {
      for (size_t i = 0; i + 1 < distinct; ++i) {
        const float mid = values[i] + (values[i + 1] - values[i]) * 0.5f;
        out.push_back(mid > values[i] ? mid : values[i]);
      }
      out.push_back(values.back());
    } else if (distinct > 0) {
      for (size_t c = 1; c < max_cuts; ++c) {
        const size_t idx = static_cast<size_t>(
            static_cast<double>(c) * static_cast<double>(distinct) /
            static_cast<double>(max_cuts));
        out.push_back(values[std::min(idx, distinct - 1)]);
      }
      out.push_back(values.back());
      out.erase(std::unique(out.begin(), out.end()), out.end());
    }
    cuts.insert(cuts.end(), out.begin(), out.end());
    cut_ptr.push_back(static_cast<uint32_t>(cuts.size()));
  }
  return QuantileCuts::FromRaw(std::move(cuts), std::move(cut_ptr), max_bins);
}

std::vector<uint32_t> Bits(const std::vector<float>& values) {
  std::vector<uint32_t> bits(values.size());
  if (!values.empty()) {
    std::memcpy(bits.data(), values.data(), values.size() * sizeof(float));
  }
  return bits;
}

// One column per value shape; columns 0-5 also have ~10% missing entries.
Dataset ShapedDense(uint32_t rows, uint64_t seed) {
  constexpr uint32_t kFeatures = 9;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kDenormMin = std::numeric_limits<float>::denorm_min();
  Rng rng(seed);
  std::vector<float> values(static_cast<size_t>(rows) * kFeatures);
  for (uint32_t r = 0; r < rows; ++r) {
    float* row = values.data() + static_cast<size_t>(r) * kFeatures;
    // Low-cardinality integers.
    row[0] = static_cast<float>(rng.NextBelow(10));
    // Continuous values.
    row[1] = static_cast<float>(rng.Normal() * 3.0);
    // Far more distinct values than any max_cuts.
    row[2] = static_cast<float>(rng.NextDouble());
    // Infinities of both signs among finite values.
    const uint64_t pick = rng.NextBelow(5);
    row[3] = pick == 0   ? kInf
             : pick == 1 ? -kInf
                         : static_cast<float>(rng.Normal());
    // Denormals of both signs, and zero.
    row[4] = static_cast<float>(static_cast<int>(rng.NextBelow(41)) - 20) *
             kDenormMin;
    // A mix of -0.0 and +0.0 beside a few other values.
    const uint64_t zero = rng.NextBelow(4);
    row[5] = zero == 0 ? -0.0f : zero == 1 ? 0.0f : zero == 2 ? -1.0f : 1.0f;
    for (uint32_t f = 0; f < 6; ++f) {
      if (rng.Bernoulli(0.1)) row[f] = kMissingValue;
    }
    row[6] = kMissingValue;  // never present
    row[7] = 2.5f;           // single-valued
    row[8] = -0.0f;          // single-valued, negative zero only
  }
  return Dataset::FromDense(rows, kFeatures, std::move(values),
                            std::vector<float>(rows, 0.0f));
}

Dataset ToCsr(const Dataset& dense) {
  std::vector<uint32_t> row_ptr{0};
  std::vector<Entry> entries;
  for (uint32_t r = 0; r < dense.num_rows(); ++r) {
    dense.ForEachInRow(r, [&](uint32_t f, float v) {
      entries.push_back({f, v});
    });
    row_ptr.push_back(static_cast<uint32_t>(entries.size()));
  }
  return Dataset::FromCsr(dense.num_rows(), dense.num_features(),
                          std::move(row_ptr), std::move(entries),
                          dense.labels());
}

TEST(QuantileIdentity, MatchesOracleOnEveryLayoutAndThreadCount) {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  for (int threads : {1, 2, 3, 4, 7}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  const std::string path =
      ::testing::TempDir() + "harp_quantile_identity.cache";
  // 3000 rows put the per-chunk, per-feature counts on both sides of the
  // radix-sort threshold across the pools; 5 and 2 rows leave some of the
  // 7 threads without rows.
  for (uint32_t rows : {3000u, 5u, 2u}) {
    const Dataset dense = ShapedDense(rows, 17 + rows);
    const Dataset csr = ToCsr(dense);
    std::string error;
    CacheWriteOptions write_options;
    write_options.page_align = true;
    ASSERT_TRUE(WriteDatasetCache(path, dense, &error, write_options))
        << error;
    Dataset mapped;
    CacheReadOptions read_options;
    read_options.use_mmap = true;
    ASSERT_TRUE(ReadDatasetCache(path, &mapped, &error, read_options))
        << error;
    ASSERT_TRUE(mapped.is_mapped());

    const Dataset* layouts[] = {&dense, &csr, &mapped};
    for (int max_bins : {256, 16, 2}) {
      const QuantileCuts oracle = OracleCuts(dense, max_bins);
      for (const Dataset* ds : layouts) {
        for (const auto& pool : pools) {
          const QuantileCuts cuts =
              QuantileCuts::Compute(*ds, max_bins, pool.get());
          const std::string where =
              "rows " + std::to_string(rows) + " max_bins " +
              std::to_string(max_bins) + " layout " +
              (ds == &csr ? "csr" : ds == &mapped ? "mmap" : "dense") +
              " threads " +
              std::to_string(pool ? pool->num_threads() : 0);
          ASSERT_EQ(Bits(cuts.cuts()), Bits(oracle.cuts())) << where;
          ASSERT_EQ(cuts.cut_ptr(), oracle.cut_ptr()) << where;
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(QuantileIdentity, SignedZerosShareOnePositiveZeroCut) {
  const Dataset ds = OneFeature({-0.0f, 0.0f, -0.0f, 0.0f});
  const QuantileCuts cuts = QuantileCuts::Compute(ds, 256);
  ASSERT_EQ(cuts.NumCuts(0), 1u);
  EXPECT_FALSE(std::signbit(cuts.CutFor(0, 1)));
  EXPECT_EQ(cuts.BinFor(0, -0.0f), cuts.BinFor(0, 0.0f));
}

}  // namespace
}  // namespace harp
