// Unit tests for BinnedMatrix: bin correctness, offsets, layouts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/random.h"
#include "data/binned_matrix.h"
#include "data/synthetic.h"
#include "parallel/thread_pool.h"

namespace harp {
namespace {

Dataset RandomDataset(uint32_t rows, uint32_t features, double density,
                      uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(static_cast<size_t>(rows) * features);
  std::vector<float> labels(rows);
  for (auto& v : values) {
    v = rng.Bernoulli(density)
            ? static_cast<float>(rng.Normal() * 3.0)
            : kMissingValue;
  }
  for (auto& l : labels) l = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
  return Dataset::FromDense(rows, features, std::move(values),
                            std::move(labels));
}

TEST(BinnedMatrix, BinsMatchQuantileCuts) {
  const Dataset ds = RandomDataset(500, 7, 0.85, 3);
  QuantileCuts cuts = QuantileCuts::Compute(ds, 32);
  const BinnedMatrix matrix = BinnedMatrix::Build(ds, cuts);
  for (uint32_t r = 0; r < ds.num_rows(); ++r) {
    for (uint32_t f = 0; f < ds.num_features(); ++f) {
      EXPECT_EQ(matrix.Bin(r, f), cuts.BinFor(f, ds.At(r, f)))
          << "row " << r << " feature " << f;
    }
  }
}

TEST(BinnedMatrix, MissingEntriesAreBinZero) {
  const Dataset ds = RandomDataset(300, 4, 0.5, 5);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  for (uint32_t r = 0; r < ds.num_rows(); ++r) {
    for (uint32_t f = 0; f < ds.num_features(); ++f) {
      if (IsMissing(ds.At(r, f))) {
        EXPECT_EQ(matrix.Bin(r, f), 0);
      } else {
        EXPECT_GE(matrix.Bin(r, f), 1);
      }
    }
  }
}

TEST(BinnedMatrix, OffsetsArePrefixSumsOfBinCounts) {
  const Dataset ds = RandomDataset(400, 6, 0.9, 7);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 24));
  uint32_t expected = 0;
  for (uint32_t f = 0; f < ds.num_features(); ++f) {
    EXPECT_EQ(matrix.BinOffset(f), expected);
    expected += matrix.NumBins(f);
  }
  EXPECT_EQ(matrix.TotalBins(), expected);
}

TEST(BinnedMatrix, RowBinsPointerMatchesBin) {
  const Dataset ds = RandomDataset(100, 5, 1.0, 11);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 16));
  for (uint32_t r = 0; r < ds.num_rows(); ++r) {
    const uint8_t* row = matrix.RowBins(r);
    for (uint32_t f = 0; f < ds.num_features(); ++f) {
      EXPECT_EQ(row[f], matrix.Bin(r, f));
    }
  }
}

TEST(BinnedMatrix, ColumnMajorMatchesRowMajor) {
  const Dataset ds = RandomDataset(256, 9, 0.8, 13);
  BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 32));
  EXPECT_FALSE(matrix.HasColumnMajor());
  matrix.EnsureColumnMajor();
  ASSERT_TRUE(matrix.HasColumnMajor());
  for (uint32_t f = 0; f < ds.num_features(); ++f) {
    const uint8_t* col = matrix.ColBins(f);
    for (uint32_t r = 0; r < ds.num_rows(); ++r) {
      EXPECT_EQ(col[r], matrix.Bin(r, f));
    }
  }
}

TEST(BinnedMatrix, ParallelBuildMatchesSerial) {
  const Dataset ds = RandomDataset(2000, 12, 0.7, 17);
  QuantileCuts cuts = QuantileCuts::Compute(ds, 48);
  const BinnedMatrix serial = BinnedMatrix::Build(ds, cuts);
  ThreadPool pool(4);
  BinnedMatrix parallel = BinnedMatrix::Build(ds, cuts, &pool);
  parallel.EnsureColumnMajor(&pool);
  for (uint32_t r = 0; r < ds.num_rows(); ++r) {
    for (uint32_t f = 0; f < ds.num_features(); ++f) {
      ASSERT_EQ(serial.Bin(r, f), parallel.Bin(r, f));
      ASSERT_EQ(serial.Bin(r, f), parallel.ColBins(f)[r]);
    }
  }
}

TEST(BinnedMatrix, SparseDatasetBinsAgreeWithDense) {
  // Build the same logical data in CSR and dense form; bins must agree.
  SyntheticSpec spec;
  spec.rows = 400;
  spec.features = 30;
  spec.density = 0.4;
  spec.seed = 99;
  spec.sparse_storage = false;
  const Dataset dense = GenerateSynthetic(spec);
  spec.sparse_storage = true;
  const Dataset sparse = GenerateSynthetic(spec);
  ASSERT_EQ(dense.NumPresent(), sparse.NumPresent());

  QuantileCuts cuts = QuantileCuts::Compute(dense, 32);
  const BinnedMatrix a = BinnedMatrix::Build(dense, cuts);
  const BinnedMatrix b = BinnedMatrix::Build(sparse, cuts);
  for (uint32_t r = 0; r < dense.num_rows(); ++r) {
    for (uint32_t f = 0; f < dense.num_features(); ++f) {
      ASSERT_EQ(a.Bin(r, f), b.Bin(r, f)) << r << "," << f;
    }
  }
}

TEST(BinnedMatrix, OneBytePerEntry) {
  const Dataset ds = RandomDataset(128, 16, 1.0, 23);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 256));
  // Row-major bins dominate: ~1 byte per (row, feature) — the paper's
  // 1/4-of-float32 footprint claim.
  EXPECT_LT(matrix.MemoryBytes(), static_cast<size_t>(128 * 16 * 2));
}

// std::lower_bound plus the clamp of values above the last cut.
uint32_t OracleBin(const std::vector<float>& cuts, float value) {
  if (IsMissing(value) || cuts.empty()) return 0;
  auto it = std::lower_bound(cuts.begin(), cuts.end(), value);
  if (it == cuts.end()) --it;
  return static_cast<uint32_t>(it - cuts.begin()) + 1;
}

TEST(BinFor, MatchesLowerBoundOracleForEveryCutCount) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(QuantileCuts::BinFor(nullptr, 0, 1.0f), 0u);
  Rng rng(31);
  for (uint32_t n = 1; n <= 255; ++n) {
    // Strictly ascending cuts with uneven gaps.
    std::vector<float> cuts(n);
    float next = static_cast<float>(rng.Normal() * 10.0);
    for (float& cut : cuts) {
      cut = next;
      next += static_cast<float>(0.01 + rng.NextDouble() * 3.0);
    }
    std::vector<float> probes{cuts.front() - 1.0f, cuts.back() + 1.0f,
                              -kInf, kInf, kMissingValue};
    for (uint32_t i = 0; i < n; ++i) {
      probes.push_back(cuts[i]);
      probes.push_back(std::nextafter(cuts[i], -kInf));
      probes.push_back(std::nextafter(cuts[i], kInf));
      if (i + 1 < n) probes.push_back(cuts[i] + (cuts[i + 1] - cuts[i]) * 0.5f);
    }
    for (float v : probes) {
      const uint32_t bin = QuantileCuts::BinFor(cuts.data(), n, v);
      ASSERT_EQ(bin, OracleBin(cuts, v)) << "cuts " << n << " value " << v;
      ASSERT_LE(bin, n);
    }
  }
}

TEST(BinnedMatrix, BuildMatchesPerCellBinForAcrossThreadCounts) {
  SyntheticSpec spec;
  spec.rows = 1500;
  spec.features = 40;
  spec.density = 0.3;
  spec.seed = 5;
  spec.sparse_storage = true;
  const Dataset csr = GenerateSynthetic(spec);
  const Dataset dense = RandomDataset(1500, 13, 0.8, 29);
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  for (int threads : {1, 2, 3, 4, 7}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  for (const Dataset* ds : {&dense, &csr}) {
    const QuantileCuts cuts = QuantileCuts::Compute(*ds, 64);
    for (const auto& pool : pools) {
      const BinnedMatrix matrix = BinnedMatrix::Build(*ds, cuts, pool.get());
      for (uint32_t r = 0; r < ds->num_rows(); ++r) {
        for (uint32_t f = 0; f < ds->num_features(); ++f) {
          ASSERT_EQ(matrix.Bin(r, f), cuts.BinFor(f, ds->At(r, f)))
              << "row " << r << " feature " << f << " threads "
              << (pool ? pool->num_threads() : 0);
        }
      }
    }
  }
}

}  // namespace
}  // namespace harp
