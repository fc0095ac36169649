// Tests for the binary dataset cache.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <utility>
#include <vector>

#include "data/binary_cache.h"
#include "data/binned_matrix.h"
#include "data/quantile.h"
#include "data/synthetic.h"

namespace harp {
namespace {

void ExpectDatasetsEqual(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_features(), b.num_features());
  ASSERT_EQ(a.layout(), b.layout());
  EXPECT_EQ(a.labels(), b.labels());
  for (uint32_t r = 0; r < a.num_rows(); ++r) {
    for (uint32_t f = 0; f < a.num_features(); ++f) {
      const float x = a.At(r, f);
      const float y = b.At(r, f);
      ASSERT_TRUE((IsMissing(x) && IsMissing(y)) || x == y)
          << "mismatch at " << r << "," << f;
    }
  }
}

TEST(BinaryCache, DenseRoundtrip) {
  SyntheticSpec spec;
  spec.rows = 500;
  spec.features = 12;
  spec.density = 0.9;
  const Dataset original = GenerateSynthetic(spec);

  const std::string path = "/tmp/harp_cache_dense.bin";
  std::string error;
  ASSERT_TRUE(WriteDatasetCache(path, original, &error)) << error;
  Dataset loaded;
  ASSERT_TRUE(ReadDatasetCache(path, &loaded, &error)) << error;
  ExpectDatasetsEqual(original, loaded);
  std::remove(path.c_str());
}

TEST(BinaryCache, SparseRoundtrip) {
  SyntheticSpec spec;
  spec.rows = 400;
  spec.features = 40;
  spec.density = 0.2;
  spec.sparse_storage = true;
  const Dataset original = GenerateSynthetic(spec);
  ASSERT_EQ(original.layout(), Dataset::Layout::kSparse);

  const std::string path = "/tmp/harp_cache_sparse.bin";
  std::string error;
  ASSERT_TRUE(WriteDatasetCache(path, original, &error)) << error;
  Dataset loaded;
  ASSERT_TRUE(ReadDatasetCache(path, &loaded, &error)) << error;
  ExpectDatasetsEqual(original, loaded);
  std::remove(path.c_str());
}

TEST(BinaryCache, GroupedRoundtripKeepsGroupPtr) {
  RankingSpec spec;
  spec.num_queries = 30;
  const Dataset original = GenerateRankingSynthetic(spec);
  ASSERT_TRUE(original.has_groups());

  const std::string path = "/tmp/harp_cache_grouped.bin";
  std::string error;
  ASSERT_TRUE(WriteDatasetCache(path, original, &error)) << error;
  Dataset loaded;
  ASSERT_TRUE(ReadDatasetCache(path, &loaded, &error)) << error;
  ExpectDatasetsEqual(original, loaded);
  ASSERT_TRUE(loaded.has_groups());
  EXPECT_EQ(loaded.group_ptr(), original.group_ptr());
  std::remove(path.c_str());
}

TEST(BinaryCache, UngroupedFileIsByteIdenticalToPreGroupFormat) {
  // The group section is optional-trailing: writing an ungrouped dataset
  // must produce exactly the bytes the pre-group writer produced (no
  // empty section marker), so existing caches stay valid and freshly
  // written ungrouped caches load anywhere.
  SyntheticSpec spec;
  spec.rows = 120;
  spec.features = 5;
  const Dataset ungrouped = GenerateSynthetic(spec);
  const std::string path = "/tmp/harp_cache_nogroups.bin";
  std::string error;
  ASSERT_TRUE(WriteDatasetCache(path, ungrouped, &error)) << error;

  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::remove(path.c_str());
  // Layout: header (17) + labels section + values section + checksum (8).
  const size_t expected = 17 + (8 + spec.rows * 4) +
                          (8 + size_t{spec.rows} * spec.features * 4) + 8;
  EXPECT_EQ(content.size(), expected);
  Dataset loaded;
  const std::string path2 = "/tmp/harp_cache_nogroups2.bin";
  {
    std::ofstream out(path2, std::ios::binary);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  }
  ASSERT_TRUE(ReadDatasetCache(path2, &loaded, &error)) << error;
  EXPECT_FALSE(loaded.has_groups());
  std::remove(path2.c_str());
}

TEST(BinaryCache, CorruptGroupSectionRejected) {
  RankingSpec spec;
  spec.num_queries = 10;
  const Dataset original = GenerateRankingSynthetic(spec);
  const std::string path = "/tmp/harp_cache_badgroups.bin";
  std::string error;
  ASSERT_TRUE(WriteDatasetCache(path, original, &error)) << error;

  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  // Flip a byte inside the trailing group section (just before the
  // checksum): the checksum must cover the optional section too.
  content[content.size() - 12] ^= 0xFF;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  }
  Dataset ds;
  EXPECT_FALSE(ReadDatasetCache(path, &ds, &error));
  std::remove(path.c_str());
}

TEST(BinaryCache, MissingFileFails) {
  Dataset ds;
  std::string error;
  EXPECT_FALSE(ReadDatasetCache("/tmp/does_not_exist_harp.bin", &ds, &error));
  EXPECT_FALSE(error.empty());
}

TEST(BinaryCache, CorruptHeaderRejected) {
  const std::string path = "/tmp/harp_cache_corrupt.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a harp cache file at all";
  }
  Dataset ds;
  std::string error;
  EXPECT_FALSE(ReadDatasetCache(path, &ds, &error));
  std::remove(path.c_str());
}

TEST(BinaryCache, TruncatedFileRejected) {
  SyntheticSpec spec;
  spec.rows = 200;
  spec.features = 8;
  const Dataset original = GenerateSynthetic(spec);
  const std::string path = "/tmp/harp_cache_trunc.bin";
  std::string error;
  ASSERT_TRUE(WriteDatasetCache(path, original, &error)) << error;

  // Truncate to half.
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size() / 2));
  }
  Dataset ds;
  EXPECT_FALSE(ReadDatasetCache(path, &ds, &error));
  std::remove(path.c_str());
}

TEST(BinaryCache, ChecksumFlipRejected) {
  SyntheticSpec spec;
  spec.rows = 300;
  spec.features = 6;
  const Dataset original = GenerateSynthetic(spec);
  const std::string path = "/tmp/harp_cache_bitflip.bin";
  std::string error;
  ASSERT_TRUE(WriteDatasetCache(path, original, &error)) << error;

  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  // Flip one payload bit in the middle of the value section.
  content[content.size() / 2] ^= 0x04;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  }
  Dataset ds;
  EXPECT_FALSE(ReadDatasetCache(path, &ds, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  EXPECT_NE(error.find("re-generate"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(BinaryCache, TrailingGarbageRejected) {
  SyntheticSpec spec;
  spec.rows = 100;
  spec.features = 4;
  const Dataset original = GenerateSynthetic(spec);
  const std::string path = "/tmp/harp_cache_garbage.bin";
  std::string error;
  ASSERT_TRUE(WriteDatasetCache(path, original, &error)) << error;
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "extra bytes after the footer";
  }
  Dataset ds;
  EXPECT_FALSE(ReadDatasetCache(path, &ds, &error));
  std::remove(path.c_str());
}

TEST(BinaryCache, V1FormatRejectedWithRegenerateHint) {
  const std::string path = "/tmp/harp_cache_v1.bin";
  {
    const uint64_t v1_magic = 0x48415250474231ULL;  // "HARPGB1"
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(&v1_magic), sizeof(v1_magic));
    const std::string padding(64, '\0');
    out.write(padding.data(), static_cast<std::streamsize>(padding.size()));
  }
  Dataset ds;
  std::string error;
  EXPECT_FALSE(ReadDatasetCache(path, &ds, &error));
  EXPECT_NE(error.find("v1"), std::string::npos) << error;
  EXPECT_NE(error.find("re-generate"), std::string::npos) << error;
  std::remove(path.c_str());
}

// A binned cache whose cut values hold a NaN or run backwards within a
// feature is refused on both read paths, even with a valid checksum; a
// repeated value, which computed cuts can hold, still loads.
TEST(BinaryCache, BinnedCacheWithNanOrUnorderedCutsRejected) {
  SyntheticSpec spec;
  spec.rows = 300;
  spec.features = 5;
  const Dataset data = GenerateSynthetic(spec);
  const QuantileCuts cuts = QuantileCuts::Compute(data, 16);
  uint32_t feature = 0;
  while (cuts.NumCuts(feature) < 2) ++feature;
  const uint32_t first = cuts.cut_ptr()[feature];
  auto write_with = [&](const std::string& path, std::vector<float> values) {
    const BinnedMatrix matrix = BinnedMatrix::Build(
        data, QuantileCuts::FromRaw(std::move(values), cuts.cut_ptr(),
                                    cuts.max_bins()));
    std::string error;
    EXPECT_TRUE(WriteBinnedCache(path, matrix, data.labels(), &error))
        << error;
  };
  std::vector<float> nan_cut = cuts.cuts();
  nan_cut[first + 1] = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> swapped = cuts.cuts();
  std::swap(swapped[first], swapped[first + 1]);
  std::vector<float> repeated = cuts.cuts();
  repeated[first + 1] = repeated[first];
  const std::string path = "/tmp/harp_cache_bad_cuts.bin";
  CacheReadOptions mapped;
  mapped.use_mmap = true;
  for (const CacheReadOptions& opts : {CacheReadOptions{}, mapped}) {
    for (const std::vector<float>& bad : {nan_cut, swapped}) {
      write_with(path, bad);
      BinnedMatrix matrix;
      std::vector<float> labels;
      std::string error;
      EXPECT_FALSE(ReadBinnedCache(path, &matrix, &labels, &error, opts));
      EXPECT_NE(error.find("bad cuts"), std::string::npos) << error;
    }
    write_with(path, repeated);
    BinnedMatrix matrix;
    std::vector<float> labels;
    std::string error;
    EXPECT_TRUE(ReadBinnedCache(path, &matrix, &labels, &error, opts))
        << error;
  }
  std::remove(path.c_str());
}

TEST(BinaryCache, UnwritablePathFails) {
  SyntheticSpec spec;
  spec.rows = 10;
  spec.features = 2;
  const Dataset ds = GenerateSynthetic(spec);
  std::string error;
  EXPECT_FALSE(
      WriteDatasetCache("/nonexistent_dir/x.bin", ds, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace harp
