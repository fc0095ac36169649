// Out-of-core path: mmap-backed caches must be bit-equivalent to heap
// loads, corruption must be caught through the mapping, and the mapping
// itself must stay read-only.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/gbdt.h"
#include "core/model_io.h"
#include "data/binary_cache.h"
#include "data/quantile.h"
#include "data/synthetic.h"

namespace harp {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

// Grouped dataset -> binned cache on disk; groups exercise the optional
// trailing section and give group_ptr something to round-trip.
std::string WriteGroupedBinnedCache(const std::string& path) {
  RankingSpec spec;
  spec.num_queries = 40;
  const Dataset data = GenerateRankingSynthetic(spec);
  const BinnedMatrix matrix =
      BinnedMatrix::Build(data, QuantileCuts::Compute(data, 32));
  std::string error;
  EXPECT_TRUE(WriteBinnedCache(path, matrix, data.labels(), &error)) << error;
  return path;
}

TEST(OutOfCore, HeapAndMmapBinnedLoadsAreBitIdentical) {
  const std::string path =
      WriteGroupedBinnedCache("/tmp/harp_ooc_test_ident.cache");

  BinnedMatrix heap_m, map_m;
  std::vector<float> heap_labels, map_labels;
  std::string error;
  ASSERT_TRUE(ReadBinnedCache(path, &heap_m, &heap_labels, &error)) << error;

  CacheReadOptions opts;
  opts.use_mmap = true;
  CacheReadInfo info;
  ASSERT_TRUE(
      ReadBinnedCache(path, &map_m, &map_labels, &error, opts, &info))
      << error;
  ASSERT_TRUE(info.mapped) << info.note;
  EXPECT_TRUE(map_m.IsMapped());
  EXPECT_FALSE(heap_m.IsMapped());

  ASSERT_EQ(heap_m.num_rows(), map_m.num_rows());
  ASSERT_EQ(heap_m.num_features(), map_m.num_features());
  EXPECT_EQ(heap_labels, map_labels);
  // The bin image is byte-identical between the heap copy and the mapping.
  const size_t bins =
      static_cast<size_t>(heap_m.num_rows()) * heap_m.num_features();
  EXPECT_EQ(std::memcmp(heap_m.BinData(), map_m.BinData(), bins), 0);
  // Satellites of the matrix survive the mmap path too — group_ptr
  // included (it rides in the optional trailing section).
  ASSERT_TRUE(map_m.has_groups());
  EXPECT_EQ(heap_m.group_ptr(), map_m.group_ptr());
  for (uint32_t f = 0; f <= heap_m.num_features(); ++f) {
    EXPECT_EQ(heap_m.BinOffsetsData()[f], map_m.BinOffsetsData()[f]);
  }
  std::remove(path.c_str());
}

TEST(OutOfCore, MemoryBytesSeparatesHeapFromMapped) {
  const std::string path =
      WriteGroupedBinnedCache("/tmp/harp_ooc_test_mem.cache");

  BinnedMatrix heap_m, map_m;
  std::vector<float> labels;
  std::string error;
  ASSERT_TRUE(ReadBinnedCache(path, &heap_m, &labels, &error)) << error;
  CacheReadOptions opts;
  opts.use_mmap = true;
  ASSERT_TRUE(ReadBinnedCache(path, &map_m, &labels, &error, opts)) << error;

  const size_t bins =
      static_cast<size_t>(heap_m.num_rows()) * heap_m.num_features();
  // Heap load owns the bins; mapped load reports them as mapped bytes and
  // its heap footprint drops by exactly the bin image.
  EXPECT_EQ(heap_m.MappedBytes(), 0u);
  EXPECT_EQ(map_m.MappedBytes(), bins);
  EXPECT_GE(heap_m.MemoryBytes(), bins);
  EXPECT_EQ(heap_m.MemoryBytes() - bins, map_m.MemoryBytes());
  std::remove(path.c_str());
}

TEST(OutOfCore, HeapAndMmapDatasetLoadsAreBitIdentical) {
  SyntheticSpec spec;
  spec.rows = 700;
  spec.features = 9;
  const Dataset original = GenerateSynthetic(spec);
  const std::string path = "/tmp/harp_ooc_test_ds.cache";
  std::string error;
  CacheWriteOptions wopts;
  wopts.page_align = true;
  ASSERT_TRUE(WriteDatasetCache(path, original, &error, wopts)) << error;

  Dataset heap_ds, map_ds;
  ASSERT_TRUE(ReadDatasetCache(path, &heap_ds, &error)) << error;
  CacheReadOptions ropts;
  ropts.use_mmap = true;
  CacheReadInfo info;
  ASSERT_TRUE(ReadDatasetCache(path, &map_ds, &error, ropts, &info)) << error;
  ASSERT_TRUE(info.mapped) << info.note;

  EXPECT_EQ(heap_ds.labels(), map_ds.labels());
  const size_t floats =
      static_cast<size_t>(original.num_rows()) * original.num_features();
  EXPECT_EQ(std::memcmp(heap_ds.dense_data(), map_ds.dense_data(),
                        floats * sizeof(float)),
            0);
  EXPECT_EQ(map_ds.MappedBytes(), floats * sizeof(float));
  EXPECT_EQ(heap_ds.MappedBytes(), 0u);
  EXPECT_LT(map_ds.MemoryBytes(), heap_ds.MemoryBytes());
  std::remove(path.c_str());
}

TEST(OutOfCore, TruncationMidSectionRejectedOnBothPaths) {
  const std::string path =
      WriteGroupedBinnedCache("/tmp/harp_ooc_test_trunc.cache");
  const std::string content = ReadAll(path);
  // Cut inside the bin payload (the aligned tail section), past the
  // header and early sections so only the mapped-size check can catch it.
  WriteAll(path, content.substr(0, content.size() - content.size() / 3));

  BinnedMatrix m;
  std::vector<float> labels;
  std::string error;
  EXPECT_FALSE(ReadBinnedCache(path, &m, &labels, &error));
  CacheReadOptions opts;
  opts.use_mmap = true;
  EXPECT_FALSE(ReadBinnedCache(path, &m, &labels, &error, opts));
  std::remove(path.c_str());
}

TEST(OutOfCore, ChecksumVerifiedOverTheMappedImage) {
  const std::string path =
      WriteGroupedBinnedCache("/tmp/harp_ooc_test_sum.cache");
  std::string content = ReadAll(path);
  // Flip one bit deep inside the page-aligned bin payload; the streaming
  // checksum over the mapping must reject the file before any training
  // code can consume a corrupt bin.
  content[content.size() - 4096] ^= 0x10;
  WriteAll(path, content);

  BinnedMatrix m;
  std::vector<float> labels;
  std::string error;
  CacheReadOptions opts;
  opts.use_mmap = true;
  EXPECT_FALSE(ReadBinnedCache(path, &m, &labels, &error, opts));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(OutOfCore, PageUnalignedTailStillMaps) {
  // The checksum footer lands wherever the bin payload ends, so the file
  // length is almost never a page multiple; the mapping must cover the
  // ragged tail page.
  const std::string path =
      WriteGroupedBinnedCache("/tmp/harp_ooc_test_tail.cache");
  const std::string content = ReadAll(path);
  ASSERT_NE(content.size() % 4096, 0u)
      << "grouped cache unexpectedly page-sized; pick a different spec";

  BinnedMatrix m;
  std::vector<float> labels;
  std::string error;
  CacheReadOptions opts;
  opts.use_mmap = true;
  CacheReadInfo info;
  ASSERT_TRUE(ReadBinnedCache(path, &m, &labels, &error, opts, &info))
      << error;
  EXPECT_TRUE(info.mapped) << info.note;
  // Touch the last row (it lives in the tail page).
  (void)m.RowBins(m.num_rows() - 1)[m.num_features() - 1];
  std::remove(path.c_str());
}

using OutOfCoreDeathTest = ::testing::Test;

TEST(OutOfCoreDeathTest, WritingThroughTheMappingDies) {
  const std::string path =
      WriteGroupedBinnedCache("/tmp/harp_ooc_test_ro.cache");
  BinnedMatrix m;
  std::vector<float> labels;
  std::string error;
  CacheReadOptions opts;
  opts.use_mmap = true;
  ASSERT_TRUE(ReadBinnedCache(path, &m, &labels, &error, opts)) << error;
  ASSERT_TRUE(m.IsMapped());
  // The bin image is PROT_READ; a stray write through the const pointer
  // must fault instead of silently corrupting training data.
  uint8_t* bins = const_cast<uint8_t*>(m.BinData());
  EXPECT_DEATH({ bins[0] = 0xFF; }, "");
  // MutableHeap() refuses a mapped backend outright.
  BinMatrixStorage storage = m.storage();
  EXPECT_DEATH({ (void)storage.MutableHeap(); }, "");
  std::remove(path.c_str());
}

TEST(OutOfCore, HeapAndMmapTrainingProduceIdenticalModels) {
  SyntheticSpec spec;
  spec.rows = 4000;
  spec.features = 16;
  spec.seed = 77;
  const Dataset data = GenerateSynthetic(spec);
  const BinnedMatrix built =
      BinnedMatrix::Build(data, QuantileCuts::Compute(data, 64));
  const std::string path = "/tmp/harp_ooc_test_train.cache";
  std::string error;
  ASSERT_TRUE(WriteBinnedCache(path, built, data.labels(), &error)) << error;

  BinnedMatrix heap_m, map_m;
  std::vector<float> heap_labels, map_labels;
  ASSERT_TRUE(ReadBinnedCache(path, &heap_m, &heap_labels, &error)) << error;
  CacheReadOptions opts;
  opts.use_mmap = true;
  ASSERT_TRUE(ReadBinnedCache(path, &map_m, &map_labels, &error, opts))
      << error;
  ASSERT_TRUE(map_m.IsMapped());

  TrainParams sync;
  sync.num_trees = 6;
  sync.tree_size = 5;
  sync.grow_policy = GrowPolicy::kTopK;
  sync.topk = 4;
  sync.mode = ParallelMode::kSYNC;
  sync.num_threads = 2;
  // The cached-retraining configuration: DP replicas over quantized
  // histograms with sibling subtraction.
  TrainParams dp_quant = sync;
  dp_quant.mode = ParallelMode::kDP;
  dp_quant.quantize_hist = true;
  dp_quant.use_hist_subtraction = true;

  const std::string path_a = "/tmp/harp_ooc_test_model_a.bin";
  const std::string path_b = "/tmp/harp_ooc_test_model_b.bin";
  for (const TrainParams& p : {sync, dp_quant}) {
    SCOPED_TRACE(ToString(p.mode));
    TrainStats heap_stats, map_stats;
    const GbdtModel heap_model =
        GbdtTrainer(p).TrainBinned(heap_m, heap_labels, &heap_stats);
    const GbdtModel map_model =
        GbdtTrainer(p).TrainBinned(map_m, map_labels, &map_stats);

    ASSERT_TRUE(SaveModel(path_a, heap_model, &error)) << error;
    ASSERT_TRUE(SaveModel(path_b, map_model, &error)) << error;
    EXPECT_EQ(ReadAll(path_a), ReadAll(path_b));

    // The streaming counters only tick on the mapped run.
    EXPECT_EQ(heap_stats.mapped_bytes, 0);
    EXPECT_GT(map_stats.mapped_bytes, 0);
  }
  std::remove(path.c_str());
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

}  // namespace
}  // namespace harp
