#include "data/binary_cache.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "common/logging.h"
#include "common/mmap_util.h"

namespace harp {
namespace {

constexpr uint64_t kMagicV1 = 0x48415250474231ULL;      // "HARPGB1"
constexpr uint64_t kMagicV2 = 0x48415250474232ULL;      // "HARPGB2"
constexpr uint64_t kMagicBinned = 0x4841525047424232ULL;  // "HARPGBB2"

// Header = magic + rows + features + layout; footer = checksum.
constexpr size_t kHeaderBytes = 8 + 4 + 4 + 1;
constexpr size_t kFooterBytes = 8;

// Binned header = magic + rows + features + max_bins + flags + bins_offset.
constexpr size_t kBinnedHeaderBytes = 8 + 4 + 4 + 4 + 1 + 8;
constexpr uint8_t kBinnedHasGroups = 0x01;

// High bit of the dataset-cache layout byte: section payloads are padded
// to kCacheAlign boundaries (the mmap-ready variant).
constexpr uint8_t kAlignedLayoutFlag = 0x80;

// File-format alignment, a constant rather than the runtime page size so
// images are portable across page-size configurations. madvise alignment
// is handled separately (MappedFile::Advise widens to real pages).
constexpr size_t kCacheAlign = 4096;

// Window for streaming passes over a mapping (checksum, bin validation):
// hash/check a window, then drop its pages so verification of an
// arbitrarily large cache stays within an out-of-core memory budget.
// Multiple of 8 (checksum words) and of kCacheAlign.
constexpr size_t kStreamWindowBytes = 4U << 20;

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// FNV-1a folded over 8-byte words (byte-wise on the tail): deterministic,
// fast enough to keep cache loads IO-bound, and any flipped payload bit
// changes the result. Chunked continuation is exact as long as every
// non-final chunk is a multiple of 8 bytes.
uint64_t HashUpdate(uint64_t hash, const char* data, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, 8);
    hash = (hash ^ word) * kFnvPrime;
  }
  for (; i < n; ++i) {
    hash = (hash ^ static_cast<unsigned char>(data[i])) * kFnvPrime;
  }
  return hash;
}

uint64_t HashBytes(const char* data, size_t n) {
  return HashUpdate(kFnvOffset, data, n);
}

// Hashes [0, n) of a mapping in kStreamWindowBytes windows, retiring each
// window's pages after folding it so the checksum pass itself never holds
// more than one window resident.
uint64_t HashMappedStreaming(const MappedFile& file, size_t n) {
  const char* data = reinterpret_cast<const char*>(file.data());
  uint64_t hash = kFnvOffset;
  for (size_t pos = 0; pos < n; pos += kStreamWindowBytes) {
    const size_t len = std::min(kStreamWindowBytes, n - pos);
    hash = HashUpdate(hash, data + pos, len);
    file.Advise(pos, len, MemAdvice::kDontNeed);
  }
  return hash;
}

void AppendRaw(std::string* buf, const void* data, size_t n) {
  buf->append(static_cast<const char*>(data), n);
}

// Appends one section: u64 byte count, an optional zero pad bringing the
// payload onto a kCacheAlign boundary, then the payload bytes.
void AppendSectionBytes(std::string* buf, const void* data, uint64_t bytes,
                        bool aligned) {
  AppendRaw(buf, &bytes, sizeof(bytes));
  if (aligned) buf->append((kCacheAlign - buf->size() % kCacheAlign) %
                               kCacheAlign, '\0');
  if (bytes > 0) AppendRaw(buf, data, static_cast<size_t>(bytes));
}

template <typename T>
void AppendSection(std::string* buf, const std::vector<T>& v,
                   bool aligned = false) {
  AppendSectionBytes(buf, v.data(), v.size() * sizeof(T), aligned);
}

// Cursor over an image's section area [start, size - kFooterBytes). Every
// read is bounds-checked against that window. In aligned mode the cursor
// skips the zero pad between each section's byte count and its payload.
class SectionReader {
 public:
  SectionReader(const char* data, size_t size, size_t start, bool aligned)
      : data_(data), pos_(start), limit_(size - kFooterBytes),
        aligned_(aligned) {}

  // Reads one section into *v, requiring exactly `expected` elements
  // (byte count and element size must agree — a byte count that is not a
  // multiple of sizeof(T), overruns the section area, or disagrees with
  // the expected element count is corruption).
  template <typename T>
  bool ReadSection(std::vector<T>* v, uint64_t expected) {
    uint64_t bytes = 0;
    if (!ReadCount(&bytes)) return false;
    if (bytes % sizeof(T) != 0 || bytes > limit_ - pos_) return false;
    if (bytes / sizeof(T) != expected) return false;
    v->resize(static_cast<size_t>(expected));
    if (bytes > 0) {
      std::memcpy(v->data(), data_ + pos_, static_cast<size_t>(bytes));
      pos_ += static_cast<size_t>(bytes);
    }
    return true;
  }

  // Reads one self-sized section into *v (element count taken from the
  // stored byte count). Used for the optional trailing group section.
  template <typename T>
  bool ReadSizedSection(std::vector<T>* v) {
    uint64_t bytes = 0;
    if (!ReadCount(&bytes)) return false;
    if (bytes % sizeof(T) != 0 || bytes > limit_ - pos_) return false;
    v->resize(static_cast<size_t>(bytes / sizeof(T)));
    if (bytes > 0) {
      std::memcpy(v->data(), data_ + pos_, static_cast<size_t>(bytes));
      pos_ += static_cast<size_t>(bytes);
    }
    return true;
  }

  // Zero-copy variant: points *out at the payload of the next section,
  // requiring exactly `expected_bytes`. Used for payloads that stay in
  // the file mapping (dense values, bins).
  bool ViewSection(const char** out, uint64_t expected_bytes) {
    uint64_t bytes = 0;
    if (!ReadCount(&bytes)) return false;
    if (bytes > limit_ - pos_ || bytes != expected_bytes) return false;
    *out = data_ + pos_;
    pos_ += static_cast<size_t>(bytes);
    return true;
  }

  // Skips a self-sized section (the binned cache's alignment pad).
  bool SkipSizedSection() {
    uint64_t bytes = 0;
    if (!ReadCount(&bytes)) return false;
    if (bytes > limit_ - pos_) return false;
    pos_ += static_cast<size_t>(bytes);
    return true;
  }

  // True when every byte of the section area has been consumed.
  bool AtEnd() const { return pos_ == limit_; }

  // Absolute offset of the cursor within the image.
  size_t pos() const { return pos_; }

 private:
  bool ReadCount(uint64_t* bytes) {
    if (pos_ + 8 > limit_) return false;
    std::memcpy(bytes, data_ + pos_, 8);
    pos_ += 8;
    if (aligned_) {
      const size_t next =
          (pos_ + kCacheAlign - 1) / kCacheAlign * kCacheAlign;
      if (next > limit_) return false;
      pos_ = next;
    }
    return true;
  }

  const char* data_;
  size_t pos_;
  size_t limit_;
  bool aligned_;
};

bool ValidateGroupPtr(const std::vector<uint32_t>& group_ptr, uint32_t rows) {
  if (group_ptr.size() < 2 || group_ptr.front() != 0 ||
      group_ptr.back() != rows) {
    return false;
  }
  for (size_t g = 0; g + 1 < group_ptr.size(); ++g) {
    if (group_ptr[g] >= group_ptr[g + 1]) return false;
  }
  return true;
}

// Parses the section area of a dataset-cache image (header and checksum
// already verified by the caller). The mmap read path has its own section
// walk because the dense payload stays in the file mapping there.
bool ParseDatasetSections(const char* data, size_t size,
                          const std::string& path, uint32_t rows,
                          uint32_t features, uint8_t base_layout,
                          bool aligned, Dataset* out, std::string* error) {
  SectionReader reader(data, size, kHeaderBytes, aligned);
  std::vector<float> labels;
  if (!reader.ReadSection(&labels, rows)) {
    *error = "bad labels in " + path;
    return false;
  }
  if (base_layout == 0) {
    const uint64_t count = static_cast<uint64_t>(rows) * features;
    std::vector<float> values;
    if (!reader.ReadSection(&values, count)) {
      *error = "bad values in " + path;
      return false;
    }
    *out = Dataset::FromDense(rows, features, std::move(values),
                              std::move(labels));
  } else {
    std::vector<uint32_t> row_ptr;
    std::vector<Entry> entries;
    if (!reader.ReadSection(&row_ptr, static_cast<uint64_t>(rows) + 1) ||
        row_ptr.back() > (1ULL << 31)) {
      *error = "bad CSR data in " + path;
      return false;
    }
    if (!reader.ReadSection(&entries, row_ptr.back())) {
      *error = "bad CSR data in " + path;
      return false;
    }
    *out = Dataset::FromCsr(rows, features, std::move(row_ptr),
                            std::move(entries), std::move(labels));
  }
  // Optional query-group section (absent in ungrouped and older files).
  if (!reader.AtEnd()) {
    std::vector<uint32_t> group_ptr;
    if (!reader.ReadSizedSection(&group_ptr) ||
        !ValidateGroupPtr(group_ptr, rows)) {
      *error = "bad group data in " + path;
      return false;
    }
    if (!reader.AtEnd()) {
      *error = "trailing garbage in " + path;
      return false;
    }
    out->SetGroupPtr(std::move(group_ptr));
  }
  return true;
}

bool ReadHeader(const char* data, size_t size, const std::string& path,
                uint64_t* magic, uint32_t* rows, uint32_t* features,
                uint8_t* layout, std::string* error) {
  if (size < kHeaderBytes + kFooterBytes) {
    *error = "truncated cache file " + path;
    return false;
  }
  std::memcpy(magic, data, 8);
  std::memcpy(rows, data + 8, 4);
  std::memcpy(features, data + 12, 4);
  std::memcpy(layout, data + 16, 1);
  if (*magic == kMagicV1) {
    *error = path + " uses cache format v1; delete it and re-generate cache";
    return false;
  }
  if (*magic != kMagicV2 || (*layout & ~kAlignedLayoutFlag) > 1) {
    *error = "bad header in " + path;
    return false;
  }
  return true;
}

}  // namespace

bool WriteDatasetCache(const std::string& path, const Dataset& dataset,
                       std::string* error, const CacheWriteOptions& opts) {
  std::string image;
  // values (dense) or entries (sparse) dominate; labels + row_ptr + header
  // fit in the slack of one extra row per element section.
  const uint64_t dense_count = dataset.layout() == Dataset::Layout::kDense
                                   ? static_cast<uint64_t>(
                                         dataset.num_rows()) *
                                         dataset.num_features()
                                   : 0;
  image.reserve(kHeaderBytes + kFooterBytes + 64 +
                (opts.page_align ? 4 * kCacheAlign : 0) +
                static_cast<size_t>(dense_count) * sizeof(float) +
                dataset.entries().size() * sizeof(Entry) +
                dataset.row_ptr().size() * sizeof(uint32_t) +
                dataset.labels().size() * sizeof(float));
  const uint64_t magic = kMagicV2;
  const uint32_t rows = dataset.num_rows();
  const uint32_t features = dataset.num_features();
  const uint8_t layout =
      (dataset.layout() == Dataset::Layout::kDense ? 0 : 1) |
      (opts.page_align ? kAlignedLayoutFlag : 0);
  AppendRaw(&image, &magic, sizeof(magic));
  AppendRaw(&image, &rows, sizeof(rows));
  AppendRaw(&image, &features, sizeof(features));
  AppendRaw(&image, &layout, sizeof(layout));
  const bool aligned = opts.page_align;
  AppendSection(&image, dataset.labels(), aligned);
  if (dataset.layout() == Dataset::Layout::kDense) {
    // dense_data() rather than dense_values(): writing back a dataset that
    // is itself mmap-backed must serialize the mapped floats, not the
    // (empty) heap vector.
    AppendSectionBytes(&image, dataset.dense_data(),
                       dense_count * sizeof(float), aligned);
  } else {
    AppendSection(&image, dataset.row_ptr(), aligned);
    AppendSection(&image, dataset.entries(), aligned);
  }
  // Optional trailing query-group section: only grouped datasets write it,
  // so ungrouped cache files stay byte-identical to the pre-group format
  // and old files load unchanged.
  if (dataset.has_groups()) {
    AppendSection(&image, dataset.group_ptr(), aligned);
  }
  const uint64_t checksum = HashBytes(image.data(), image.size());
  AppendRaw(&image, &checksum, sizeof(checksum));
  return WriteStringToFile(path, image, error);
}

namespace {

// Outcome of the mmap read attempt: success, soft fallback to the heap
// reader (file fine but not mappable as requested), or hard corruption.
enum class MapResult { kMapped, kFallback, kError };

MapResult ReadDatasetCacheMapped(const std::string& path, Dataset* out,
                                 std::string* error, CacheReadInfo* info) {
  std::string map_error;
  std::shared_ptr<MappedFile> file = MappedFile::Open(path, &map_error);
  if (file == nullptr) {
    // Distinguish "cannot open" (missing file: hard error, matches the
    // heap path) from "platform has no mmap" (fallback).
    info->note = map_error;
    return MapResult::kFallback;
  }
  const char* data = reinterpret_cast<const char*>(file->data());
  const size_t size = file->size();
  uint64_t magic = 0;
  uint32_t rows = 0;
  uint32_t features = 0;
  uint8_t layout = 0;
  if (!ReadHeader(data, size, path, &magic, &rows, &features, &layout,
                  error)) {
    return MapResult::kError;
  }
  uint64_t stored = 0;
  std::memcpy(&stored, data + size - kFooterBytes, 8);
  if (HashMappedStreaming(*file, size - kFooterBytes) != stored) {
    *error = "checksum mismatch in " + path +
             " (corrupt cache; delete it and re-generate cache)";
    return MapResult::kError;
  }
  const uint8_t base_layout = layout & ~kAlignedLayoutFlag;
  const bool aligned = (layout & kAlignedLayoutFlag) != 0;
  if (base_layout != 0) {
    info->note = "CSR cache cannot be mapped in place; using heap";
    return MapResult::kFallback;
  }
  if (!aligned) {
    info->note =
        "cache written without page alignment; re-generate it to enable "
        "mmap (using heap)";
    return MapResult::kFallback;
  }
  // Sections: labels (copied), values (viewed in place), optional groups.
  SectionReader reader(data, size, kHeaderBytes, /*aligned=*/true);
  std::vector<float> labels;
  if (!reader.ReadSection(&labels, rows)) {
    *error = "bad labels in " + path;
    return MapResult::kError;
  }
  const char* values = nullptr;
  if (!reader.ViewSection(
          &values, static_cast<uint64_t>(rows) * features * sizeof(float))) {
    *error = "bad values in " + path;
    return MapResult::kError;
  }
  std::vector<uint32_t> group_ptr;
  if (!reader.AtEnd()) {
    if (!reader.ReadSizedSection(&group_ptr) ||
        !ValidateGroupPtr(group_ptr, rows)) {
      *error = "bad group data in " + path;
      return MapResult::kError;
    }
    if (!reader.AtEnd()) {
      *error = "trailing garbage in " + path;
      return MapResult::kError;
    }
  }
  info->mapped = true;
  info->mapped_bytes = static_cast<size_t>(rows) * features * sizeof(float);
  *out = Dataset::FromDenseMapped(rows, features, std::move(file),
                                  reinterpret_cast<const float*>(values),
                                  std::move(labels));
  if (!group_ptr.empty()) out->SetGroupPtr(std::move(group_ptr));
  return MapResult::kMapped;
}

}  // namespace

bool ReadDatasetCache(const std::string& path, Dataset* out,
                      std::string* error, const CacheReadOptions& opts,
                      CacheReadInfo* info) {
  CacheReadInfo local_info;
  if (info == nullptr) info = &local_info;
  *info = CacheReadInfo();
  if (opts.use_mmap) {
    switch (ReadDatasetCacheMapped(path, out, error, info)) {
      case MapResult::kMapped: return true;
      case MapResult::kError: return false;
      case MapResult::kFallback: break;  // heap path below
    }
  }
  std::string blob;
  if (!ReadFileToString(path, &blob, error)) return false;
  uint64_t magic = 0;
  uint32_t rows = 0;
  uint32_t features = 0;
  uint8_t layout = 0;
  if (!ReadHeader(blob.data(), blob.size(), path, &magic, &rows, &features,
                  &layout, error)) {
    return false;
  }
  uint64_t stored = 0;
  std::memcpy(&stored, blob.data() + blob.size() - kFooterBytes, 8);
  if (HashBytes(blob.data(), blob.size() - kFooterBytes) != stored) {
    *error = "checksum mismatch in " + path +
             " (corrupt cache; delete it and re-generate cache)";
    return false;
  }
  // Element counts are fully determined by the header; any disagreement
  // (including a short final section or bytes left over before the
  // checksum) is corruption.
  return ParseDatasetSections(blob.data(), blob.size(), path, rows, features,
                              layout & ~kAlignedLayoutFlag,
                              (layout & kAlignedLayoutFlag) != 0, out, error);
}

bool WriteBinnedCache(const std::string& path, const BinnedMatrix& matrix,
                      const std::vector<float>& labels, std::string* error) {
  HARP_CHECK_EQ(labels.size(), static_cast<size_t>(matrix.num_rows()));
  const uint64_t bins_bytes =
      static_cast<uint64_t>(matrix.num_rows()) * matrix.num_features();
  const QuantileCuts& cuts = matrix.cuts();
  std::string image;
  image.reserve(static_cast<size_t>(bins_bytes) + 2 * kCacheAlign +
                labels.size() * sizeof(float) +
                cuts.cuts().size() * sizeof(float) +
                cuts.cut_ptr().size() * sizeof(uint32_t) + 128);
  const uint64_t magic = kMagicBinned;
  const uint32_t rows = matrix.num_rows();
  const uint32_t features = matrix.num_features();
  const int32_t max_bins = cuts.max_bins();
  const uint8_t flags = matrix.has_groups() ? kBinnedHasGroups : 0;
  uint64_t bins_offset = 0;  // patched below, once the pad is known
  AppendRaw(&image, &magic, sizeof(magic));
  AppendRaw(&image, &rows, sizeof(rows));
  AppendRaw(&image, &features, sizeof(features));
  AppendRaw(&image, &max_bins, sizeof(max_bins));
  AppendRaw(&image, &flags, sizeof(flags));
  const size_t bins_offset_pos = image.size();
  AppendRaw(&image, &bins_offset, sizeof(bins_offset));
  AppendSection(&image, labels);
  AppendSection(&image, cuts.cut_ptr());
  AppendSection(&image, cuts.cuts());
  if (matrix.has_groups()) AppendSection(&image, matrix.group_ptr());
  // Pad section sized so the bins *payload* (after the pad's and the bins
  // section's u64 counts) starts on a kCacheAlign boundary.
  const size_t pad =
      (kCacheAlign - (image.size() + 16) % kCacheAlign) % kCacheAlign;
  const uint64_t pad_bytes = pad;
  AppendRaw(&image, &pad_bytes, sizeof(pad_bytes));
  image.append(pad, '\0');
  AppendRaw(&image, &bins_bytes, sizeof(bins_bytes));
  bins_offset = image.size();
  HARP_CHECK_EQ(bins_offset % kCacheAlign, 0u);
  std::memcpy(&image[bins_offset_pos], &bins_offset, sizeof(bins_offset));
  if (bins_bytes > 0) {
    AppendRaw(&image, matrix.BinData(), static_cast<size_t>(bins_bytes));
  }
  const uint64_t checksum = HashBytes(image.data(), image.size());
  AppendRaw(&image, &checksum, sizeof(checksum));
  return WriteStringToFile(path, image, error);
}

namespace {

// Everything of a binned image except the bins themselves, plus a view of
// the bin payload inside the source buffer.
struct BinnedParse {
  uint32_t rows = 0;
  uint32_t features = 0;
  int32_t max_bins = 0;
  uint64_t bins_offset = 0;
  std::vector<float> labels;
  std::vector<uint32_t> cut_ptr;
  std::vector<float> cuts;
  std::vector<uint32_t> group_ptr;
  const char* bins = nullptr;
};

// Header + sections + structural validation (checksum is the caller's job
// because heap and mmap verify it differently).
bool ParseBinnedImage(const char* data, size_t size, const std::string& path,
                      BinnedParse* p, std::string* error) {
  if (size < kBinnedHeaderBytes + kFooterBytes) {
    *error = "truncated cache file " + path;
    return false;
  }
  uint64_t magic = 0;
  uint8_t flags = 0;
  std::memcpy(&magic, data, 8);
  std::memcpy(&p->rows, data + 8, 4);
  std::memcpy(&p->features, data + 12, 4);
  std::memcpy(&p->max_bins, data + 16, 4);
  std::memcpy(&flags, data + 20, 1);
  std::memcpy(&p->bins_offset, data + 21, 8);
  if (magic != kMagicBinned) {
    *error = "bad header in " + path + " (not a binned cache)";
    return false;
  }
  if (p->max_bins < 2 || p->max_bins > 256 ||
      (flags & ~kBinnedHasGroups) != 0) {
    *error = "bad header in " + path;
    return false;
  }
  SectionReader reader(data, size, kBinnedHeaderBytes, /*aligned=*/false);
  if (!reader.ReadSection(&p->labels, p->rows)) {
    *error = "bad labels in " + path;
    return false;
  }
  if (!reader.ReadSection(&p->cut_ptr,
                          static_cast<uint64_t>(p->features) + 1) ||
      !QuantileCuts::ValidCutPtr(p->cut_ptr, p->max_bins)) {
    *error = "bad cut_ptr in " + path;
    return false;
  }
  if (!reader.ReadSection(&p->cuts, p->cut_ptr.back()) ||
      !QuantileCuts::ValidCutValues(p->cuts, p->cut_ptr)) {
    *error = "bad cuts in " + path;
    return false;
  }
  if ((flags & kBinnedHasGroups) != 0) {
    if (!reader.ReadSizedSection(&p->group_ptr) ||
        !ValidateGroupPtr(p->group_ptr, p->rows)) {
      *error = "bad group data in " + path;
      return false;
    }
  }
  if (!reader.SkipSizedSection()) {
    *error = "bad padding in " + path;
    return false;
  }
  const uint64_t bins_bytes =
      static_cast<uint64_t>(p->rows) * p->features;
  const size_t payload_pos = reader.pos() + 8;
  if (!reader.ViewSection(&p->bins, bins_bytes)) {
    *error = "bad bins in " + path;
    return false;
  }
  if (!reader.AtEnd()) {
    *error = "trailing garbage in " + path;
    return false;
  }
  if (p->bins_offset != payload_pos || p->bins_offset % kCacheAlign != 0) {
    *error = "misaligned bins in " + path;
    return false;
  }
  return true;
}

// Every bin id indexes a histogram later; an id >= NumBins(feature) in a
// corrupt or crafted file would become an out-of-bounds write deep inside
// the training kernels, so reject it at load time. `file` non-null makes
// the scan windowed with page retirement (the mmap path).
bool ValidateBinIds(const BinnedParse& p, const MappedFile* file,
                    const std::string& path, std::string* error) {
  std::vector<uint16_t> limit(p.features);
  for (uint32_t f = 0; f < p.features; ++f) {
    limit[f] = static_cast<uint16_t>(p.cut_ptr[f + 1] - p.cut_ptr[f] + 1);
  }
  const size_t row_bytes = p.features;
  const size_t window_rows =
      row_bytes == 0 ? 1
                     : std::max<size_t>(1, kStreamWindowBytes / row_bytes);
  const uint8_t* bins = reinterpret_cast<const uint8_t*>(p.bins);
  for (size_t r0 = 0; r0 < p.rows; r0 += window_rows) {
    const size_t r1 = std::min<size_t>(p.rows, r0 + window_rows);
    for (size_t r = r0; r < r1; ++r) {
      const uint8_t* row = bins + r * row_bytes;
      for (uint32_t f = 0; f < p.features; ++f) {
        if (row[f] >= limit[f]) {
          *error = "bin id out of range in " + path +
                   " (corrupt cache; delete it and re-generate cache)";
          return false;
        }
      }
    }
    if (file != nullptr) {
      file->Advise(p.bins_offset + r0 * row_bytes, (r1 - r0) * row_bytes,
                   MemAdvice::kDontNeed);
    }
  }
  return true;
}

void AssembleBinned(BinnedParse* p, BinMatrixStorage storage,
                    BinnedMatrix* matrix, std::vector<float>* labels) {
  QuantileCuts cuts = QuantileCuts::FromRaw(
      std::move(p->cuts), std::move(p->cut_ptr), p->max_bins);
  *matrix = BinnedMatrix::FromParts(p->rows, p->features, std::move(cuts),
                                    std::move(storage),
                                    std::move(p->group_ptr));
  *labels = std::move(p->labels);
}

}  // namespace

bool ReadBinnedCache(const std::string& path, BinnedMatrix* matrix,
                     std::vector<float>* labels, std::string* error,
                     const CacheReadOptions& opts, CacheReadInfo* info) {
  CacheReadInfo local_info;
  if (info == nullptr) info = &local_info;
  *info = CacheReadInfo();
  if (opts.use_mmap) {
    std::string map_error;
    std::shared_ptr<MappedFile> file = MappedFile::Open(path, &map_error);
    if (file != nullptr) {
      const char* data = reinterpret_cast<const char*>(file->data());
      const size_t size = file->size();
      if (size < kBinnedHeaderBytes + kFooterBytes) {
        *error = "truncated cache file " + path;
        return false;
      }
      uint64_t stored = 0;
      std::memcpy(&stored, data + size - kFooterBytes, 8);
      if (HashMappedStreaming(*file, size - kFooterBytes) != stored) {
        *error = "checksum mismatch in " + path +
                 " (corrupt cache; delete it and re-generate cache)";
        return false;
      }
      BinnedParse parse;
      if (!ParseBinnedImage(data, size, path, &parse, error)) return false;
      if (!ValidateBinIds(parse, file.get(), path, error)) return false;
      const uint64_t bins_bytes =
          static_cast<uint64_t>(parse.rows) * parse.features;
      info->mapped = true;
      info->mapped_bytes = static_cast<size_t>(bins_bytes);
      BinMatrixStorage storage = BinMatrixStorage::Mapped(
          std::move(file), static_cast<size_t>(parse.bins_offset),
          static_cast<size_t>(bins_bytes));
      AssembleBinned(&parse, std::move(storage), matrix, labels);
      return true;
    }
    // Soft fallback (no mmap on this platform / cannot open read-only for
    // mapping): the heap path reports its own errors.
    info->note = map_error;
  }
  std::string blob;
  if (!ReadFileToString(path, &blob, error)) return false;
  if (blob.size() < kBinnedHeaderBytes + kFooterBytes) {
    *error = "truncated cache file " + path;
    return false;
  }
  uint64_t stored = 0;
  std::memcpy(&stored, blob.data() + blob.size() - kFooterBytes, 8);
  if (HashBytes(blob.data(), blob.size() - kFooterBytes) != stored) {
    *error = "checksum mismatch in " + path +
             " (corrupt cache; delete it and re-generate cache)";
    return false;
  }
  BinnedParse parse;
  if (!ParseBinnedImage(blob.data(), blob.size(), path, &parse, error)) {
    return false;
  }
  if (!ValidateBinIds(parse, nullptr, path, error)) return false;
  const size_t bins_bytes =
      static_cast<size_t>(parse.rows) * parse.features;
  std::vector<uint8_t> bins(bins_bytes);
  if (bins_bytes > 0) std::memcpy(bins.data(), parse.bins, bins_bytes);
  AssembleBinned(&parse, BinMatrixStorage::Heap(std::move(bins)), matrix,
                 labels);
  return true;
}

bool IsBinnedCacheFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  uint64_t magic = 0;
  const bool ok = std::fread(&magic, sizeof(magic), 1, f) == 1;
  std::fclose(f);
  return ok && magic == kMagicBinned;
}

}  // namespace harp
