#include "data/binned_matrix.h"

#include <utility>

#include "common/logging.h"
#include "parallel/thread_pool.h"

namespace harp {
namespace {

// bin_offsets are derived from the cuts in both construction paths;
// keeping one derivation guarantees Build and FromParts agree.
void DeriveOffsets(const QuantileCuts& cuts, uint32_t num_features,
                   std::vector<uint32_t>* bin_offsets) {
  bin_offsets->assign(num_features + 1, 0);
  for (uint32_t f = 0; f < num_features; ++f) {
    (*bin_offsets)[f + 1] = (*bin_offsets)[f] + cuts.NumBins(f);
  }
}

}  // namespace

BinnedMatrix BinnedMatrix::Build(const Dataset& dataset, QuantileCuts cuts,
                                 ThreadPool* pool) {
  HARP_CHECK_EQ(dataset.num_features(), cuts.num_features());
  BinnedMatrix matrix;
  matrix.num_rows_ = dataset.num_rows();
  matrix.num_features_ = dataset.num_features();
  matrix.group_ptr_ = dataset.group_ptr();
  matrix.cuts_ = std::move(cuts);
  DeriveOffsets(matrix.cuts_, matrix.num_features_, &matrix.bin_offsets_);

  // Bin 0 (missing) is the fill value; present entries overwrite it.
  matrix.storage_ = BinMatrixStorage::Heap(std::vector<uint8_t>(
      static_cast<size_t>(matrix.num_rows_) * matrix.num_features_, 0));

  // BinFor's clamp keeps every bin <= NumCuts(f) < max_bins <= 256, so it
  // fits a byte. The cut arrays are read through locals: the byte stores
  // below may alias any object, which would otherwise reload them per cell.
  uint8_t* bins = matrix.storage_.MutableHeap();
  const float* cut_values = matrix.cuts_.cuts().data();
  const uint32_t* cut_ptr = matrix.cuts_.cut_ptr().data();
  const size_t num_features = matrix.num_features_;
  auto bin_rows = [&](int64_t begin, int64_t end, int) {
    for (int64_t r = begin; r < end; ++r) {
      uint8_t* row_bins = bins + static_cast<size_t>(r) * num_features;
      dataset.ForEachInRow(static_cast<uint32_t>(r), [&](uint32_t f, float v) {
        row_bins[f] = static_cast<uint8_t>(QuantileCuts::BinFor(
            cut_values + cut_ptr[f], cut_ptr[f + 1] - cut_ptr[f], v));
      });
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(matrix.num_rows_, bin_rows);
  } else {
    bin_rows(0, matrix.num_rows_, 0);
  }
  return matrix;
}

BinnedMatrix BinnedMatrix::FromParts(uint32_t num_rows, uint32_t num_features,
                                     QuantileCuts cuts,
                                     BinMatrixStorage storage,
                                     std::vector<uint32_t> group_ptr) {
  HARP_CHECK_EQ(num_features, cuts.num_features());
  HARP_CHECK_EQ(storage.size(),
                static_cast<size_t>(num_rows) * num_features);
  BinnedMatrix matrix;
  matrix.num_rows_ = num_rows;
  matrix.num_features_ = num_features;
  matrix.cuts_ = std::move(cuts);
  matrix.storage_ = std::move(storage);
  matrix.group_ptr_ = std::move(group_ptr);
  DeriveOffsets(matrix.cuts_, matrix.num_features_, &matrix.bin_offsets_);
  return matrix;
}

void BinnedMatrix::EnsureColumnMajor(ThreadPool* pool) {
  if (HasColumnMajor()) return;
  const uint8_t* bins = storage_.data();
  col_bins_.resize(storage_.size());
  auto transpose = [&](int64_t begin, int64_t end, int) {
    for (int64_t f = begin; f < end; ++f) {
      uint8_t* col = col_bins_.data() + static_cast<size_t>(f) * num_rows_;
      for (uint32_t r = 0; r < num_rows_; ++r) {
        col[r] = bins[static_cast<size_t>(r) * num_features_ +
                      static_cast<size_t>(f)];
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelForDynamic(num_features_, 4, transpose);
  } else {
    transpose(0, num_features_, 0);
  }
}

}  // namespace harp
