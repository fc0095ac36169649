// Binned feature matrix (the "Input" structure of Fig. 5).
//
// Feature values are replaced by 1-byte bin ids in a preprocessing step,
// reducing the training-set footprint to 1/4 of float32 (Section IV-E).
// The primary layout is dense row-major — the layout block-wise scans
// iterate: for each row, for each feature in the current feature block.
// A column-major copy can be materialized on demand for the feature-wise
// baseline (LightGBM scans one feature column at a time).
//
// Bin id semantics (shared with QuantileCuts): 0 = missing, 1..NumCuts(f)
// = value bins. Per-feature bin *offsets* linearize <feature, bin> into a
// single histogram index, so features with uneven bin counts (the CV
// statistic of Table III) occupy proportional histogram space and produce
// genuine workload imbalance.
#pragma once

#include <cstdint>
#include <vector>

#include "data/bin_matrix_storage.h"
#include "data/dataset.h"
#include "data/quantile.h"

namespace harp {

class ThreadPool;

class BinnedMatrix {
 public:
  BinnedMatrix() = default;

  // Bins every entry of `dataset` using `cuts`. The cuts object is copied
  // into the matrix so prediction-time binning uses identical boundaries.
  static BinnedMatrix Build(const Dataset& dataset, QuantileCuts cuts,
                            ThreadPool* pool = nullptr);

  // Assembles a matrix from pre-binned storage (the binned-cache read
  // path): `storage` holds rows x features row-major bin ids — heap or a
  // view into an mmap'd cache file — already validated against `cuts`.
  static BinnedMatrix FromParts(uint32_t num_rows, uint32_t num_features,
                                QuantileCuts cuts, BinMatrixStorage storage,
                                std::vector<uint32_t> group_ptr);

  uint32_t num_rows() const { return num_rows_; }
  uint32_t num_features() const { return num_features_; }

  // Bin id of (row, feature); 0 means missing.
  uint8_t Bin(uint32_t row, uint32_t feature) const {
    return storage_.data()[static_cast<size_t>(row) * num_features_ + feature];
  }

  // Row-major raw pointer to `row`'s bins (num_features entries).
  const uint8_t* RowBins(uint32_t row) const {
    return storage_.data() + static_cast<size_t>(row) * num_features_;
  }

  // Base pointer of the row-major bin store (stride num_features); raw
  // view for the hist_kernels layer.
  const uint8_t* BinData() const { return storage_.data(); }

  // Number of bins of `feature`, including the missing bin 0.
  uint32_t NumBins(uint32_t feature) const { return cuts_.NumBins(feature); }

  // Histogram offset of `feature`: the linear histogram slot of
  // <feature, bin> is BinOffset(feature) + bin.
  uint32_t BinOffset(uint32_t feature) const { return bin_offsets_[feature]; }

  // Raw per-feature offset array (num_features + 1 entries) for the
  // hist_kernels layer.
  const uint32_t* BinOffsetsData() const { return bin_offsets_.data(); }

  // Total histogram slots across all features (sum of per-feature bins).
  uint32_t TotalBins() const { return bin_offsets_[num_features_]; }

  const QuantileCuts& cuts() const { return cuts_; }

  // Query-group boundaries carried over from the source Dataset (empty for
  // ungrouped data); the trainer hands them to list-wise objectives and
  // group-aware metrics.
  const std::vector<uint32_t>& group_ptr() const { return group_ptr_; }
  bool has_groups() const { return !group_ptr_.empty(); }

  // Column-major access for the feature-parallel baseline. Call
  // EnsureColumnMajor() once (not thread safe) before using ColBins().
  void EnsureColumnMajor(ThreadPool* pool = nullptr);
  bool HasColumnMajor() const { return !col_bins_.empty(); }
  const uint8_t* ColBins(uint32_t feature) const {
    return col_bins_.data() + static_cast<size_t>(feature) * num_rows_;
  }

  // True when the bin store lives in an mmap'd cache file.
  bool IsMapped() const { return storage_.mapped(); }

  // The backing storage (heap vector or file mapping).
  const BinMatrixStorage& storage() const { return storage_; }

  // Approximate resident heap bytes (bench reporting). Bytes backed by
  // the file mapping are excluded and reported by MappedBytes().
  size_t MemoryBytes() const {
    return storage_.HeapBytes() + col_bins_.size() +
           (bin_offsets_.size() + group_ptr_.size()) * sizeof(uint32_t);
  }
  size_t MappedBytes() const { return storage_.MappedBytes(); }

 private:
  uint32_t num_rows_ = 0;
  uint32_t num_features_ = 0;
  BinMatrixStorage storage_;          // row-major bins, heap | mmap
  std::vector<uint8_t> col_bins_;     // column-major copy (optional)
  std::vector<uint32_t> bin_offsets_;  // size num_features + 1
  std::vector<uint32_t> group_ptr_;    // query boundaries; empty = none
  QuantileCuts cuts_;
};

}  // namespace harp
