// Per-feature quantile cut computation ("histogram initialization").
//
// The paper reuses XGBoost's histogram initialization; this is our
// equivalent. Each feature's present values are reduced to at most
// (max_bins - 1) cut points placed at evenly spaced quantiles of the
// distinct values, so features with few distinct values get exactly one bin
// per value. The distinct values are exact, not sketched: the result depends
// only on the data, never on the thread count. Bin 0 is reserved for missing
// entries; value bins are 1..num_cuts. A value x falls into the first bin
// whose cut is >= x (cuts are upper bounds, inclusive).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace harp {

class ThreadPool;

class QuantileCuts {
 public:
  // max_bins counts the missing bin, i.e. at most (max_bins - 1) cuts per
  // feature; max_bins <= 256 so bin ids fit in one byte (Section IV-E).
  // -0.0 is read as +0.0, so a zero cut is always +0.0.
  static QuantileCuts Compute(const Dataset& dataset, int max_bins,
                              ThreadPool* pool = nullptr);

  uint32_t num_features() const {
    return static_cast<uint32_t>(cut_ptr_.size()) - 1;
  }
  int max_bins() const { return max_bins_; }

  // Number of cuts for `feature` (its value bins are 1..NumCuts).
  uint32_t NumCuts(uint32_t feature) const {
    return cut_ptr_[feature + 1] - cut_ptr_[feature];
  }

  // Total bins for `feature`, including the missing bin 0.
  uint32_t NumBins(uint32_t feature) const { return NumCuts(feature) + 1; }

  // Bin id for a raw value: 0 for missing, otherwise in [1, NumCuts].
  // Values above the last cut clamp into the last bin.
  uint32_t BinFor(uint32_t feature, float value) const {
    return BinFor(cuts_.data() + cut_ptr_[feature], NumCuts(feature), value);
  }

  // The same search over one feature's ascending `cuts[0, num_cuts)`, for
  // loops that hoist the feature's cut pointer and count. A branch-free
  // lower bound: the step count depends only on num_cuts, and each step
  // narrows the range with a select instead of a jump.
  static uint32_t BinFor(const float* cuts, uint32_t num_cuts, float value) {
    if (IsMissing(value) || num_cuts == 0) return 0;
    const float* base = cuts;
    for (uint32_t n = num_cuts; n > 1;) {
      const uint32_t half = n / 2;
      base = base[half] < value ? base + half : base;
      n -= half;
    }
    const uint32_t lower_bound =
        static_cast<uint32_t>(base - cuts) + (*base < value ? 1u : 0u);
    return std::min(lower_bound, num_cuts - 1) + 1;
  }

  // Upper-bound cut value of `bin` (1-based) for `feature`: every row
  // routed left by "bin <= split_bin" satisfies value <= CutFor(split_bin).
  float CutFor(uint32_t feature, uint32_t bin) const;

  const std::vector<float>& cuts() const { return cuts_; }
  const std::vector<uint32_t>& cut_ptr() const { return cut_ptr_; }

  // For model IO / binary cache.
  static QuantileCuts FromRaw(std::vector<float> cuts,
                              std::vector<uint32_t> cut_ptr, int max_bins);

  // Whether a cut_ptr read from outside the process is safe to index
  // with: non-empty, starting at 0, never decreasing, and giving no
  // feature more than max_bins - 1 cuts. Both readers check it before
  // FromRaw.
  static bool ValidCutPtr(const std::vector<uint32_t>& cut_ptr,
                          int max_bins);

  // Whether cut values read from outside the process bin like computed
  // ones: no NaN, and non-decreasing within each feature (computed cuts
  // may repeat a value). `cut_ptr` must pass ValidCutPtr and end at
  // cuts.size(). Both readers check it next to ValidCutPtr.
  static bool ValidCutValues(const std::vector<float>& cuts,
                             const std::vector<uint32_t>& cut_ptr);

 private:
  std::vector<float> cuts_;      // concatenated per-feature cut values
  std::vector<uint32_t> cut_ptr_;  // size num_features + 1
  int max_bins_ = 256;
};

}  // namespace harp
