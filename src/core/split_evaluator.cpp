#include "core/split_evaluator.h"

#include <algorithm>
#include <bit>
#include <vector>

namespace harp {

namespace {
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }
}  // namespace

SplitInfo SplitEvaluator::FindBestSplit(const BinnedMatrix& matrix,
                                        const GHPair* hist,
                                        const GHPair& node_sum,
                                        uint32_t feature_begin,
                                        uint32_t feature_end,
                                        const uint8_t* column_mask) const {
  // Candidate prefixes (lg, lh) and bins; thread_local: finds run in parallel.
  thread_local std::vector<double> lg, lh;
  thread_local std::vector<uint32_t> bin;
  const double parent_score = ChildScore(node_sum);
  // Starting at 0 is the IsValid rule; a strict > in scan order (feature,
  // bin, missing-right first) is the BetterThan tie-break.
  double best_gain = 0.0;
  SplitInfo best;
  for (uint32_t f = feature_begin; f < feature_end; ++f) {
    if (column_mask != nullptr && column_mask[f] == 0) continue;
    const uint32_t offset = matrix.BinOffset(f);
    const uint32_t num_bins = matrix.NumBins(f);  // includes missing bin 0
    if (num_bins < 3) continue;  // need at least two value bins to split
    // Left/right default decisions are identical when the node has no
    // missing rows for this feature; hoisting the check skips the
    // duplicate default_left branch for the whole feature.
    const bool has_missing = hist[offset].g != 0.0 || hist[offset].h != 0.0;

    // Pass 1: prefixes, compacted. An empty cell (+-0.0 halves) never
    // moves the prefix: it starts at +0.0, so is never -0.0, the only
    // value x + +-0.0 changes. So the add chain (the latency bound) runs
    // over bin 1 and the occupied bins, listed first in bin[1, m); `prev`
    // then has the last kept prefix's bits. Slots are claimed branch-free.
    lg.resize(std::max<size_t>(lg.size(), num_bins));
    lh.resize(lg.size());
    bin.resize(lg.size());
    size_t m = 1;
    for (uint32_t b = 2; b + 1 < num_bins; ++b) {
      const GHPair cell = hist[offset + b];
      bin[m] = b;
      m += ((Bits(cell.g) | Bits(cell.h)) << 1) != 0;
    }
    GHPair running;
    running += hist[offset + 1];
    lg[0] = running.g;
    lh[0] = running.h;
    bin[0] = 1;
    size_t n = 1;
    for (size_t j = 1; j < m; ++j) {
      const uint32_t b = bin[j];  // n <= j: the write below trails the read
      const GHPair prev = running;
      running += hist[offset + b];
      lg[n] = running.g;
      lh[n] = running.h;
      bin[n] = b;
      n += Bits(running.g) != Bits(prev.g) || Bits(running.h) != Bits(prev.h);
    }
    // The present-values total, accumulated in the same left-to-right
    // order. node_sum - missing would be wrong: rows missing in OTHER
    // features still count here.
    const GHPair present_total = running + hist[offset + num_bins - 1];

    // Pass 2: gains of the compacted candidates.
    size_t win = n;
    bool win_left = false;
    const auto consider = [&](const GHPair& left, const GHPair& right,
                              size_t i, bool default_left) {
      if (!SatisfiesChildWeight(left) || !SatisfiesChildWeight(right)) return;
      const double gain = SplitGain(parent_score, left, right);
      if (gain > best_gain) {
        best_gain = gain;
        win = i;
        win_left = default_left;
      }
    };
    for (size_t i = 0; i < n; ++i) {
      const GHPair left_present{lg[i], lh[i]};
      consider(left_present, node_sum - left_present, i, false);
      if (has_missing) {
        const GHPair right = present_total - left_present;
        consider(node_sum - right, right, i, true);
      }
    }
    if (win < n) {  // this feature holds the winner so far
      const GHPair prefix{lg[win], lh[win]};
      const GHPair right =
          win_left ? present_total - prefix : node_sum - prefix;
      best = {best_gain, f, bin[win], win_left,
              win_left ? node_sum - right : prefix, right};
    }
  }
  return best;
}

}  // namespace harp
