// Cross-shard reduction seam of the grow loop.
//
// HarpTreeBuilder grows one tree from the rows it holds. When the rows of
// one training set are sharded over several workers, each worker runs the
// SAME grow loop on its shard and a HistReducer turns every shard-local
// statistic the split decisions depend on into its global value, at the
// loop's existing phase boundaries:
//
//   ReduceQuantStats  once per tree, before the quantization scales are
//                     derived (every rank then derives identical scales);
//   ReduceSums        the root's GH sum;
//   ReduceCounts      the root's row count, and each batch's child row
//                     counts before the build is planned (so every rank
//                     picks the same "small" sibling for subtraction);
//   ReduceHists       the directly built histograms of each batch, after
//                     the local build and before subtraction and find;
//   ReduceSplits      each node's best split, after the find.
//
// Split finding is owner-computes: each shard owns a contiguous range of
// features (OwnedFeatures). ReduceHists makes only the owned features'
// cells global, the shard subtracts and scans only those, and ReduceSplits
// merges every shard's best into the global best. Implementations must
// return bitwise-identical sums and splits on every rank, so every rank
// makes the identical split decisions. Single-process training passes no
// reducer. The transport-backed implementation lives in distributed/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/gh.h"
#include "core/quantize.h"
#include "core/split.h"

namespace harp {

class HistReducer {
 public:
  virtual ~HistReducer() = default;

  // The features [first, second) whose histogram cells and splits this
  // shard computes; fixed for the reducer's lifetime. May be empty.
  virtual std::pair<uint32_t, uint32_t> OwnedFeatures() const = 0;

  // Maxima by max, sums and row count by sum.
  virtual void ReduceQuantStats(QuantStats* stats) = 0;
  // Element-wise global sums, in place.
  virtual void ReduceSums(GHPair* sums, size_t count) = 0;
  virtual void ReduceCounts(int64_t* counts, size_t count) = 0;
  // In place over `num_hists` node histograms of `cells` slots: the cells
  // of the owned features become global sums; the others are unspecified.
  // `quant` is non-null when every cell is an exact multiple of the
  // round's power-of-two scales, so the wire may carry int64 cells.
  virtual void ReduceHists(GHPair* const* hists, size_t num_hists,
                           size_t cells, const QuantScales* quant) = 0;
  // Each of `count` nodes' best split over the owned features becomes the
  // best over all features (SplitInfo::BetterThan), in place.
  virtual void ReduceSplits(SplitInfo* splits, size_t count) = 0;
};

}  // namespace harp
