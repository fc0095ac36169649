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
//                     the local build and before subtraction and find.
//
// Every rank then sees identical global histograms and sums and makes the
// identical split decisions, with no decision broadcast. Implementations
// must return bitwise-identical results on every rank. Single-process
// training passes no reducer. The transport-backed implementation lives in
// distributed/.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/gh.h"
#include "core/quantize.h"

namespace harp {

class HistReducer {
 public:
  virtual ~HistReducer() = default;

  // Maxima by max, sums and row count by sum.
  virtual void ReduceQuantStats(QuantStats* stats) = 0;
  // Element-wise global sums, in place.
  virtual void ReduceSums(GHPair* sums, size_t count) = 0;
  virtual void ReduceCounts(int64_t* counts, size_t count) = 0;
  // In-place global sum of `num_hists` node histograms of `cells` slots.
  // `quant` is non-null when every cell is an exact multiple of the
  // round's power-of-two scales, so the wire may carry int64 cells.
  virtual void ReduceHists(GHPair* const* hists, size_t num_hists,
                           size_t cells, const QuantScales* quant) = 0;
};

}  // namespace harp
