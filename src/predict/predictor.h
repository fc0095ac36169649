// Block-wise batched traversal over a FlatForest.
//
// The same memory-boundedness argument the paper makes for BuildHist
// (Table I) applies to ensemble traversal: a naive row × tree walk is a
// chain of dependent loads with no reuse. The Predictor restructures the
// work along both axes:
//
//   * Trees are walked in groups whose node arrays fit in L2
//     (kGroupNodeBudget); a group's nodes are loaded once and reused for
//     every row before the next group starts, so the forest streams
//     through cache once per thread instead of once per row.
//   * Rows are processed in kRowBlock-sized blocks, and within a block
//     kInterleave rows step through the same tree in lockstep. The 8
//     independent walks hide the dependent-load latency a single walk
//     serializes on (the leaf self-loop in FlatForest makes every walk
//     take exactly tree_depth branch-free steps, so lanes never diverge
//     in trip count).
//
// Margins accumulate in tree order per row — group g's trees are added to
// every row before group g+1's — so results are bit-identical to the
// naive base + t0 + t1 + ... chain of RegTree::PredictBinned/PredictRaw,
// which tests keep as the reference oracle.
//
// A batch of at most kRowBlock rows is a single block and runs on the
// calling thread even when a pool is given.
//
// Raw-Dataset and BinnedMatrix inputs share the same flat layout: the
// binned kernel compares 1-byte bin ids against split_bin, the raw kernel
// compares float values against split_value (missing routes to the
// default side in both).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace harp {

class BinnedMatrix;
class Dataset;
class FlatForest;
class ThreadPool;

class Predictor {
 public:
  // Keeps a pointer to `forest`; the forest must outlive the Predictor.
  // The full-ensemble tree-group plan is computed once here, so per-call
  // setup on the serving paths is allocation-free.
  explicit Predictor(const FlatForest& forest);

  // Margins (base margin + tree sum) for every row of a matrix binned
  // with the model's own cuts, using the first `num_trees` trees (0 =
  // all). Row blocks fan out over `pool` when given.
  std::vector<double> PredictMargins(const BinnedMatrix& matrix,
                                     ThreadPool* pool = nullptr,
                                     size_t num_trees = 0) const;

  // Same on raw feature values (missing = NaN follows default sides).
  std::vector<double> PredictMargins(const Dataset& dataset,
                                     ThreadPool* pool = nullptr,
                                     size_t num_trees = 0) const;

  // margins[r] += sum of trees [tree_begin, tree_end) for every row; no
  // base margin is added. This is the incremental form the boosting
  // driver uses to fold each new tree into held-out eval margins.
  void AccumulateMargins(const BinnedMatrix& matrix, double* margins,
                         size_t tree_begin, size_t tree_end,
                         ThreadPool* pool = nullptr) const;
  void AccumulateMargins(const Dataset& dataset, double* margins,
                         size_t tree_begin, size_t tree_end,
                         ThreadPool* pool = nullptr) const;

  // Sub-block entry point for the serving layer: margins[i] += trees
  // [tree_begin, tree_end) for `num_rows` dense float rows starting at
  // `values` with row stride `stride` floats (NaN = missing). Serial —
  // batch-level parallelism comes from the caller running many batches
  // concurrently. Bit-identical to the Dataset overloads on the same rows
  // (same kernel, same per-row tree order).
  void AccumulateMarginsDense(const float* values, uint32_t num_rows,
                              uint32_t stride, double* margins,
                              size_t tree_begin, size_t tree_end) const;

  const FlatForest& forest() const { return *forest_; }

  static constexpr uint32_t kRowBlock = 256;  // rows per cache block
  static constexpr int kInterleave = 8;       // rows in flight per tree
  static constexpr int32_t kGroupNodeBudget = 2048;  // nodes per tree group

 private:
  // Adds trees [t0, t1) of one group to rows [r0, r1); `margins` is the
  // full output array indexed by absolute row id.
  void AccumulateBlockBinned(const BinnedMatrix& matrix, uint32_t r0,
                             uint32_t r1, size_t t0, size_t t1,
                             double* margins) const;
  void AccumulateBlockRaw(const Dataset& dataset, uint32_t r0, uint32_t r1,
                          size_t t0, size_t t1, double* margins) const;

  // Interleaved traversal of trees [t0, t1) over `rows` dense float rows
  // at `base` (row stride `stride`); margins indexed 0..rows-1. The one
  // raw-input kernel every raw path funnels into.
  void TraverseDense(const float* base, size_t stride, uint32_t rows,
                     size_t t0, size_t t1, double* margins) const;

  // Group boundaries covering [tree_begin, tree_end): consecutive trees
  // packed until a group exceeds kGroupNodeBudget nodes.
  std::vector<size_t> TreeGroups(size_t tree_begin, size_t tree_end) const;

  // The cached full_groups_ when [tree_begin, tree_end) is the whole
  // ensemble; otherwise TreeGroups(tree_begin, tree_end), built in *local.
  const std::vector<size_t>& Groups(size_t tree_begin, size_t tree_end,
                                    std::vector<size_t>* local) const;

  size_t ClampTreeCount(size_t num_trees) const;

  const FlatForest* forest_;
  std::vector<size_t> full_groups_;  // TreeGroups(0, num_trees())
};

}  // namespace harp
