// Block-wise BuildHist implementations (Section IV-A).
//
// Both builders fill per-node histograms for a *batch* of nodes; they
// differ in how the <row, node, feature> iteration space is cut into tasks
// (every task covers a feature's full bin range):
//
//   DP (data parallelism): rows of a node block are chunked into row
//   blocks; each thread accumulates into a private replica of the node
//   block's histograms, then replicas are reduced. Few redundant reads,
//   but replica memory/zeroing/reduction grows with node_blk_size and the
//   write region spans the whole feature space unless feature blocks tile
//   the inner loop.
//
//   MP (model parallelism): tasks are <node_blk x feature_blk> cubes
//   writing disjoint histogram regions of the *shared* histograms — no
//   replicas, no reduction — at the cost of re-reading the node's rows
//   once per feature block (redundant reads of MemBuf or the gradient
//   array).
//
// Both honour Table IV's block parameters; standard designs fall out as
// special cases (feature_blk=1,node_blk=1 = classic feature-wise MP;
// feature_blk=0,node_blk=1,row blocks = XGB-Hist-style DP).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "core/gh.h"
#include "core/hist_kernels.h"
#include "core/histogram.h"
#include "core/params.h"
#include "core/quantize.h"
#include "core/row_partitioner.h"
#include "core/train_stats.h"
#include "data/binned_matrix.h"
#include "parallel/thread_pool.h"
#include "parallel/touched_regions.h"

namespace harp {

// Everything a builder needs for one tree. Non-owning.
struct BuildContext {
  const BinnedMatrix& matrix;
  const TrainParams& params;
  ThreadPool& pool;
  RowPartitioner& partitioner;
  HistogramPool& hists;
  // Non-null selects the quantized accumulation path: kernels gather the
  // packed pairs, accumulate int64 cells, and the builder dequantizes into
  // the pool's f64 histograms before any reader (find / subtract) sees
  // them. Null (the default) is the f64 accuracy-oracle path.
  const QuantRound* quant = nullptr;
  // Resolved kernel-table level for this tree (see core/simd.h).
  SimdLevel simd = SimdLevel::kScalar;
};

// (`Range` — contiguous half-open [first, second) — comes from
// hist_kernels.h, the layer the builders dispatch into.)

// Replica budget of the auto DP node block (node_blk_size = 0): a fixed
// constant, not a knob, so block counts do not depend on the machine.
inline constexpr size_t kDpReplicaBudgetBytes = size_t{1} << 20;

// Nodes per DP block for a batch of `batch` nodes: node_blk_size when set,
// else clamp(kDpReplicaBudgetBytes / (threads x TotalBins x cell bytes),
// 1, batch), where the cell is the replica's (16-byte GHPair or 8-byte
// quantized int64).
size_t DpNodeBlock(const BuildContext& ctx, size_t batch);

// Nodes per MP cube: node_blk_size when set, else 1.
inline size_t MpNodeBlock(const TrainParams& params) {
  return static_cast<size_t>(std::max(1, params.node_blk_size));
}

// Feature ranges of at most `feature_blk_size` features (0 = one block).
std::vector<Range> MakeFeatureBlocks(uint32_t num_features,
                                     int feature_blk_size);
// In-place variant reusing `out`'s capacity (steady-state zero-alloc
// staging in the builders).
void FillFeatureBlocks(uint32_t num_features, int feature_blk_size,
                       std::vector<Range>* out);

// Accumulates one row into `hist` over the features of `fb`. This is the
// REFERENCE scalar kernel: the builders run the specialized hist_kernels
// variants, which must stay bit-identical to iterating rows through this
// function (tests/test_hist_kernels.cpp). Only tests and bench_kernels
// call it.
inline void AccumulateRow(const uint8_t* row_bins, float g, float h,
                          const BinnedMatrix& matrix, GHPair* hist,
                          Range fb) {
  for (uint32_t f = fb.first; f < fb.second; ++f) {
    hist[matrix.BinOffset(f) + row_bins[f]].Add(g, h);
  }
}

// Data-parallel builder. Replica scratch persists across node blocks AND
// trees: storage only ever grows, regions a thread dirtied are tracked per
// thread per node block and cleared lazily at the start of the NEXT
// Build's accumulation region (each thread wipes the dirty bytes inside
// its own replica range, so no extra parallel region / barrier is spent on
// clearing), and untouched replicas are skipped in the reduction entirely.
class HistBuilderDP {
 public:
  // Counters for the replica lifecycle (tests and diagnostics).
  struct ReplicaStats {
    int64_t grow_events = 0;      // storage (re)allocations
    int64_t node_blocks = 0;      // node blocks processed
    int64_t regions_touched = 0;  // (thread, node) regions dirtied+cleared
    int64_t regions_total = 0;    // threads x block nodes, summed
    size_t max_block_nodes = 0;   // largest node block staged
  };

  // Builds histograms for `nodes` (already acquired in ctx.hists).
  // Returns the wall nanoseconds spent in the reduction step (reported
  // separately in the Fig. 4 breakdown).
  int64_t Build(const BuildContext& ctx, std::span<const int> nodes);

  // Fused-step form: collective — every region thread calls it with its
  // id; per-block serial glue (task staging, reduce prep, dirty-ledger
  // update) runs in barrier epilogues instead of between region launches.
  // Bit-identical to Build (same tasks, same kernels, same ascending-
  // thread-order reduction). Adds the reduce wall time (epilogue-to-
  // epilogue) to *reduce_ns.
  void BuildInRegion(const BuildContext& ctx, std::span<const int> nodes,
                     ThreadPool::FusedRegion& region, int thread_id,
                     int64_t* reduce_ns);

  const ReplicaStats& replica_stats() const { return replica_stats_; }
  // Currently retained replica storage, in GHPair slots.
  size_t replica_capacity() const { return replicas_.size(); }

 private:
  struct RowTask {
    uint32_t local_node;
    uint32_t begin;
    uint32_t end;
  };

  // Serial per-Build setup (kernel selection, feature blocks) and per-
  // block staging (row tasks, replica growth, touched reset); the phase
  // loops execute what these staged. Shared by both schedulers.
  void BeginBuild(const BuildContext& ctx);
  void StageBlock(const BuildContext& ctx, std::span<const int> nodes,
                  size_t block_begin, size_t block_size);
  void ClearThread(int thread_id);
  void RunRowTask(const BuildContext& ctx, int thread_id, size_t task_index);
  void PrepReduce(const BuildContext& ctx);
  void ReduceRange(int64_t begin, int64_t end);
  // Quantized-domain counterpart: sums contributors' int64 cells (order-
  // independent) and dequantizes straight into the pool histograms.
  void ReduceRangeQuant(int64_t begin, int64_t end);
  void UpdateLedger();

  AlignedVector<GHPair> replicas_;
  // Quantized-mode replica storage (int64 cells; same layout/ledger as
  // replicas_). A builder instance uses exactly one of the two arrays for
  // its whole lifetime — the dirty ledger cannot mix cell types (checked).
  AlignedVector<int64_t> qreplicas_;
  TouchedRegions touched_;
  // Dirtied-but-not-yet-cleared [begin, end) slot intervals of replicas_.
  // Flat offsets, so they survive layout (stride) changes across blocks.
  std::vector<std::pair<size_t, size_t>> dirty_;
  ReplicaStats replica_stats_;

  // Per-Build / per-block staging (grow-only member scratch; serial glue
  // writes it, phase loops read it).
  std::vector<Range> feature_blocks_;
  HistKernelMatrix km_;
  HistKernelFn kernel_ = nullptr;
  QuantKernelFn qkernel_ = nullptr;
  const QuantRound* quant_ = nullptr;
  SimdLevel simd_ = SimdLevel::kScalar;
  int quant_mode_ = -1;  // -1 unset, else 0/1: fixed per instance
  std::span<const int> block_;
  std::vector<RowTask> tasks_;
  std::vector<HistRowSource> sources_;
  std::vector<GHPair*> dst_;
  std::vector<std::vector<int>> contributors_;
  size_t total_bins_ = 0;
  // Slots actually holding histogram content per replica (block nodes x
  // total bins): the reduce domain. replica_stride_ is this rounded up to
  // a whole number of kHistAlignBytes lines so thread boundaries never
  // share a cache line; the padding is never written and stays zero.
  size_t content_slots_ = 0;
  size_t replica_stride_ = 0;
  int threads_ = 0;
  int64_t reduce_start_ns_ = 0;
};

// Model-parallel (block-wise) builder; writes shared histograms.
class HistBuilderMP {
 public:
  void Build(const BuildContext& ctx, std::span<const int> nodes);

  // Fused-step form of Build: collective, every region thread calls it
  // with its id. Cubes are staged in a leading barrier epilogue; each
  // phase (cubes, then the quantized dequantize pass) ends in a barrier.
  // Bit-identical to Build (same tasks, same kernels).
  void BuildInRegion(const BuildContext& ctx, std::span<const int> nodes,
                     ThreadPool::FusedRegion& region, int thread_id);

  int64_t grow_events() const { return grow_events_; }

 private:
  struct Task {
    uint32_t node_block;
    uint32_t feature_block;
  };

  // Stages the <node_blk x feature_blk> cube task list for `nodes` into
  // member scratch (serial; grow-only) and returns the task count.
  // Distinct tasks write disjoint histogram regions, so any thread may
  // RunTask any staged index in any order.
  size_t StageTasks(const BuildContext& ctx, std::span<const int> nodes);
  void RunTask(size_t task_index) const;
  // Quantized mode: converts `node`'s int64 accumulator into its pool f64
  // histogram (no-op otherwise); runs once all cubes have drained.
  void DequantizeNode(int node) const;

  // Cached geometry + per-call staging (grow-only member scratch).
  std::vector<Range> feature_blocks_;
  std::vector<std::span<const int>> node_blocks_;
  std::vector<Task> tasks_;
  std::vector<GHPair*> hist_of_;
  std::vector<HistRowSource> source_of_;
  std::vector<uint32_t> rows_of_;
  std::vector<size_t> node_pos_;
  HistKernelMatrix km_;
  HistKernelFn kernel_ = nullptr;
  QuantKernelFn qkernel_ = nullptr;
  const QuantRound* quant_ = nullptr;
  SimdLevel simd_ = SimdLevel::kScalar;
  // Quantized mode: one flat arena of int64 accumulators, one aligned
  // stride per staged node (cube tasks write disjoint regions of these
  // instead of the shared f64 histograms; DequantizeNode converts).
  AlignedVector<int64_t> qhists_;
  std::vector<int64_t*> qhist_of_;
  size_t qstride_ = 0;
  size_t total_bins_ = 0;
  int64_t grow_events_ = 0;
};

// Serial per-node build used by ASYNC node tasks (one thread builds the
// whole node, tiled by feature blocks).
void BuildHistSerial(const BuildContext& ctx, int node_id, GHPair* hist);

}  // namespace harp
