// Per-training instrumentation.
//
// Fills three reporting roles:
//   - Fig. 4-style phase breakdown (BuildHist / FindSplit / ApplySplit,
//     plus the DP reduce);
//   - Table I / Table VI-style profiling (utilization, barrier overhead,
//     spin overhead) via the embedded SyncSnapshot delta;
//   - memory-behaviour proxies replacing VTune's hardware counters:
//     ns per histogram update and the configured write-region size.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "parallel/sync_stats.h"

namespace harp {

struct TrainStats {
  // Phase wall times, summed over trees (orchestration-level timestamps).
  // For ASYNC the phases overlap across threads, so build/find/apply hold
  // summed per-thread task time instead (documented where reported).
  int64_t build_hist_ns = 0;
  int64_t reduce_ns = 0;      // DP model-replica reduction
  int64_t find_split_ns = 0;
  int64_t apply_split_ns = 0;
  int64_t gradient_ns = 0;    // per-iteration gradient computation
  int64_t quantize_ns = 0;    // per-tree gradient quantization (scale scan
                              // + packing; zero on the f64 path)
  int64_t update_ns = 0;      // margin updates after each tree
  int64_t wall_ns = 0;        // total training wall time

  int trees = 0;
  int64_t nodes_split = 0;
  int64_t leaves = 0;
  int max_tree_depth = 0;

  // Memory-behaviour proxies.
  int64_t hist_updates = 0;       // number of (row, feature) increments
  int64_t hist_builds = 0;        // histograms built by scanning rows (the
                                  // rest come from parent - sibling)
  size_t hist_peak_bytes = 0;     // peak live histogram memory
  size_t hist_cell_bytes = 0;     // accumulator cell size the hot loop
                                  // writes: 16 (f64 GHPair) or 8 (int64)
  size_t write_region_bytes = 0;  // cell x bins in one task's write window
  size_t node_blk = 0;            // resolved node block: the largest DP
                                  // block built (MP mode: the cube extent)

  // ApplySplit-phase counters (RowPartitioner PartitionStats deltas over
  // the measured interval). With the arena partitioner, bytes_moved is
  // exactly one element write per row per split, barriers is 2 per
  // *batch* (count + scatter regions, ~1/K of per-node application for
  // TopK batches of K), and allocs stays 0 once storage has grown to the
  // working-set high-water mark.
  int64_t apply_splits = 0;       // nodes partitioned
  int64_t apply_batches = 0;      // batched (single-region-pair) applies
  int64_t apply_barriers = 0;     // parallel regions issued by partitions
  int64_t apply_bytes_moved = 0;  // payload bytes written by scatters
  int64_t apply_allocs = 0;       // partitioner grow events

  // Grow-phase scheduler accounting (pool Snapshot deltas taken around
  // the grow loop of each tree). With the fused-step scheduler a TopK
  // batch costs exactly ONE region launch and pays its synchronization as
  // in-region phase barriers; the region-per-phase path launches >= 5
  // regions per batch and records zero phase barriers. Table VI's
  // barrier-overhead rows are regenerated from these.
  int64_t topk_batches = 0;          // TopK batches popped (grow steps)
  int64_t grow_region_launches = 0;  // RunOnAllThreads launches while growing
  int64_t grow_phase_barriers = 0;   // in-region phase barriers while growing

  // Out-of-core streaming counters, populated only when the bin matrix is
  // backed by an mmap'd cache file (mapped_bytes > 0 is the flag the
  // report keys off, so heap training output is unchanged).
  size_t mapped_bytes = 0;        // bin-matrix bytes living in the mapping
  int64_t oo_advised_bytes = 0;   // always 0; kept for perfbench's reader
  int64_t oo_retired_bytes = 0;   // always 0; kept for perfbench's reader
  int64_t minor_faults = 0;       // page-fault deltas over training
  int64_t major_faults = 0;
  size_t peak_rss_bytes = 0;      // VmHWM when training finished

  // Synchronization counters accumulated over the measured interval.
  SyncSnapshot sync;

  // Wall seconds of each tree (convergence-vs-time benches).
  std::vector<double> tree_seconds;

  double SecondsPerTree() const;
  // ns per histogram update: latency proxy for the paper's "Average
  // Latency (cycles)" column (monotone in the same memory behaviour).
  double NsPerHistUpdate() const;

  std::string Report() const;
};

}  // namespace harp
