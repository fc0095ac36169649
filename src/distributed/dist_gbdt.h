// Distributed GBDT training over a pluggable transport.
//
// Histogram-aggregation data parallelism, the design distributed XGBoost
// and LightGBM use and the paper names as future work, with LightGBM's
// owner-computes split finding (Block-distributed GBT, PAPERS.md). Rows
// are sharded across W workers, and each worker runs the ordinary
// single-process trainer (RunBoosting + HarpTreeBuilder) on its shard with
// a HistReducer over the Communicator (core/hist_reducer.h). Each worker
// also owns a contiguous range of features (FeatureOwnerBounds). The
// reducer turns the shard-local root sums, row counts and quantization
// statistics into global ones; it reduce-scatters the directly built
// histograms, so each worker holds the global cells of its own features
// only, and after each worker has scanned those it merges every worker's
// best splits, so every worker makes the identical split decisions. Every
// TrainParams field is honoured except ASYNC mode, which is rejected.
// Histograms travel dense f64 or in the compressed SparseHistogram format
// (comm_compress); with use_hist_subtraction only the smaller child of
// each split is exchanged. The returned model is bitwise identical on
// every worker, for both exchange encodings, for both transport backends,
// and to the single-process trainer's whenever the histogram sums are
// exact (quantized histograms, or one worker).
#pragma once

#include <string>
#include <vector>

#include "core/gbdt.h"
#include "distributed/communicator.h"

namespace harp {

struct DistributedResult {
  GbdtModel model;   // rank 0's copy (all ranks build the same model)
  CommStats comm;    // communication counters aggregated over all ranks
  std::vector<CommStats> per_rank;  // each rank's own counters
  std::vector<TrainStats> rank_stats;  // each rank's own training stats
  int workers = 1;
  double seconds = 0.0;
};

// Feature ownership of a W-worker run: rank r owns features
// [bounds[r], bounds[r + 1]) of `num_features`, whose histogram cells start
// at bin_offsets[f] (num_features + 1 entries). The ranges are contiguous,
// ascending with the rank, and balanced by histogram cells: bound r is the
// feature boundary nearest to r/W of all cells (the lower one on a tie). A
// rank may own no features (W > num_features, or one very wide feature).
std::vector<uint32_t> FeatureOwnerBounds(const uint32_t* bin_offsets,
                                         uint32_t num_features, int world);

// Why `dataset` cannot be trained by `world` workers with `params` (the
// params' own Check(), a worker count below 1, fewer rows or query groups
// than workers, or a worker left without rows), or "" when it can.
std::string ShardingError(const Dataset& dataset, const TrainParams& params,
                          int world);

class DistributedGbdt {
 public:
  // Shards `dataset` by contiguous row ranges over `workers` in-process
  // workers (threads over an InProcessTransport; with query groups each
  // range boundary moves forward to the next group start) and trains
  // params.num_trees trees. `worker_threads` sizes each worker's intra-
  // worker ThreadPool (default 1: the workers are the parallelism); the
  // quantile cut pass before the workers start uses workers x
  // worker_threads threads.
  static DistributedResult Train(const Dataset& dataset, int workers,
                                 const TrainParams& params,
                                 int worker_threads = 1);

  // One rank's share of a sharded run over an externally created
  // transport (e.g. SocketTransport in a real multi-process launch).
  // `dataset` is the FULL dataset: every rank computes identical quantile
  // cuts from it and trains on the comm.rank()-th contiguous row shard, so
  // separately launched processes stay in lockstep. Returns this rank's
  // model — bitwise identical on every rank — and, when `stats` is set,
  // fills it with this rank's training stats.
  static GbdtModel TrainShard(const Dataset& dataset, Communicator& comm,
                              const TrainParams& params,
                              int worker_threads = 1,
                              TrainStats* stats = nullptr);
};

}  // namespace harp
