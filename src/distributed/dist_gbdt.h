// Distributed GBDT training over a pluggable transport.
//
// Histogram-aggregation data parallelism, the design distributed XGBoost
// and LightGBM use and the paper names as future work. Rows are sharded
// across W workers, and each worker runs the ordinary single-process
// trainer (RunBoosting + HarpTreeBuilder) on its shard with a HistReducer
// over the Communicator (core/hist_reducer.h). The reducer turns the
// shard-local root sums, row counts, quantization statistics and directly
// built histograms into global ones, so every worker makes the identical
// split decisions with no split broadcast. Every TrainParams field is
// honoured except ASYNC mode, which is rejected. Histograms travel dense
// f64 or in the compressed SparseHistogram format (comm_compress); with
// use_hist_subtraction only the smaller child of each split is exchanged.
// The returned model is bitwise identical on every worker, for both
// exchange encodings, and for both transport backends.
#pragma once

#include <vector>

#include "core/gbdt.h"
#include "distributed/communicator.h"

namespace harp {

struct DistributedResult {
  GbdtModel model;   // rank 0's copy (all ranks build the same model)
  CommStats comm;    // communication counters aggregated over all ranks
  std::vector<CommStats> per_rank;  // each rank's own counters
  int workers = 1;
  double seconds = 0.0;
};

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
  // model — bitwise identical on every rank.
  static GbdtModel TrainShard(const Dataset& dataset, Communicator& comm,
                              const TrainParams& params,
                              int worker_threads = 1);
};

}  // namespace harp
