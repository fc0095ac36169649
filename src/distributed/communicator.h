// Collective-communication layer for sharded training.
//
// The paper's stated future work is distributed HarpGBDT: "Both XGBoost
// and LightGBM build distributed GBDT upon a collective communication
// layer" (Section VI). Communicator is that layer's front end: typed
// allreduces with per-rank traffic accounting plus the compressed
// histogram reduce-scatter, all built on the backend's two collectives,
// Transport::Allgather and Transport::ReduceScatter (distributed/
// transport.h) — worker threads in one process for CI, or real processes
// over loopback TCP.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/gh.h"
#include "core/quantize.h"
#include "core/split.h"
#include "distributed/transport.h"

namespace harp {

class ThreadPool;

struct CommStats {
  int64_t allreduce_calls = 0;
  int64_t allreduce_bytes = 0;  // payload size x (world - 1), per call
  // Wall time inside the typed allreduces with world > 1, including the
  // wait for the slowest rank.
  int64_t allreduce_ns = 0;
  // Always 0: the layer has no broadcast or barrier. Kept only for the
  // benchmark's dist.broadcast_bytes and dist.barriers metrics.
  int64_t broadcast_bytes = 0;
  int64_t barriers = 0;
  // Histogram-exchange accounting (ReduceScatterHistograms only). Wire
  // bytes are what this rank's share of the reduce-scatter moves between
  // ranks — its frame, which holds the cells other ranks own, plus the
  // segments of theirs that it owns — and dense bytes are what the same
  // reduce-scatter moves in the uncompressed f64 encoding, so wire/dense
  // is the measured compression ratio. Both are 0 at world == 1 (no
  // communication happens). hist_exchange_ns is the wall time spent
  // inside ReduceScatterHistograms with world > 1, split into encoding the
  // frame, folding the peers' segments into this rank's cells (which also
  // decodes them: there is no separate decode step), and the transport:
  // the rest, which includes the wait for the slowest rank.
  int64_t hist_exchanges = 0;
  int64_t hist_wire_bytes = 0;
  int64_t hist_dense_bytes = 0;
  int64_t hist_exchange_ns = 0;
  int64_t hist_encode_ns = 0;
  int64_t hist_fold_ns = 0;

  // hist_exchange_ns minus encode and fold.
  int64_t HistTransportNs() const {
    return hist_exchange_ns - hist_encode_ns - hist_fold_ns;
  }

  CommStats& operator+=(const CommStats& o) {
    allreduce_calls += o.allreduce_calls;
    allreduce_bytes += o.allreduce_bytes;
    allreduce_ns += o.allreduce_ns;
    broadcast_bytes += o.broadcast_bytes;
    barriers += o.barriers;
    hist_exchanges += o.hist_exchanges;
    hist_wire_bytes += o.hist_wire_bytes;
    hist_dense_bytes += o.hist_dense_bytes;
    hist_exchange_ns += o.hist_exchange_ns;
    hist_encode_ns += o.hist_encode_ns;
    hist_fold_ns += o.hist_fold_ns;
    return *this;
  }
};

// Per-rank handle over a Transport. Not thread-safe: one rank, one thread.
class Communicator {
 public:
  explicit Communicator(Transport& transport) : transport_(&transport) {}

  int rank() const { return transport_->rank(); }
  int world_size() const { return transport_->world_size(); }

  // Element-wise sum of every rank's `data` (all ranks receive the
  // result). Every rank folds all ranks' values in ascending rank order,
  // so the result is bitwise identical on every rank, across runs, and
  // across transport backends. Every rank must pass the same count; a
  // mismatch throws std::runtime_error on every rank.
  void AllreduceSum(GHPair* data, size_t count);
  void AllreduceSum(double* data, size_t count);
  void AllreduceSum(int64_t* data, size_t count);

  // Element-wise maximum (quantization scale agreement).
  void AllreduceMax(double* data, size_t count);

  // Element-wise best split: each of `count` entries becomes the best of
  // every rank's entry by SplitInfo::BetterThan, ranks merged in ascending
  // order (the first of equals wins). When each rank scanned a disjoint,
  // ascending range of features, that is exactly the split one scan of all
  // of them finds.
  void AllreduceBestSplits(SplitInfo* splits, size_t count);

  // Reduce-scatter of a batch of node histograms (`num_hists` pointers,
  // `cells` GHPair slots each) by cell range: rank r owns cells
  // [cell_bounds[r], cell_bounds[r + 1]) of every histogram, where
  // cell_bounds has world_size() + 1 ascending entries from 0 to `cells`
  // (a rank may own none). Afterwards this rank's cells hold the global
  // sum, folded in ascending rank order; its other cells are left as they
  // are. opts.sparse selects the compressed SparseHistogram wire format;
  // opts.quant additionally ships 8-byte int64 cells using the round's
  // agreed scales. Every combination produces bitwise-identical owned
  // cells (sparse_hist.h documents why). opts.pool, when set, is this
  // rank's pool, idle during the exchange: the codec splits its encode and
  // fold over it, and the dense exchange its fold. With one rank the
  // global sum is the input, so nothing is touched.
  struct HistExchangeOpts {
    bool sparse = false;
    bool quant = false;
    QuantScales scales;
    ThreadPool* pool = nullptr;
  };
  void ReduceScatterHistograms(GHPair* const* hists, uint32_t num_hists,
                               uint32_t cells, const uint32_t* cell_bounds,
                               const HistExchangeOpts& opts);

  // This rank's accumulated communication counters.
  const CommStats& stats() const { return stats_; }

 private:
  // Every typed allreduce: gathers every rank's `data`, checks every
  // frame's size and folds the frames in rank order — frame 0, then
  // op(acc, frame r) for r = 1, 2, ... — on every rank.
  template <typename T, typename Op>
  void Allreduce(T* data, size_t count, Op op);

  Transport* transport_;
  CommStats stats_;
  // Exchange scratch, reused across batches.
  std::vector<uint8_t> send_frame_;
  std::vector<size_t> send_bounds_;
  std::vector<const GHPair*> segment_hists_;
  std::vector<GHPair*> owned_hists_;
  std::vector<uint8_t> fold_result_;  // the typed fold's result
};

// W worker threads in one process, each with its own Communicator over an
// InProcessTransport (distributed/inprocess_transport.h). DistributedGbdt::
// Train runs its in-process workers through it.
class SimulatedCluster {
 public:
  explicit SimulatedCluster(int world_size);

  // Runs fn on world_size threads, each with its own Communicator.
  // Exceptions from workers are rethrown (first wins).
  void Run(const std::function<void(Communicator&)>& fn);

  // Sum of all ranks' counters from the last Run.
  CommStats TotalStats() const { return total_stats_; }

 private:
  const int world_;
  CommStats total_stats_;
};

}  // namespace harp
