// Collective-communication layer for sharded training.
//
// The paper's stated future work is distributed HarpGBDT: "Both XGBoost
// and LightGBM build distributed GBDT upon a collective communication
// layer" (Section VI). Communicator is that layer's front end: typed
// collectives with per-rank traffic accounting plus the compressed
// histogram exchange. The actual byte movement is delegated to a pluggable
// Transport backend (distributed/transport.h) — worker threads in one
// process for CI, or real processes over loopback TCP.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/gh.h"
#include "core/quantize.h"
#include "distributed/transport.h"

namespace harp {

class ThreadPool;

struct CommStats {
  int64_t allreduce_calls = 0;
  int64_t allreduce_bytes = 0;  // payload size x (world - 1), per call
  int64_t broadcast_calls = 0;
  int64_t broadcast_bytes = 0;  // payload size x (world - 1), per call
  int64_t barriers = 0;
  // Histogram-exchange accounting (AllreduceHistograms only). Wire bytes
  // are what this rank physically moved — sent frame + received result —
  // and dense bytes are what the uncompressed f64 exchange would have
  // moved, so wire/dense is the measured compression ratio. Both are 0 at
  // world == 1 (no communication happens). hist_exchange_ns is the wall
  // time spent inside AllreduceHistograms with world > 1: encode,
  // transport, reduce and decode, including the wait for the slowest rank.
  int64_t hist_exchanges = 0;
  int64_t hist_wire_bytes = 0;
  int64_t hist_dense_bytes = 0;
  int64_t hist_exchange_ns = 0;

  CommStats& operator+=(const CommStats& o) {
    allreduce_calls += o.allreduce_calls;
    allreduce_bytes += o.allreduce_bytes;
    broadcast_calls += o.broadcast_calls;
    broadcast_bytes += o.broadcast_bytes;
    barriers += o.barriers;
    hist_exchanges += o.hist_exchanges;
    hist_wire_bytes += o.hist_wire_bytes;
    hist_dense_bytes += o.hist_dense_bytes;
    hist_exchange_ns += o.hist_exchange_ns;
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
  // result). Reduction combines ranks in ascending rank order, so the
  // result is bitwise identical on every rank, across runs, and across
  // transport backends.
  void AllreduceSum(GHPair* data, size_t count);
  void AllreduceSum(double* data, size_t count);
  void AllreduceSum(int64_t* data, size_t count);

  // Element-wise maximum (quantization scale agreement).
  void AllreduceMax(double* data, size_t count);

  // Copies `bytes` of root's buffer into every other rank's buffer.
  void Broadcast(void* data, size_t bytes, int root);

  void Barrier();

  // In-place global sum of a batch of node histograms (`num_hists`
  // pointers, `cells` GHPair slots each). opts.sparse selects the
  // compressed SparseHistogram wire format; opts.quant additionally ships
  // 8-byte int64 cells using the round's agreed scales. Every combination
  // produces bitwise-identical histograms (sparse_hist.h documents why).
  // opts.pool, when set, is this rank's pool, idle during the exchange:
  // the sparse codec splits its encode, reduce and decode over it. With
  // one rank the global sum is the input, so nothing is touched.
  struct HistExchangeOpts {
    bool sparse = false;
    bool quant = false;
    QuantScales scales;
    ThreadPool* pool = nullptr;
  };
  void AllreduceHistograms(GHPair* const* hists, uint32_t num_hists,
                           uint32_t cells, const HistExchangeOpts& opts);

  // This rank's accumulated communication counters.
  const CommStats& stats() const { return stats_; }

 private:
  Transport* transport_;
  CommStats stats_;
  // Exchange scratch, reused across batches.
  std::vector<GHPair> dense_scratch_;
  std::vector<uint8_t> send_frame_;
  std::vector<uint8_t> recv_frame_;
};

// W worker threads in one process, each with its own Communicator over an
// InProcessTransport. Retained front end for tests/examples; the transport
// lives in distributed/inprocess_transport.h.
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
