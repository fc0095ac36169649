#include "distributed/communicator.h"

#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/timer.h"
#include "distributed/inprocess_transport.h"
#include "distributed/sparse_hist.h"

namespace harp {

static_assert(sizeof(GHPair) == 2 * sizeof(double),
              "GHPair must be two packed doubles for the transport view");

void Communicator::AllreduceSum(GHPair* data, size_t count) {
  ++stats_.allreduce_calls;
  stats_.allreduce_bytes +=
      static_cast<int64_t>(count * sizeof(GHPair)) * (world_size() - 1);
  transport_->AllreduceSum(reinterpret_cast<double*>(data), count * 2);
}

void Communicator::AllreduceSum(double* data, size_t count) {
  ++stats_.allreduce_calls;
  stats_.allreduce_bytes +=
      static_cast<int64_t>(count * sizeof(double)) * (world_size() - 1);
  transport_->AllreduceSum(data, count);
}

void Communicator::AllreduceSum(int64_t* data, size_t count) {
  ++stats_.allreduce_calls;
  stats_.allreduce_bytes +=
      static_cast<int64_t>(count * sizeof(int64_t)) * (world_size() - 1);
  transport_->AllreduceSum(data, count);
}

void Communicator::AllreduceMax(double* data, size_t count) {
  ++stats_.allreduce_calls;
  stats_.allreduce_bytes +=
      static_cast<int64_t>(count * sizeof(double)) * (world_size() - 1);
  transport_->AllreduceMax(data, count);
}

void Communicator::Broadcast(void* data, size_t bytes, int root) {
  ++stats_.broadcast_calls;
  stats_.broadcast_bytes +=
      static_cast<int64_t>(bytes) * (world_size() - 1);
  transport_->Broadcast(data, bytes, root);
}

void Communicator::Barrier() {
  ++stats_.barriers;
  transport_->Barrier();
}

void Communicator::AllreduceHistograms(GHPair* const* hists,
                                       uint32_t num_hists, uint32_t cells,
                                       const HistExchangeOpts& opts) {
  if (num_hists == 0) return;
  ++stats_.hist_exchanges;
  if (world_size() == 1) return;  // the sum over one rank is the input
  const Stopwatch watch;
  const int64_t dense_bytes = DenseHistBytes(num_hists, cells);
  stats_.hist_dense_bytes += 2 * dense_bytes;

  if (!opts.sparse) {
    // Dense oracle: concatenate the batch and run one rank-ordered f64
    // allreduce over it.
    const size_t total = static_cast<size_t>(num_hists) * cells;
    dense_scratch_.resize(total);
    for (uint32_t h = 0; h < num_hists; ++h) {
      std::memcpy(dense_scratch_.data() + static_cast<size_t>(h) * cells,
                  hists[h], static_cast<size_t>(cells) * sizeof(GHPair));
    }
    AllreduceSum(dense_scratch_.data(), total);
    for (uint32_t h = 0; h < num_hists; ++h) {
      std::memcpy(hists[h],
                  dense_scratch_.data() + static_cast<size_t>(h) * cells,
                  static_cast<size_t>(cells) * sizeof(GHPair));
    }
    stats_.hist_wire_bytes += 2 * dense_bytes;
    stats_.hist_exchange_ns += watch.ElapsedNs();
    return;
  }

  SparseHistFormat fmt;
  fmt.quant = opts.quant;
  fmt.scales = opts.scales;
  EncodeSparseHist(hists, num_hists, cells, fmt, &send_frame_, opts.pool);
  // The reduce runs on whichever rank reduces (the last arrival in
  // process, rank 0 over sockets), on that rank's own thread, so that
  // rank's pool is idle and takes the split.
  transport_->ReduceBlobs(
      send_frame_.data(), send_frame_.size(),
      [&](const Transport::Frames& frames, std::vector<uint8_t>* out) {
        ReduceSparseHist(frames, num_hists, cells, fmt, out, opts.pool);
      },
      &recv_frame_);
  stats_.hist_wire_bytes +=
      static_cast<int64_t>(send_frame_.size() + recv_frame_.size());
  // hists still hold what this rank encoded, so only touched cells change.
  DecodeSparseHist(recv_frame_.data(), recv_frame_.size(), hists, num_hists,
                   cells, fmt, opts.pool, /*zero_untouched=*/false);
  stats_.hist_exchange_ns += watch.ElapsedNs();
}

SimulatedCluster::SimulatedCluster(int world_size) : world_(world_size) {
  HARP_CHECK_GE(world_size, 1);
}

void SimulatedCluster::Run(const std::function<void(Communicator&)>& fn) {
  total_stats_ = CommStats{};
  InProcessCluster cluster(world_);
  std::vector<Communicator> comms;
  comms.reserve(static_cast<size_t>(world_));
  for (int rank = 0; rank < world_; ++rank) {
    comms.push_back(Communicator(cluster.transport(rank)));
  }

  std::exception_ptr first_exception;
  std::mutex exception_mutex;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(world_));
  for (int rank = 0; rank < world_; ++rank) {
    workers.emplace_back([&, rank] {
      try {
        fn(comms[static_cast<size_t>(rank)]);
      } catch (...) {
        std::lock_guard<std::mutex> lock(exception_mutex);
        if (!first_exception) first_exception = std::current_exception();
      }
    });
  }
  for (auto& worker : workers) worker.join();

  for (const Communicator& comm : comms) total_stats_ += comm.stats();
  if (first_exception) std::rethrow_exception(first_exception);
}

}  // namespace harp
