// In-process Transport backend: W worker threads in one process meeting at
// rendezvous-based collectives.
//
// This is the CI-friendly simulated cluster. Dense allreduces are blocked
// into fixed element chunks reduced IN PARALLEL by the arrived worker
// threads (an atomic chunk cursor hands out chunks; within each chunk the
// rank contributions are still summed in ascending rank order, so the
// result is bitwise identical to the serial rank-ordered reduction — there
// is a regression test pinning that). The old design reduced the whole
// payload on the last-arriving thread while every peer waited; for
// histogram-sized payloads that serialized the dominant cost of the
// exchange.
//
// Every collective is a three-phase rendezvous:
//   1. arrival    all ranks publish their buffer pointer (mutex + cv);
//                 the last arrival stages the work descriptor and releases
//   2. work       lock-free: threads claim chunks / copy their own output
//   3. departure  mutex + cv again, so no rank can re-enter the next
//                 collective (and overwrite its buffer) while a peer is
//                 still reading shared memory
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "distributed/transport.h"

namespace harp {

class InProcessCluster;

class InProcessTransport final : public Transport {
 public:
  int rank() const override { return rank_; }
  int world_size() const override { return world_; }

  void AllreduceSum(double* data, size_t count) override;
  void AllreduceSum(int64_t* data, size_t count) override;
  void AllreduceMax(double* data, size_t count) override;
  void Broadcast(void* data, size_t bytes, int root) override;
  void Barrier() override;
  void ReduceBlobs(const uint8_t* send, size_t send_bytes,
                   const BlobReduceFn& reduce,
                   std::vector<uint8_t>* result) override;

 private:
  friend class InProcessCluster;
  InProcessTransport(InProcessCluster* cluster, int rank, int world)
      : cluster_(cluster), rank_(rank), world_(world) {}

  template <typename T, typename Op>
  void AllreduceImpl(T* data, size_t count, Op op);

  InProcessCluster* cluster_;
  int rank_;
  int world_;
};

// Shared rendezvous state plus one transport handle per rank. Thread r must
// be the only thread using transport(r); the cluster must outlive them.
class InProcessCluster {
 public:
  explicit InProcessCluster(int world_size);

  int world_size() const { return world_; }
  InProcessTransport& transport(int rank) {
    return transports_[static_cast<size_t>(rank)];
  }

  // Fixed dense-allreduce chunk size (elements). Chunk boundaries are part
  // of the determinism contract only in that they are FIXED — within a
  // chunk ranks reduce in rank order, so any chunking gives the serial
  // result bit for bit.
  static constexpr size_t kChunkElems = 8192;

 private:
  friend class InProcessTransport;

  struct Rendezvous {
    std::mutex mutex;
    std::condition_variable cv;
    int arrived = 0;
    int departed = 0;
    uint64_t generation = 0;       // bumped when all ranks arrived
    uint64_t exit_generation = 0;  // bumped when all ranks departed
    std::vector<void*> buffers;
    // Chunked-reduce work descriptor (staged by the last arrival).
    alignas(64) std::atomic<int64_t> cursor{0};
    alignas(64) std::atomic<int64_t> chunks_done{0};
    int64_t num_chunks = 0;
    // ReduceBlobs: the reducing rank's result, copied by every other rank
    // during the work phase.
    const std::vector<uint8_t>* blob_result = nullptr;
  };

  // Blocks until all ranks arrived; the last arrival runs `stage` (under
  // the lock — its writes happen-before every peer's release) and wakes
  // everyone.
  template <typename StageFn>
  void Arrive(StageFn&& stage);
  // Blocks until all ranks passed their work phase.
  void Depart();

  const int world_;
  Rendezvous rendezvous_;
  std::vector<InProcessTransport> transports_;
};

}  // namespace harp
