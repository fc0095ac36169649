// In-process Transport backend: W worker threads in one process meeting at
// a rendezvous.
//
// This is the CI-friendly simulated cluster. ReduceBlobs is a three-phase
// rendezvous:
//   1. arrival    all ranks publish their frame (mutex + cv); the last
//                 arrival runs the reduce over every frame in rank order,
//                 under the lock, into its own result, and releases
//   2. copy       every other rank copies the finished result
//   3. departure  mutex + cv again, so no rank can re-enter the next
//                 collective (and overwrite its frame or result) while a
//                 peer is still reading shared memory
// The reduce runs on the reducing rank's own thread, so it may split its
// work over that rank's pool.
#pragma once

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

  void ReduceBlobs(const uint8_t* send, size_t send_bytes,
                   const BlobReduceFn& reduce,
                   std::vector<uint8_t>* result) override;

 private:
  friend class InProcessCluster;
  InProcessTransport(InProcessCluster* cluster, int rank, int world)
      : cluster_(cluster), rank_(rank), world_(world) {}

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

 private:
  friend class InProcessTransport;

  struct Rendezvous {
    std::mutex mutex;
    std::condition_variable cv;
    int arrived = 0;
    int departed = 0;
    uint64_t generation = 0;       // bumped when all ranks arrived
    uint64_t exit_generation = 0;  // bumped when all ranks departed
    // Each rank's frame for the current collective.
    Transport::Frames frames;
    // The reducing rank's result, copied by every other rank.
    const std::vector<uint8_t>* result = nullptr;
  };

  // Blocks until all ranks arrived; the last arrival runs `stage` (under
  // the lock — its writes happen-before every peer's release) and wakes
  // everyone.
  template <typename StageFn>
  void Arrive(StageFn&& stage);
  // Blocks until all ranks passed their copy phase.
  void Depart();

  const int world_;
  Rendezvous rendezvous_;
  std::vector<InProcessTransport> transports_;
};

}  // namespace harp
