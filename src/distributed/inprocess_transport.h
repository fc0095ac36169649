// In-process Transport backend: W worker threads in one process meeting at
// a rendezvous.
//
// This is the CI-friendly simulated cluster. Both collectives are the same
// two-barrier rendezvous:
//   1. arrival    every rank publishes its frame (and, for ReduceScatter,
//                 its segment bounds) and waits for the others
//   2. fold       every rank runs its callback over views into its peers'
//                 frames, in place: nothing is copied
//   3. departure  a second barrier, so no rank returns (and reuses or
//                 frees its frame) while a peer may still be reading it
// The callbacks run on the ranks' own threads at the same time, so each may
// split its work over its own rank's pool.
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

  void Allgather(const uint8_t* send, size_t send_bytes,
                 const FramesFn& consume) override;
  void ReduceScatter(const uint8_t* send, const size_t* bounds,
                     const FramesFn& reduce) override;

 private:
  friend class InProcessCluster;
  InProcessTransport(InProcessCluster* cluster, int rank, int world)
      : cluster_(cluster), rank_(rank), world_(world) {}

  // Both collectives: `bounds` null hands every rank whole frames.
  void Exchange(const uint8_t* send, size_t send_bytes, const size_t* bounds,
                const FramesFn& fn);

  InProcessCluster* cluster_;
  int rank_;
  int world_;
  Frames views_;  // the callback's frames, reused across collectives
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

  // One rank's contribution to the current collective.
  struct Send {
    const uint8_t* data = nullptr;
    size_t bytes = 0;
    const size_t* bounds = nullptr;  // ReduceScatter's segment bounds
  };

  // Blocks until all ranks arrived (reusable: a generation count tells
  // consecutive barriers apart). Its mutex orders every rank's writes
  // before the barrier ahead of every rank's reads after it.
  void Barrier();

  const int world_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int arrived_ = 0;
  uint64_t generation_ = 0;
  std::vector<Send> sends_;
  std::vector<InProcessTransport> transports_;
};

}  // namespace harp
