#include "distributed/inprocess_transport.h"

#include "common/logging.h"

namespace harp {

InProcessCluster::InProcessCluster(int world_size) : world_(world_size) {
  HARP_CHECK_GE(world_size, 1);
  rendezvous_.frames.resize(static_cast<size_t>(world_size));
  transports_.reserve(static_cast<size_t>(world_size));
  for (int rank = 0; rank < world_size; ++rank) {
    transports_.push_back(InProcessTransport(this, rank, world_size));
  }
}

template <typename StageFn>
void InProcessCluster::Arrive(StageFn&& stage) {
  auto& r = rendezvous_;
  std::unique_lock<std::mutex> lock(r.mutex);
  const uint64_t generation = r.generation;
  if (++r.arrived == world_) {
    r.arrived = 0;
    stage();
    ++r.generation;
    r.cv.notify_all();
  } else {
    r.cv.wait(lock, [&] { return r.generation != generation; });
  }
}

void InProcessCluster::Depart() {
  auto& r = rendezvous_;
  std::unique_lock<std::mutex> lock(r.mutex);
  const uint64_t generation = r.exit_generation;
  if (++r.departed == world_) {
    r.departed = 0;
    ++r.exit_generation;
    r.cv.notify_all();
  } else {
    r.cv.wait(lock, [&] { return r.exit_generation != generation; });
  }
}

void InProcessTransport::ReduceBlobs(const uint8_t* send, size_t send_bytes,
                                     const BlobReduceFn& reduce,
                                     std::vector<uint8_t>* result) {
  auto& r = cluster_->rendezvous_;
  r.frames[static_cast<size_t>(rank_)] = {send, send_bytes};
  cluster_->Arrive([&] {
    reduce(r.frames, result);
    r.result = result;
  });
  // The reducing rank's result stays put until everyone departed.
  if (r.result != result) result->assign(r.result->begin(), r.result->end());
  cluster_->Depart();
}

}  // namespace harp
