#include "distributed/inprocess_transport.h"

#include "common/logging.h"

namespace harp {

InProcessCluster::InProcessCluster(int world_size) : world_(world_size) {
  HARP_CHECK_GE(world_size, 1);
  sends_.resize(static_cast<size_t>(world_size));
  transports_.reserve(static_cast<size_t>(world_size));
  for (int rank = 0; rank < world_size; ++rank) {
    transports_.push_back(InProcessTransport(this, rank, world_size));
  }
}

void InProcessCluster::Barrier() {
  std::unique_lock<std::mutex> lock(mutex_);
  const uint64_t generation = generation_;
  if (++arrived_ == world_) {
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
  } else {
    cv_.wait(lock, [&] { return generation_ != generation; });
  }
}

void InProcessTransport::Exchange(const uint8_t* send, size_t send_bytes,
                                  const size_t* bounds, const FramesFn& fn) {
  const size_t me = static_cast<size_t>(rank_);
  cluster_->sends_[me] = InProcessCluster::Send{send, send_bytes, bounds};
  cluster_->Barrier();
  views_.clear();
  for (const InProcessCluster::Send& s : cluster_->sends_) {
    if (s.bounds == nullptr) {
      views_.emplace_back(s.data, s.bytes);
    } else {
      views_.emplace_back(s.data + s.bounds[me],
                          s.bounds[me + 1] - s.bounds[me]);
    }
  }
  // Depart even when the callback throws, so the peers are not left
  // waiting at the second barrier.
  try {
    fn(views_);
  } catch (...) {
    cluster_->Barrier();
    throw;
  }
  cluster_->Barrier();
}

void InProcessTransport::Allgather(const uint8_t* send, size_t send_bytes,
                                   const FramesFn& consume) {
  Exchange(send, send_bytes, nullptr, consume);
}

void InProcessTransport::ReduceScatter(const uint8_t* send,
                                       const size_t* bounds,
                                       const FramesFn& reduce) {
  Exchange(send, bounds[world_], bounds, reduce);
}

}  // namespace harp
