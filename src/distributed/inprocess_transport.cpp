#include "distributed/inprocess_transport.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/logging.h"

namespace harp {

InProcessCluster::InProcessCluster(int world_size) : world_(world_size) {
  HARP_CHECK_GE(world_size, 1);
  rendezvous_.buffers.assign(static_cast<size_t>(world_size), nullptr);
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

template <typename T, typename Op>
void InProcessTransport::AllreduceImpl(T* data, size_t count, Op op) {
  if (world_ == 1) return;
  auto& r = cluster_->rendezvous_;
  constexpr size_t kChunk = InProcessCluster::kChunkElems;

  r.buffers[static_cast<size_t>(rank_)] = data;
  cluster_->Arrive([&] {
    r.cursor.store(0, std::memory_order_relaxed);
    r.chunks_done.store(0, std::memory_order_relaxed);
    r.num_chunks = static_cast<int64_t>((count + kChunk - 1) / kChunk);
  });

  // Work phase: every arrived thread claims chunks and reduces all ranks'
  // contributions for that chunk into rank 0's buffer — rank order is
  // preserved WITHIN each chunk, so the result is bit-identical to the
  // serial rank-ordered reduction regardless of which thread takes which
  // chunk.
  T* dst = static_cast<T*>(r.buffers[0]);
  const int64_t num_chunks = r.num_chunks;
  for (;;) {
    const int64_t c = r.cursor.fetch_add(1, std::memory_order_relaxed);
    if (c >= num_chunks) break;
    const size_t begin = static_cast<size_t>(c) * kChunk;
    const size_t end = std::min(count, begin + kChunk);
    for (int t = 1; t < world_; ++t) {
      const T* src = static_cast<const T*>(r.buffers[static_cast<size_t>(t)]);
      for (size_t i = begin; i < end; ++i) op(dst[i], src[i]);
    }
    r.chunks_done.fetch_add(1, std::memory_order_release);
  }
  while (r.chunks_done.load(std::memory_order_acquire) < num_chunks) {
    std::this_thread::yield();
  }
  // Replicate the finished result; every non-root rank copies its own
  // output (parallel across ranks by construction).
  if (rank_ != 0) std::copy(dst, dst + count, data);

  cluster_->Depart();
}

void InProcessTransport::AllreduceSum(double* data, size_t count) {
  AllreduceImpl(data, count, [](double& a, double b) { a += b; });
}

void InProcessTransport::AllreduceSum(int64_t* data, size_t count) {
  AllreduceImpl(data, count, [](int64_t& a, int64_t b) { a += b; });
}

void InProcessTransport::AllreduceMax(double* data, size_t count) {
  AllreduceImpl(data, count,
                [](double& a, double b) { a = std::max(a, b); });
}

void InProcessTransport::Broadcast(void* data, size_t bytes, int root) {
  if (world_ == 1) return;
  HARP_CHECK_GE(root, 0);
  HARP_CHECK_LT(root, world_);
  auto& r = cluster_->rendezvous_;
  r.buffers[static_cast<size_t>(rank_)] = data;
  cluster_->Arrive([] {});
  if (rank_ != root) {
    const char* src =
        static_cast<const char*>(r.buffers[static_cast<size_t>(root)]);
    std::memcpy(data, src, bytes);
  }
  cluster_->Depart();
}

void InProcessTransport::Barrier() {
  if (world_ == 1) return;
  cluster_->Arrive([] {});
}

void InProcessTransport::ReduceBlobs(const uint8_t* send, size_t send_bytes,
                                     const BlobReduceFn& reduce,
                                     std::vector<uint8_t>* result) {
  if (world_ == 1) {
    Frames frames;
    frames.emplace_back(send, send_bytes);
    reduce(frames, result);
    return;
  }
  auto& r = cluster_->rendezvous_;
  // Publish {ptr, size} through the shared pointer slots: the pointer slot
  // carries the frame, sizes ride in a per-collective descriptor.
  struct Slot {
    const uint8_t* data;
    size_t bytes;
  };
  Slot slot{send, send_bytes};
  r.buffers[static_cast<size_t>(rank_)] = &slot;
  cluster_->Arrive([&] {
    // Last arrival reduces all frames in rank order straight into its own
    // result, under the lock, so released peers see the finished bytes.
    Frames frames;
    frames.reserve(static_cast<size_t>(world_));
    for (int t = 0; t < world_; ++t) {
      const Slot* s = static_cast<const Slot*>(r.buffers[static_cast<size_t>(t)]);
      frames.emplace_back(s->data, s->bytes);
    }
    reduce(frames, result);
    r.blob_result = result;
  });
  // The reducing rank's result stays put until everyone departed.
  if (r.blob_result != result) {
    result->assign(r.blob_result->begin(), r.blob_result->end());
  }
  cluster_->Depart();
}

}  // namespace harp
