// Collective-communication transport interface.
//
// The paper's stated future work is distributed HarpGBDT on a collective
// communication layer (Section VI). The training code talks to that layer
// through Communicator (stats, typed views, the compressed histogram
// exchange); Communicator talks to one of the pluggable Transport backends
// below:
//
//   InProcessTransport   W worker threads in one process, rendezvous-based
//                        collectives (the CI-friendly simulated cluster).
//   SocketTransport      W real processes over loopback TCP with framed
//                        messages (star topology through rank 0).
//
// Both backends honour the same determinism contract: every element-wise
// reduction combines rank contributions in ASCENDING RANK ORDER, so f64
// results are bitwise identical on every rank, across runs, and across
// backends — which is what lets CI diff a multi-process model file against
// the in-process run byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace harp {

class Transport {
 public:
  virtual ~Transport() = default;

  virtual int rank() const = 0;
  virtual int world_size() const = 0;

  // Element-wise sum of every rank's `data`; all ranks receive the result.
  // Reduction is rank-ordered (bitwise deterministic for f64).
  virtual void AllreduceSum(double* data, size_t count) = 0;
  virtual void AllreduceSum(int64_t* data, size_t count) = 0;

  // Element-wise maximum (order-independent; used by the quantization
  // scale-agreement round).
  virtual void AllreduceMax(double* data, size_t count) = 0;

  // Copies `bytes` of root's buffer into every other rank's buffer.
  virtual void Broadcast(void* data, size_t bytes, int root) = 0;

  virtual void Barrier() = 0;

  // Variable-length reduce — the primitive under the compressed sparse
  // histogram exchange. Every rank contributes one frame; `reduce` runs
  // exactly once per collective (on the reducing rank: rank 0 for the
  // socket backend, the last arrival in process) over all ranks' frames
  // presented in rank order, and fills the result frame, which every rank
  // then receives in *result. `reduce` must be a pure function of the
  // frames so the result is identical no matter which rank runs it, and
  // must overwrite all of its output, which may hold an earlier result.
  using Frames = std::vector<std::pair<const uint8_t*, size_t>>;
  using BlobReduceFn =
      std::function<void(const Frames&, std::vector<uint8_t>*)>;
  virtual void ReduceBlobs(const uint8_t* send, size_t send_bytes,
                           const BlobReduceFn& reduce,
                           std::vector<uint8_t>* result) = 0;
};

}  // namespace harp
