// Collective-communication transport interface.
//
// The paper's stated future work is distributed HarpGBDT on a collective
// communication layer (Section VI). The training code talks to that layer
// through Communicator (stats, typed allreduces, the compressed histogram
// exchange); Communicator talks to one of the pluggable Transport backends
// below through their two collectives, Allgather and ReduceScatter:
//
//   InProcessTransport   W worker threads in one process, rendezvous-based
//                        collectives (the CI-friendly simulated cluster).
//   SocketTransport      W real processes over loopback TCP with framed
//                        messages (star topology through rank 0).
//
// Neither collective reduces anything itself: each hands every rank the
// frames it needs IN ASCENDING RANK ORDER and the caller folds them, on
// every rank at once. A fold that is a pure function of the frames in rank
// order therefore gives the same bits on every rank, across runs and
// across backends — which is what lets CI diff a multi-process model file
// against the in-process run byte for byte.
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

  // One (pointer, size) view per rank, in rank order. The views stay valid
  // only while the callback they are passed to runs.
  using Frames = std::vector<std::pair<const uint8_t*, size_t>>;
  using FramesFn = std::function<void(const Frames&)>;

  // Every rank contributes one frame; `consume` then runs on every rank
  // over all ranks' frames. With one rank it runs on the rank's own frame.
  virtual void Allgather(const uint8_t* send, size_t send_bytes,
                         const FramesFn& consume) = 0;

  // Every rank contributes one frame cut into world_size() consecutive
  // segments: segment s is [bounds[s], bounds[s + 1]), with bounds[0] = 0
  // and world_size() + 1 entries. `reduce` then runs on every rank r over
  // segment r of every rank's frame, so each rank folds only its own share.
  virtual void ReduceScatter(const uint8_t* send, const size_t* bounds,
                             const FramesFn& reduce) = 0;
};

}  // namespace harp
