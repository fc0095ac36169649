// Multi-process Transport backend over loopback TCP.
//
// W real processes form a star through rank 0. In every collective each
// client sends its frame (for ReduceScatter, with its segment sizes) to the
// root in one Blob message, and the root answers each client with one
// Result message holding exactly the frames that rank's callback needs, in
// ascending rank order: every rank's whole frame for Allgather, every
// rank's segment r for ReduceScatter. The root only routes bytes; every
// rank, the root included, runs its own callback over its own frames, the
// clients while the root runs its own. The frames reach the callbacks in
// the same order as in the in-process backend, so a multi-process run
// produces the same model file byte for byte (CI launches world=3
// processes via `harp_cli dist-train` and diffs the models).
//
// Wire protocol (version 3): every message is a fixed 28-byte header +
// payload. The header carries magic, version, opcode (Hello, Blob or
// Result), sender rank and a per-transport sequence number that counts
// collectives; every receiver validates all of them (plus a payload-size
// cap) and throws std::runtime_error on any mismatch — malformed or
// out-of-protocol frames must never be silently reduced into a model. A
// Result payload is W u64 frame sizes followed by those W frames; a
// ReduceScatter Blob payload is W u64 segment sizes followed by the frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "distributed/transport.h"

namespace harp {

class SocketTransport final : public Transport {
 public:
  // Rank 0 listens on 127.0.0.1:port and accepts world-1 hello frames;
  // other ranks connect, retrying while the root comes up (up to
  // timeout_ms). Throws std::runtime_error on timeout, connection failure
  // or a malformed handshake.
  static std::unique_ptr<SocketTransport> Create(int rank, int world_size,
                                                 int port,
                                                 int timeout_ms = 15000);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  int rank() const override { return rank_; }
  int world_size() const override { return world_; }

  void Allgather(const uint8_t* send, size_t send_bytes,
                 const FramesFn& consume) override;
  void ReduceScatter(const uint8_t* send, const size_t* bounds,
                     const FramesFn& reduce) override;

 private:
  SocketTransport(int rank, int world_size) : rank_(rank), world_(world_size) {}

  void Handshake(int port, int timeout_ms);
  // Both collectives: `bounds` null hands every rank whole frames.
  void Exchange(const uint8_t* send, size_t send_bytes, const size_t* bounds,
                const FramesFn& fn);

  int rank_;
  int world_;
  // Root: peer_fds_[r] is the socket to rank r (index 0 unused).
  // Clients: peer_fds_[0] is the socket to the root.
  std::vector<int> peer_fds_;
  // Collective counter; identical on every rank because collectives are
  // globally ordered. Stamped into every frame and validated on receipt.
  uint64_t seq_ = 0;
  // Root: peer_frames_[r - 1] receives rank r's message; clients:
  // peer_frames_[0] receives the root's. Kept across collectives so the
  // receive buffers are allocated once.
  std::vector<std::vector<uint8_t>> peer_frames_;
};

}  // namespace harp
