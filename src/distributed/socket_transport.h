// Multi-process Transport backend over loopback TCP.
//
// W real processes form a star through rank 0: every ReduceBlobs is one
// Blob frame from each client to the root — which runs the reduce over the
// frames in ascending rank order (its own first) — followed by one Result
// frame back to every client. The frames reach the reduce in the same
// order as in the in-process backend, so a multi-process run produces the
// same model file byte for byte (CI launches world=3 processes via
// `harp_cli dist-train` and diffs the models).
//
// Wire protocol (version 2): every message is a fixed 28-byte header +
// payload. The header carries magic, version, opcode (Hello, Blob or
// Result), sender rank and a per-transport sequence number that counts
// collectives; every receiver validates all of them (plus a payload-size
// cap) and throws std::runtime_error on any mismatch — malformed or
// out-of-protocol frames must never be silently reduced into a model.
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

  void ReduceBlobs(const uint8_t* send, size_t send_bytes,
                   const BlobReduceFn& reduce,
                   std::vector<uint8_t>* result) override;

 private:
  SocketTransport(int rank, int world_size) : rank_(rank), world_(world_size) {}

  void Handshake(int port, int timeout_ms);

  int rank_;
  int world_;
  // Root: peer_fds_[r] is the socket to rank r (index 0 unused).
  // Clients: peer_fds_[0] is the socket to the root.
  std::vector<int> peer_fds_;
  // Collective counter; identical on every rank because collectives are
  // globally ordered. Stamped into every frame and validated on receipt.
  uint64_t seq_ = 0;
  // Root: peer_frames_[r - 1] receives rank r's frame, kept across
  // collectives so the receive buffers are allocated once.
  std::vector<std::vector<uint8_t>> peer_frames_;
};

}  // namespace harp
