#include "distributed/socket_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/logging.h"

namespace harp {
namespace {

constexpr uint32_t kWireMagic = 0x31505448u;  // "HTP1" (LE)
constexpr uint16_t kWireVersion = 1;
constexpr uint64_t kMaxWirePayload = 1ull << 30;

enum WireOp : uint16_t {
  kOpHello = 1,
  kOpSumF64 = 2,
  kOpSumI64 = 3,
  kOpMaxF64 = 4,
  kOpBroadcast = 5,
  kOpBarrier = 6,
  kOpBlob = 7,
  kOpResult = 8,
};

#pragma pack(push, 1)
struct WireHeader {
  uint32_t magic = kWireMagic;
  uint16_t version = kWireVersion;
  uint16_t opcode = 0;
  uint32_t rank = 0;
  uint64_t seq = 0;
  uint64_t payload_bytes = 0;
};
#pragma pack(pop)
static_assert(sizeof(WireHeader) == 28, "wire header layout");

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error("SocketTransport: " + what);
}

[[noreturn]] void FailErrno(const std::string& what) {
  Fail(what + ": " + std::strerror(errno));
}

void ReadFull(int fd, void* buf, size_t bytes) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  while (bytes > 0) {
    const ssize_t n = ::recv(fd, p, bytes, 0);
    if (n > 0) {
      p += n;
      bytes -= static_cast<size_t>(n);
    } else if (n == 0) {
      Fail("peer closed connection");
    } else if (errno != EINTR) {
      FailErrno("recv");
    }
  }
}

void WriteFull(int fd, const void* buf, size_t bytes) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  while (bytes > 0) {
    const ssize_t n = ::send(fd, p, bytes, MSG_NOSIGNAL);
    if (n >= 0) {
      p += static_cast<size_t>(n);
      bytes -= static_cast<size_t>(n);
    } else if (errno != EINTR) {
      FailErrno("send");
    }
  }
}

void SendFrame(int fd, uint16_t opcode, uint32_t rank, uint64_t seq,
               const void* payload, size_t bytes) {
  WireHeader h;
  h.opcode = opcode;
  h.rank = rank;
  h.seq = seq;
  h.payload_bytes = bytes;
  WriteFull(fd, &h, sizeof(h));
  if (bytes > 0) WriteFull(fd, payload, bytes);
}

// Reads and validates one frame; payload lands in *payload (resized).
WireHeader RecvFrame(int fd, std::vector<uint8_t>* payload) {
  WireHeader h;
  ReadFull(fd, &h, sizeof(h));
  if (h.magic != kWireMagic) Fail("bad frame magic");
  if (h.version != kWireVersion) Fail("bad frame version");
  if (h.opcode < kOpHello || h.opcode > kOpResult) Fail("bad frame opcode");
  if (h.payload_bytes > kMaxWirePayload) Fail("frame payload too large");
  payload->resize(static_cast<size_t>(h.payload_bytes));
  if (h.payload_bytes > 0) ReadFull(fd, payload->data(), payload->size());
  return h;
}

// Validates a frame the root read from rank `from` during collective `seq`.
void ExpectFrame(const WireHeader& h, uint16_t opcode, int from,
                 uint64_t seq) {
  if (h.opcode != opcode) Fail("unexpected opcode (collective mismatch)");
  if (h.rank != static_cast<uint32_t>(from)) Fail("frame rank mismatch");
  if (h.seq != seq) Fail("frame sequence mismatch");
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void CloseIfOpen(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

SocketTransport::~SocketTransport() {
  for (int& fd : peer_fds_) CloseIfOpen(fd);
}

std::unique_ptr<SocketTransport> SocketTransport::Create(int rank,
                                                         int world_size,
                                                         int port,
                                                         int timeout_ms) {
  HARP_CHECK_GE(world_size, 1);
  HARP_CHECK_GE(rank, 0);
  HARP_CHECK_LT(rank, world_size);
  std::unique_ptr<SocketTransport> t(new SocketTransport(rank, world_size));
  if (world_size > 1) t->Handshake(port, timeout_ms);
  return t;
}

void SocketTransport::Handshake(int port, int timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  if (rank_ == 0) {
    peer_fds_.assign(static_cast<size_t>(world_), -1);
    int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) FailErrno("socket");
    int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      const int err = errno;
      ::close(listen_fd);
      errno = err;
      FailErrno("bind 127.0.0.1:" + std::to_string(port));
    }
    if (::listen(listen_fd, world_) < 0) {
      ::close(listen_fd);
      FailErrno("listen");
    }
    try {
      for (int i = 1; i < world_; ++i) {
        pollfd pfd{listen_fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, timeout_ms);
        if (ready == 0) Fail("timed out waiting for peers");
        if (ready < 0) FailErrno("poll");
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) FailErrno("accept");
        SetNoDelay(fd);
        try {
          std::vector<uint8_t> hello;
          const WireHeader h = RecvFrame(fd, &hello);
          if (h.opcode != kOpHello) Fail("expected hello frame");
          if (h.seq != 0) Fail("hello sequence mismatch");
          if (hello.size() != sizeof(uint32_t)) Fail("bad hello payload");
          uint32_t peer_world = 0;
          std::memcpy(&peer_world, hello.data(), sizeof(peer_world));
          if (peer_world != static_cast<uint32_t>(world_)) {
            Fail("hello world-size mismatch");
          }
          if (h.rank == 0 || h.rank >= static_cast<uint32_t>(world_)) {
            Fail("hello rank out of range");
          }
          if (peer_fds_[h.rank] >= 0) Fail("duplicate hello rank");
          peer_fds_[h.rank] = fd;
        } catch (...) {
          ::close(fd);
          throw;
        }
      }
      // Ack in rank order: the handshake is collective #0.
      for (int r = 1; r < world_; ++r) {
        SendFrame(peer_fds_[static_cast<size_t>(r)], kOpResult, 0,
                  /*seq=*/0, nullptr, 0);
      }
    } catch (...) {
      ::close(listen_fd);
      for (int& fd : peer_fds_) CloseIfOpen(fd);
      throw;
    }
    ::close(listen_fd);
  } else {
    peer_fds_.assign(1, -1);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    int fd = -1;
    for (;;) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) FailErrno("socket");
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        break;
      }
      ::close(fd);
      fd = -1;
      if (std::chrono::steady_clock::now() >= deadline) {
        Fail("timed out connecting to root at 127.0.0.1:" +
             std::to_string(port));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    SetNoDelay(fd);
    peer_fds_[0] = fd;
    try {
      const uint32_t world = static_cast<uint32_t>(world_);
      SendFrame(fd, kOpHello, static_cast<uint32_t>(rank_), /*seq=*/0, &world,
                sizeof(world));
      std::vector<uint8_t> ack;
      const WireHeader h = RecvFrame(fd, &ack);
      ExpectFrame(h, kOpResult, /*from=*/0, /*seq=*/0);
      if (!ack.empty()) Fail("bad hello ack");
    } catch (...) {
      CloseIfOpen(peer_fds_[0]);
      throw;
    }
  }
  seq_ = 1;  // the handshake consumed collective #0
}

void SocketTransport::ClientRound(uint16_t opcode, const void* send,
                                  size_t send_bytes,
                                  std::vector<uint8_t>* result_payload) {
  const uint64_t seq = seq_++;
  SendFrame(peer_fds_[0], opcode, static_cast<uint32_t>(rank_), seq, send,
            send_bytes);
  const WireHeader h = RecvFrame(peer_fds_[0], result_payload);
  ExpectFrame(h, kOpResult, /*from=*/0, seq);
}

template <typename T, typename Op>
void SocketTransport::AllreduceImpl(uint16_t opcode, T* data, size_t count,
                                    Op op) {
  if (world_ == 1) return;
  const size_t bytes = count * sizeof(T);
  if (rank_ == 0) {
    const uint64_t seq = seq_++;
    // Gather and reduce in ascending rank order: rank 0's own buffer is
    // the accumulator, clients fold in as 1, 2, ..., W-1.
    for (int r = 1; r < world_; ++r) {
      const WireHeader h =
          RecvFrame(peer_fds_[static_cast<size_t>(r)], &scratch_);
      ExpectFrame(h, opcode, r, seq);
      if (scratch_.size() != bytes) Fail("allreduce payload size mismatch");
      const T* src = reinterpret_cast<const T*>(scratch_.data());
      for (size_t i = 0; i < count; ++i) op(data[i], src[i]);
    }
    for (int r = 1; r < world_; ++r) {
      SendFrame(peer_fds_[static_cast<size_t>(r)], kOpResult, 0, seq, data,
                bytes);
    }
  } else {
    ClientRound(opcode, data, bytes, &scratch_);
    if (scratch_.size() != bytes) Fail("allreduce result size mismatch");
    std::memcpy(data, scratch_.data(), bytes);
  }
}

void SocketTransport::AllreduceSum(double* data, size_t count) {
  AllreduceImpl(kOpSumF64, data, count,
                [](double& a, double b) { a += b; });
}

void SocketTransport::AllreduceSum(int64_t* data, size_t count) {
  AllreduceImpl(kOpSumI64, data, count,
                [](int64_t& a, int64_t b) { a += b; });
}

void SocketTransport::AllreduceMax(double* data, size_t count) {
  AllreduceImpl(kOpMaxF64, data, count,
                [](double& a, double b) { a = std::max(a, b); });
}

void SocketTransport::Broadcast(void* data, size_t bytes, int root) {
  if (world_ == 1) return;
  HARP_CHECK_GE(root, 0);
  HARP_CHECK_LT(root, world_);
  if (rank_ == 0) {
    const uint64_t seq = seq_++;
    for (int r = 1; r < world_; ++r) {
      const WireHeader h =
          RecvFrame(peer_fds_[static_cast<size_t>(r)], &scratch_);
      ExpectFrame(h, kOpBroadcast, r, seq);
      if (r == root) {
        if (scratch_.size() != bytes) Fail("broadcast payload size mismatch");
        std::memcpy(data, scratch_.data(), bytes);
      } else if (!scratch_.empty()) {
        Fail("unexpected broadcast payload");
      }
    }
    for (int r = 1; r < world_; ++r) {
      SendFrame(peer_fds_[static_cast<size_t>(r)], kOpResult, 0, seq, data,
                bytes);
    }
  } else {
    const bool is_source = rank_ == root;
    ClientRound(kOpBroadcast, is_source ? data : nullptr,
                is_source ? bytes : 0, &scratch_);
    if (scratch_.size() != bytes) Fail("broadcast result size mismatch");
    if (!is_source) std::memcpy(data, scratch_.data(), bytes);
  }
}

void SocketTransport::Barrier() {
  if (world_ == 1) return;
  if (rank_ == 0) {
    const uint64_t seq = seq_++;
    for (int r = 1; r < world_; ++r) {
      const WireHeader h =
          RecvFrame(peer_fds_[static_cast<size_t>(r)], &scratch_);
      ExpectFrame(h, kOpBarrier, r, seq);
      if (!scratch_.empty()) Fail("unexpected barrier payload");
    }
    for (int r = 1; r < world_; ++r) {
      SendFrame(peer_fds_[static_cast<size_t>(r)], kOpResult, 0, seq, nullptr,
                0);
    }
  } else {
    ClientRound(kOpBarrier, nullptr, 0, &scratch_);
    if (!scratch_.empty()) Fail("barrier result not empty");
  }
}

void SocketTransport::ReduceBlobs(const uint8_t* send, size_t send_bytes,
                                  const BlobReduceFn& reduce,
                                  std::vector<uint8_t>* result) {
  if (world_ == 1) {
    Frames frames;
    frames.emplace_back(send, send_bytes);
    reduce(frames, result);
    return;
  }
  if (rank_ == 0) {
    const uint64_t seq = seq_++;
    std::vector<std::vector<uint8_t>> blobs(static_cast<size_t>(world_));
    for (int r = 1; r < world_; ++r) {
      const WireHeader h =
          RecvFrame(peer_fds_[static_cast<size_t>(r)],
                    &blobs[static_cast<size_t>(r)]);
      ExpectFrame(h, kOpBlob, r, seq);
    }
    Frames frames;
    frames.reserve(static_cast<size_t>(world_));
    frames.emplace_back(send, send_bytes);
    for (int r = 1; r < world_; ++r) {
      const auto& blob = blobs[static_cast<size_t>(r)];
      frames.emplace_back(blob.data(), blob.size());
    }
    reduce(frames, result);
    for (int r = 1; r < world_; ++r) {
      SendFrame(peer_fds_[static_cast<size_t>(r)], kOpResult, 0, seq,
                result->data(), result->size());
    }
  } else {
    ClientRound(kOpBlob, send, send_bytes, result);
  }
}

}  // namespace harp
