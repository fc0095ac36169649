#include "distributed/socket_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

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
constexpr uint16_t kWireVersion = 3;
constexpr uint64_t kMaxWirePayload = 1ull << 30;

enum WireOp : uint16_t {
  kOpHello = 1,
  kOpBlob = 2,
  kOpResult = 3,
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

// Sends one message whose payload is the concatenation of `pieces`.
void SendFrame(int fd, uint16_t opcode, uint32_t rank, uint64_t seq,
               const Transport::Frames& pieces) {
  WireHeader h;
  h.opcode = opcode;
  h.rank = rank;
  h.seq = seq;
  for (const auto& piece : pieces) h.payload_bytes += piece.second;
  WriteFull(fd, &h, sizeof(h));
  for (const auto& piece : pieces) {
    if (piece.second > 0) WriteFull(fd, piece.first, piece.second);
  }
}

void SendFrame(int fd, uint16_t opcode, uint32_t rank, uint64_t seq,
               const void* payload, size_t bytes) {
  SendFrame(fd, opcode, rank, seq,
            {{static_cast<const uint8_t*>(payload), bytes}});
}

// Splits a payload that starts with `count` u64 sizes into views of the
// consecutive pieces that follow them (appended to *out); throws unless
// the sizes add up to the rest of the payload exactly.
void SplitSized(const std::vector<uint8_t>& payload, int count,
                Transport::Frames* out) {
  const size_t table = static_cast<size_t>(count) * sizeof(uint64_t);
  if (payload.size() < table) Fail("short size table");
  size_t at = table;
  for (int i = 0; i < count; ++i) {
    uint64_t bytes = 0;
    std::memcpy(&bytes, payload.data() + static_cast<size_t>(i) * sizeof(bytes),
                sizeof(bytes));
    if (bytes > payload.size() - at) Fail("piece size out of range");
    out->emplace_back(payload.data() + at, static_cast<size_t>(bytes));
    at += static_cast<size_t>(bytes);
  }
  if (at != payload.size()) Fail("piece sizes do not match the payload");
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
    peer_frames_.resize(static_cast<size_t>(world_) - 1);
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
    peer_frames_.resize(1);
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

void SocketTransport::Exchange(const uint8_t* send, size_t send_bytes,
                               const size_t* bounds, const FramesFn& fn) {
  const uint64_t seq = seq_++;
  const size_t world = static_cast<size_t>(world_);
  Frames frames;
  frames.reserve(world);
  if (world_ == 1) {
    frames.emplace_back(send, send_bytes);
    fn(frames);
    return;
  }
  std::vector<uint64_t> sizes(world);
  if (rank_ == 0) {
    // segments[w] views rank w's frame cut at its bounds (one whole piece
    // for Allgather).
    std::vector<Frames> segments(world);
    for (size_t s = 0; s < world; ++s) {
      segments[0].emplace_back(bounds == nullptr ? send : send + bounds[s],
                               bounds == nullptr
                                   ? send_bytes
                                   : bounds[s + 1] - bounds[s]);
      if (bounds == nullptr) break;
    }
    for (size_t r = 1; r < world; ++r) {
      std::vector<uint8_t>& blob = peer_frames_[r - 1];
      const WireHeader h = RecvFrame(peer_fds_[r], &blob);
      ExpectFrame(h, kOpBlob, static_cast<int>(r), seq);
      if (bounds == nullptr) {
        segments[r].emplace_back(blob.data(), blob.size());
      } else {
        SplitSized(blob, world_, &segments[r]);
      }
    }
    // Rank r's frames: piece r of every rank's frame (piece 0 for
    // Allgather), after their sizes.
    const auto piece = [&](size_t w, size_t r) {
      return segments[w][bounds == nullptr ? 0 : r];
    };
    for (size_t r = 1; r < world; ++r) {
      Frames message;
      message.emplace_back(reinterpret_cast<const uint8_t*>(sizes.data()),
                           world * sizeof(uint64_t));
      for (size_t w = 0; w < world; ++w) {
        sizes[w] = piece(w, r).second;
        message.push_back(piece(w, r));
      }
      SendFrame(peer_fds_[r], kOpResult, 0, seq, message);
    }
    for (size_t w = 0; w < world; ++w) frames.push_back(piece(w, 0));
  } else {
    Frames message;
    if (bounds != nullptr) {
      for (size_t s = 0; s < world; ++s) sizes[s] = bounds[s + 1] - bounds[s];
      message.emplace_back(reinterpret_cast<const uint8_t*>(sizes.data()),
                           world * sizeof(uint64_t));
    }
    message.emplace_back(send, send_bytes);
    SendFrame(peer_fds_[0], kOpBlob, static_cast<uint32_t>(rank_), seq,
              message);
    std::vector<uint8_t>& result = peer_frames_[0];
    const WireHeader h = RecvFrame(peer_fds_[0], &result);
    ExpectFrame(h, kOpResult, /*from=*/0, seq);
    SplitSized(result, world_, &frames);
  }
  fn(frames);
}

void SocketTransport::Allgather(const uint8_t* send, size_t send_bytes,
                                const FramesFn& consume) {
  Exchange(send, send_bytes, nullptr, consume);
}

void SocketTransport::ReduceScatter(const uint8_t* send, const size_t* bounds,
                                    const FramesFn& reduce) {
  Exchange(send, bounds[world_], bounds, reduce);
}

}  // namespace harp
