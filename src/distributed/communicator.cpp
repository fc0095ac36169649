#include "distributed/communicator.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>

#include "common/logging.h"
#include "common/timer.h"
#include "distributed/inprocess_transport.h"
#include "distributed/sparse_hist.h"
#include "parallel/thread_pool.h"

namespace harp {

namespace {

[[noreturn]] void Fail(const char* what) {
  throw std::runtime_error(std::string("Communicator: ") + what);
}

struct Sum {
  template <typename T>
  void operator()(T& acc, const T& v) const { acc += v; }
};

// Frames are byte buffers, so elements move in and out through memcpy.
template <typename T>
T Load(const uint8_t* bytes, size_t i) {
  T v{};
  std::memcpy(&v, bytes + i * sizeof(T), sizeof(T));
  return v;
}

// A SplitInfo on the wire: its fields, packed, so no padding byte is sent.
// Scalars only: a packed member of class type (GHPair) would be constructed
// at a misaligned address.
#pragma pack(push, 1)
struct SplitRecord {
  double gain;
  uint32_t feature;
  uint32_t bin;
  uint8_t default_left;
  double left_g, left_h, right_g, right_h;
};
#pragma pack(pop)

SplitRecord ToRecord(const SplitInfo& s) {
  return SplitRecord{s.gain,         s.feature,    s.bin,
                     s.default_left, s.left_sum.g, s.left_sum.h,
                     s.right_sum.g,  s.right_sum.h};
}

SplitInfo FromRecord(const SplitRecord& r) {
  SplitInfo s;
  s.gain = r.gain;
  s.feature = r.feature;
  s.bin = r.bin;
  s.default_left = r.default_left != 0;
  s.left_sum = GHPair{r.left_g, r.left_h};
  s.right_sum = GHPair{r.right_g, r.right_h};
  return s;
}

// Runs fn(begin, end) over [0, n), split over `pool` when it has threads
// to spare.
template <typename Fn>
void ForRange(ThreadPool* pool, size_t n, Fn&& fn) {
  if (pool == nullptr || pool->num_threads() == 1) {
    fn(size_t{0}, n);
    return;
  }
  pool->ParallelFor(static_cast<int64_t>(n),
                    [&](int64_t begin, int64_t end, int) {
                      fn(static_cast<size_t>(begin), static_cast<size_t>(end));
                    });
}

}  // namespace

template <typename T, typename Op>
void Communicator::Allreduce(T* data, size_t count, Op op) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t bytes = count * sizeof(T);
  ++stats_.allreduce_calls;
  stats_.allreduce_bytes += static_cast<int64_t>(bytes) * (world_size() - 1);
  if (world_size() == 1) return;
  const Stopwatch watch;
  // Peers read `data` until the collective returns, so the fold writes a
  // scratch buffer and `data` changes only afterwards.
  fold_result_.resize(bytes);
  transport_->Allgather(
      reinterpret_cast<const uint8_t*>(data), bytes,
      [&](const Transport::Frames& frames) {
        for (const auto& frame : frames) {
          if (frame.second != bytes) Fail("allreduce frame size mismatch");
        }
        for (size_t i = 0; i < count; ++i) {
          T acc = Load<T>(frames[0].first, i);
          for (size_t r = 1; r < frames.size(); ++r) {
            op(acc, Load<T>(frames[r].first, i));
          }
          std::memcpy(fold_result_.data() + i * sizeof(T), &acc, sizeof(T));
        }
      });
  if (bytes > 0) std::memcpy(data, fold_result_.data(), bytes);
  stats_.allreduce_ns += watch.ElapsedNs();
}

void Communicator::AllreduceSum(GHPair* data, size_t count) {
  Allreduce(data, count, Sum{});
}

void Communicator::AllreduceSum(double* data, size_t count) {
  Allreduce(data, count, Sum{});
}

void Communicator::AllreduceSum(int64_t* data, size_t count) {
  Allreduce(data, count, Sum{});
}

void Communicator::AllreduceMax(double* data, size_t count) {
  Allreduce(data, count, [](double& a, double b) { a = std::max(a, b); });
}

void Communicator::AllreduceBestSplits(SplitInfo* splits, size_t count) {
  std::vector<SplitRecord> records(count);
  for (size_t i = 0; i < count; ++i) records[i] = ToRecord(splits[i]);
  Allreduce(records.data(), count,
            [](SplitRecord& best, const SplitRecord& s) {
              if (FromRecord(s).BetterThan(FromRecord(best))) best = s;
            });
  for (size_t i = 0; i < count; ++i) splits[i] = FromRecord(records[i]);
}

void Communicator::ReduceScatterHistograms(GHPair* const* hists,
                                           uint32_t num_hists, uint32_t cells,
                                           const uint32_t* cell_bounds,
                                           const HistExchangeOpts& opts) {
  if (num_hists == 0) return;
  ++stats_.hist_exchanges;
  const int world = world_size();
  if (world == 1) return;  // the sum over one rank is the input
  const Stopwatch watch;
  const size_t me = static_cast<size_t>(rank());
  const uint32_t own_begin = cell_bounds[me];
  const uint32_t own_cells = cell_bounds[me + 1] - own_begin;
  HARP_CHECK_EQ(cell_bounds[world], cells);
  const int64_t own_dense = DenseHistBytes(num_hists, own_cells);
  stats_.hist_dense_bytes += DenseHistBytes(num_hists, cells) - own_dense +
                             (world - 1) * own_dense;

  // Encode: segment s holds every histogram's cells of rank s's range. This
  // rank's own segment stays empty: its fold reads its own cells in place.
  send_frame_.clear();
  send_bounds_.assign(1, 0);
  segment_hists_.resize(num_hists);
  SparseHistFormat fmt;
  fmt.quant = opts.quant;
  fmt.scales = opts.scales;
  for (int s = 0; s < world; ++s) {
    const uint32_t begin = cell_bounds[s];
    const uint32_t n = cell_bounds[s + 1] - begin;
    if (static_cast<size_t>(s) != me && n > 0) {
      if (opts.sparse) {
        for (uint32_t h = 0; h < num_hists; ++h) {
          segment_hists_[h] = hists[h] + begin;
        }
        EncodeSparseHist(segment_hists_.data(), num_hists, n, fmt,
                         &send_frame_, opts.pool);
      } else {
        const size_t bytes = static_cast<size_t>(n) * sizeof(GHPair);
        const size_t at = send_frame_.size();
        send_frame_.resize(at + num_hists * bytes);
        for (uint32_t h = 0; h < num_hists; ++h) {
          std::memcpy(send_frame_.data() + at + h * bytes, hists[h] + begin,
                      bytes);
        }
      }
    }
    send_bounds_.push_back(send_frame_.size());
  }
  stats_.hist_encode_ns += watch.ElapsedNs();
  stats_.hist_wire_bytes += static_cast<int64_t>(send_frame_.size());

  // Fold this rank's segment of every peer's frame into its own cells.
  owned_hists_.resize(num_hists);
  for (uint32_t h = 0; h < num_hists; ++h) {
    owned_hists_[h] = hists[h] + own_begin;
  }
  transport_->ReduceScatter(
      send_frame_.data(), send_bounds_.data(),
      [&](const Transport::Frames& frames) {
        const Stopwatch fold_watch;
        for (const auto& frame : frames) {
          stats_.hist_wire_bytes += static_cast<int64_t>(frame.second);
        }
        if (own_cells == 0) return;
        if (opts.sparse) {
          FoldSparseHist(frames, me, owned_hists_.data(), num_hists, own_cells,
                         fmt, opts.pool);
        } else {
          // Rank 0's cell, then += each higher rank's, this rank's read in
          // place: the serial rank-ordered fold under any split.
          const size_t total = static_cast<size_t>(num_hists) * own_cells;
          for (size_t w = 0; w < frames.size(); ++w) {
            if (w != me && frames[w].second != total * sizeof(GHPair)) {
              Fail("histogram segment size mismatch");
            }
          }
          ForRange(opts.pool, total, [&](size_t begin, size_t end) {
            size_t h = begin / own_cells;
            size_t c = begin % own_cells;
            for (size_t i = begin; i < end; ++i) {
              GHPair& cell = owned_hists_[h][c];
              GHPair acc = me == 0 ? cell : Load<GHPair>(frames[0].first, i);
              for (size_t w = 1; w < frames.size(); ++w) {
                acc += w == me ? cell : Load<GHPair>(frames[w].first, i);
              }
              cell = acc;
              if (++c == own_cells) {
                c = 0;
                ++h;
              }
            }
          });
        }
        stats_.hist_fold_ns += fold_watch.ElapsedNs();
      });
  stats_.hist_exchange_ns += watch.ElapsedNs();
}

SimulatedCluster::SimulatedCluster(int world_size) : world_(world_size) {
  HARP_CHECK_GE(world_size, 1);
}

void SimulatedCluster::Run(const std::function<void(Communicator&)>& fn) {
  total_stats_ = CommStats{};
  InProcessCluster cluster(world_);
  std::vector<Communicator> comms;
  comms.reserve(static_cast<size_t>(world_));
  for (int rank = 0; rank < world_; ++rank) {
    comms.push_back(Communicator(cluster.transport(rank)));
  }

  std::exception_ptr first_exception;
  std::mutex exception_mutex;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(world_));
  for (int rank = 0; rank < world_; ++rank) {
    workers.emplace_back([&, rank] {
      try {
        fn(comms[static_cast<size_t>(rank)]);
      } catch (...) {
        std::lock_guard<std::mutex> lock(exception_mutex);
        if (!first_exception) first_exception = std::current_exception();
      }
    });
  }
  for (auto& worker : workers) worker.join();

  for (const Communicator& comm : comms) total_stats_ += comm.stats();
  if (first_exception) std::rethrow_exception(first_exception);
}

}  // namespace harp
