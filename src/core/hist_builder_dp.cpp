#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/logging.h"
#include "common/timer.h"
#include "core/hist_builder.h"

namespace harp {

void FillFeatureBlocks(uint32_t num_features, int feature_blk_size,
                       std::vector<Range>* out) {
  out->clear();
  const uint32_t step = feature_blk_size <= 0
                            ? num_features
                            : static_cast<uint32_t>(feature_blk_size);
  for (uint32_t begin = 0; begin < num_features; begin += step) {
    out->emplace_back(begin, std::min(num_features, begin + step));
  }
}

std::vector<Range> MakeFeatureBlocks(uint32_t num_features,
                                     int feature_blk_size) {
  std::vector<Range> blocks;
  FillFeatureBlocks(num_features, feature_blk_size, &blocks);
  return blocks;
}

size_t DpNodeBlock(const BuildContext& ctx, size_t batch) {
  if (ctx.params.node_blk_size > 0) {
    return static_cast<size_t>(ctx.params.node_blk_size);
  }
  const size_t cell_bytes =
      ctx.quant != nullptr ? sizeof(int64_t) : sizeof(GHPair);
  const size_t per_node = static_cast<size_t>(ctx.pool.num_threads()) *
                          ctx.matrix.TotalBins() * cell_bytes;
  const size_t fit = kDpReplicaBudgetBytes / std::max<size_t>(1, per_node);
  return std::clamp<size_t>(fit, 1, std::max<size_t>(1, batch));
}

void HistBuilderDP::BeginBuild(const BuildContext& ctx) {
  total_bins_ = ctx.matrix.TotalBins();
  threads_ = ctx.pool.num_threads();
  quant_ = ctx.quant;
  simd_ = ctx.simd;
  // The dirty ledger tracks slot intervals of ONE storage array; letting a
  // builder instance alternate between f64 and int64 replicas would leave
  // stale garbage in whichever array the ledger was not tracking.
  const int mode = quant_ != nullptr ? 1 : 0;
  HARP_CHECK(quant_mode_ == -1 || quant_mode_ == mode)
      << "a HistBuilderDP instance cannot switch histogram storage modes";
  quant_mode_ = mode;
  FillFeatureBlocks(ctx.matrix.num_features(), ctx.params.feature_blk_size,
                    &feature_blocks_);
  // Kernel selected once per Build call; one feature block drops the
  // fb-range indirection from the inner loop.
  km_ = MakeHistKernelMatrix(ctx.matrix, ctx.partitioner,
                             quant_ != nullptr ? quant_->packed.data()
                                               : nullptr);
  const bool full_features = feature_blocks_.size() == 1;
  if (quant_ != nullptr) {
    qkernel_ = SelectQuantHistKernel(ctx.partitioner.use_membuf(),
                                     full_features, simd_);
  } else {
    kernel_ = SelectHistKernel(ctx.partitioner.use_membuf(), full_features,
                               simd_);
  }
}

void HistBuilderDP::StageBlock(const BuildContext& ctx,
                               std::span<const int> nodes,
                               size_t block_begin, size_t block_size) {
  block_ = nodes.subspan(block_begin,
                         std::min(block_size, nodes.size() - block_begin));
  const size_t block_nodes = block_.size();
  replica_stats_.max_block_nodes =
      std::max(replica_stats_.max_block_nodes, block_nodes);

  // Row-block task list: (node index in block, row range).
  int64_t total_rows = 0;
  for (int node : block_) total_rows += ctx.partitioner.NodeSize(node);
  const int64_t auto_blk =
      std::max<int64_t>(1, total_rows / std::max(1, threads_));
  const int64_t row_blk = ctx.params.row_blk_size > 0
                              ? ctx.params.row_blk_size
                              : auto_blk;
  tasks_.clear();
  if (sources_.size() < block_nodes) sources_.resize(block_nodes);
  for (size_t i = 0; i < block_nodes; ++i) {
    sources_[i] = MakeHistRowSource(ctx.partitioner, block_[i]);
    const uint32_t n = ctx.partitioner.NodeSize(block_[i]);
    for (uint32_t begin = 0; begin < n;
         begin += static_cast<uint32_t>(row_blk)) {
      tasks_.push_back(RowTask{
          static_cast<uint32_t>(i), begin,
          std::min(n, begin + static_cast<uint32_t>(row_blk))});
    }
  }

  // Per-thread replicas covering the node block. Replica layout:
  // [thread][local_node][total_bins]. Storage persists across node
  // blocks and trees under the invariant that it is all-zero outside
  // Build, so no per-block assign/zeroing happens here — only growth.
  // The stride is padded to whole kHistAlignBytes lines (a multiple of 8
  // slots covers both cell types) so thread boundaries never share a
  // cache line; the padding slots are never written and stay zero.
  content_slots_ = block_nodes * total_bins_;
  replica_stride_ = AlignedSlotCount<int64_t>(content_slots_);
  const size_t needed = static_cast<size_t>(threads_) * replica_stride_;
  if (quant_ != nullptr) {
    if (qreplicas_.size() < needed) {
      qreplicas_.resize(needed, 0);
      ++replica_stats_.grow_events;
    }
  } else if (replicas_.size() < needed) {
    replicas_.resize(needed, GHPair{});
    ++replica_stats_.grow_events;
  }
  touched_.Reset(threads_, block_nodes);
  ++replica_stats_.node_blocks;
  replica_stats_.regions_total +=
      static_cast<int64_t>(threads_) * static_cast<int64_t>(block_nodes);
}

void HistBuilderDP::ClearThread(int thread_id) {
  // Lazy clear: wipe the dirty leftovers of previous blocks that fall
  // inside THIS thread's replica range, before any accumulation. Other
  // threads never write this range, so no synchronization is needed,
  // and the clear costs no extra parallel region.
  const size_t own_begin = static_cast<size_t>(thread_id) * replica_stride_;
  const size_t own_end = own_begin + replica_stride_;
  for (const auto& [d_begin, d_end] : dirty_) {
    const size_t lo = std::max(d_begin, own_begin);
    const size_t hi = std::min(d_end, own_end);
    if (lo < hi) {
      if (quant_ != nullptr) {
        ClearHistogramI64(qreplicas_.data() + lo, hi - lo);
      } else {
        ClearHistogram(replicas_.data() + lo, hi - lo);
      }
    }
  }
}

void HistBuilderDP::RunRowTask(const BuildContext& ctx, int thread_id,
                               size_t task_index) {
  (void)ctx;
  const RowTask& task = tasks_[task_index];
  touched_.Mark(thread_id, task.local_node);
  const size_t slot0 =
      static_cast<size_t>(thread_id) * replica_stride_ +
      task.local_node * total_bins_;
  // Feature-block tiling: re-reads the row block once per feature
  // block but confines writes to the block's histogram region.
  if (quant_ != nullptr) {
    int64_t* node_hist = qreplicas_.data() + slot0;
    for (const Range& fb : feature_blocks_) {
      qkernel_(km_, sources_[task.local_node], task.begin, task.end,
               node_hist, fb);
    }
  } else {
    GHPair* node_hist = replicas_.data() + slot0;
    for (const Range& fb : feature_blocks_) {
      kernel_(km_, sources_[task.local_node], task.begin, task.end,
              node_hist, fb);
    }
  }
}

void HistBuilderDP::PrepReduce(const BuildContext& ctx) {
  const size_t block_nodes = block_.size();
  if (dst_.size() < block_nodes) dst_.resize(block_nodes);
  if (contributors_.size() < block_nodes) contributors_.resize(block_nodes);
  for (size_t i = 0; i < block_nodes; ++i) {
    dst_[i] = ctx.hists.Get(block_[i]);
    contributors_[i] = touched_.ThreadsTouching(i);
    replica_stats_.regions_touched +=
        static_cast<int64_t>(contributors_[i].size());
  }
}

void HistBuilderDP::ReduceRange(int64_t begin, int64_t end) {
  // Deterministic reduction, blocked: each thread overwrites contiguous
  // slot runs of the pool histogram (whose recycled contents are
  // unspecified) with the first contributor's replica, then adds the rest
  // with AddHistogram (vectorizable) in ascending thread order per slot.
  // That is the order of summing onto a zeroed buffer, bit for bit: a
  // replica slot is a sum started at +0.0, so it is never -0.0, and
  // +0.0 + x == x for every other value. Replicas of threads that never
  // touched a node are skipped; a node no thread touched is cleared.
  int64_t s = begin;
  while (s < end) {
    const size_t local_node = static_cast<size_t>(s) / total_bins_;
    const size_t slot = static_cast<size_t>(s) % total_bins_;
    const size_t len =
        std::min(static_cast<size_t>(end - s), total_bins_ - slot);
    GHPair* out = dst_[local_node] + slot;
    const std::vector<int>& contrib = contributors_[local_node];
    if (contrib.empty()) {
      ClearHistogram(out, len);
    } else {
      const auto replica = [&](int t) {
        return replicas_.data() + static_cast<size_t>(t) * replica_stride_ +
               static_cast<size_t>(s);
      };
      std::memcpy(out, replica(contrib[0]), len * sizeof(GHPair));
      for (size_t c = 1; c < contrib.size(); ++c) {
        AddHistogram(out, replica(contrib[c]), len);
      }
    }
    s += static_cast<int64_t>(len);
  }
}

void HistBuilderDP::ReduceRangeQuant(int64_t begin, int64_t end) {
  // Quantized reduction: per contiguous run, sum the contributors' int64
  // cells into a stack buffer and dequantize straight into the pool's f64
  // histogram. Integer addition is order-independent and dequantization is
  // exact (integer x power of two), so the result is bit-identical for any
  // thread count, schedule, and kernel table. Every slot of the pool
  // histogram is overwritten; a node no thread touched is cleared.
  constexpr size_t kChunk = 1024;
  alignas(kHistAlignBytes) int64_t tmp[kChunk];
  const int simd = static_cast<int>(simd_);
  int64_t s = begin;
  while (s < end) {
    const size_t local_node = static_cast<size_t>(s) / total_bins_;
    const size_t slot = static_cast<size_t>(s) % total_bins_;
    const size_t len = std::min(
        {static_cast<size_t>(end - s), total_bins_ - slot, kChunk});
    const std::vector<int>& contrib = contributors_[local_node];
    if (!contrib.empty()) {
      std::memcpy(tmp,
                  qreplicas_.data() +
                      static_cast<size_t>(contrib[0]) * replica_stride_ +
                      static_cast<size_t>(s),
                  len * sizeof(int64_t));
      for (size_t c = 1; c < contrib.size(); ++c) {
        AddHistogramI64(tmp,
                        qreplicas_.data() +
                            static_cast<size_t>(contrib[c]) * replica_stride_ +
                            static_cast<size_t>(s),
                        len, simd);
      }
      DequantizeHistogram(tmp, dst_[local_node] + slot, len, quant_->scales,
                          simd);
    } else {
      ClearHistogram(dst_[local_node] + slot, len);
    }
    s += static_cast<int64_t>(len);
  }
}

void HistBuilderDP::UpdateLedger() {
  // Update the dirty ledger: everything inside the current layout's
  // thread ranges was cleared at region start, so only intervals beyond
  // them survive; regions touched in this block become newly dirty.
  const size_t block_nodes = block_.size();
  const size_t covered = static_cast<size_t>(threads_) * replica_stride_;
  std::erase_if(dirty_, [covered](const std::pair<size_t, size_t>& d) {
    return d.second <= covered;
  });
  for (auto& d : dirty_) d.first = std::max(d.first, covered);
  for (int t = 0; t < threads_; ++t) {
    for (size_t i = 0; i < block_nodes; ++i) {
      if (touched_.Touched(t, i)) {
        const size_t begin =
            static_cast<size_t>(t) * replica_stride_ + i * total_bins_;
        dirty_.emplace_back(begin, begin + total_bins_);
      }
    }
  }
}

int64_t HistBuilderDP::Build(const BuildContext& ctx,
                             std::span<const int> nodes) {
  BeginBuild(ctx);
  int64_t reduce_ns = 0;

  // One "parallel for" per node block: the block trades fewer barriers
  // against larger per-thread replicas (Section IV-D).
  const size_t step = DpNodeBlock(ctx, nodes.size());
  for (size_t begin = 0; begin < nodes.size(); begin += step) {
    StageBlock(ctx, nodes, begin, step);

    std::atomic<int64_t> cursor{0};
    ctx.pool.RunOnAllThreads([&](int thread_id) {
      ClearThread(thread_id);
      for (;;) {
        const int64_t t = cursor.fetch_add(1, std::memory_order_relaxed);
        if (t >= static_cast<int64_t>(tasks_.size())) break;
        RunRowTask(ctx, thread_id, static_cast<size_t>(t));
        ctx.pool.CountTask(thread_id);
      }
    });

    const Stopwatch reduce_watch;
    PrepReduce(ctx);
    // The reduce domain is the CONTENT slots only — the alignment padding
    // beyond them belongs to no node.
    ctx.pool.ParallelFor(static_cast<int64_t>(content_slots_),
                         [&](int64_t b, int64_t e, int) {
                           quant_ != nullptr ? ReduceRangeQuant(b, e)
                                             : ReduceRange(b, e);
                         });
    reduce_ns += reduce_watch.ElapsedNs();

    UpdateLedger();
  }
  return reduce_ns;
}

void HistBuilderDP::BuildInRegion(const BuildContext& ctx,
                                  std::span<const int> nodes,
                                  ThreadPool::FusedRegion& region,
                                  int thread_id, int64_t* reduce_ns) {
  const size_t step = DpNodeBlock(ctx, nodes.size());
  const size_t num_blocks =
      nodes.empty() ? 0 : (nodes.size() + step - 1) / step;

  // Leading barrier: serial setup + first block staged before any thread
  // starts accumulating. All subsequent staging piggybacks on the dirty-
  // ledger barrier of the previous block, so the per-block phase count
  // matches the region-per-phase path's launch count one-for-one.
  region.Barrier(thread_id, [&] {
    BeginBuild(ctx);
    if (num_blocks > 0) StageBlock(ctx, nodes, 0, step);
  });

  for (size_t b = 0; b < num_blocks; ++b) {
    ClearThread(thread_id);
    region.ForDynamic(thread_id, static_cast<int64_t>(tasks_.size()), 1,
                      [&](int64_t begin, int64_t end, int tid) {
                        for (int64_t t = begin; t < end; ++t) {
                          RunRowTask(ctx, tid, static_cast<size_t>(t));
                        }
                      });
    region.Barrier(thread_id, [&] {
      reduce_start_ns_ = NowNs();
      PrepReduce(ctx);
    });
    region.ForStatic(thread_id, static_cast<int64_t>(content_slots_),
                     [&](int64_t rb, int64_t re, int) {
                       quant_ != nullptr ? ReduceRangeQuant(rb, re)
                                         : ReduceRange(rb, re);
                     });
    region.Barrier(thread_id, [&] {
      *reduce_ns += NowNs() - reduce_start_ns_;
      UpdateLedger();
      if (b + 1 < num_blocks) StageBlock(ctx, nodes, (b + 1) * step, step);
    });
  }
}

}  // namespace harp
