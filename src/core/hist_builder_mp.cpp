#include <algorithm>

#include "common/logging.h"
#include "core/hist_builder.h"

namespace harp {

size_t HistBuilderMP::StageTasks(const BuildContext& ctx,
                                 std::span<const int> nodes) {
  FillFeatureBlocks(ctx.matrix.num_features(), ctx.params.feature_blk_size,
                    &feature_blocks_);
  const size_t nstep = MpNodeBlock(ctx.params);
  const size_t cap_before = feature_blocks_.capacity() +
                            node_blocks_.capacity() + tasks_.capacity();
  node_blocks_.clear();
  for (size_t begin = 0; begin < nodes.size(); begin += nstep) {
    node_blocks_.push_back(
        nodes.subspan(begin, std::min(nstep, nodes.size() - begin)));
  }

  // Kernel selected once per staging: with a single feature block the fb
  // indirection drops out of the inner loop.
  quant_ = ctx.quant;
  simd_ = ctx.simd;
  total_bins_ = ctx.matrix.TotalBins();
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

  // Task = one <node_blk x feature_blk> cube. Distinct tasks write
  // disjoint regions of the shared histograms, so no replicas and no
  // reduction are needed; the price is one re-read of the node's rows per
  // feature block.
  tasks_.clear();
  for (uint32_t nb = 0; nb < node_blocks_.size(); ++nb) {
    for (uint32_t fb = 0; fb < feature_blocks_.size(); ++fb) {
      tasks_.push_back(Task{nb, fb});
    }
  }

  // Histogram pointers and row sources resolved up front: Get() takes the
  // pool lock, and resolving inside tasks would serialize them.
  if (hist_of_.size() < nodes.size()) hist_of_.resize(nodes.size());
  if (source_of_.size() < nodes.size()) source_of_.resize(nodes.size());
  if (rows_of_.size() < nodes.size()) rows_of_.resize(nodes.size());
  const size_t pos_needed = static_cast<size_t>(
      nodes.empty() ? 0 : 1 + *std::max_element(nodes.begin(), nodes.end()));
  if (node_pos_.size() < pos_needed) node_pos_.resize(pos_needed);
  for (size_t i = 0; i < nodes.size(); ++i) {
    hist_of_[i] = ctx.hists.Get(nodes[i]);
    source_of_[i] = MakeHistRowSource(ctx.partitioner, nodes[i]);
    rows_of_[i] = ctx.partitioner.NodeSize(nodes[i]);
    node_pos_[static_cast<size_t>(nodes[i])] = i;
  }
  // Quantized mode: cube tasks accumulate into a flat arena of int64
  // cells (one aligned stride per node — cubes of different nodes must
  // not share a cache line) instead of the pool's f64 histograms;
  // DequantizeNode converts once every cube has run. Nothing is cleared
  // here: each cube clears its own slots before accumulating (RunTask).
  if (quant_ != nullptr) {
    qstride_ = AlignedSlotCount<int64_t>(total_bins_);
    const size_t needed = nodes.size() * qstride_;
    if (qhists_.size() < needed) {
      qhists_.resize(needed);
      ++grow_events_;
    }
    if (qhist_of_.size() < nodes.size()) qhist_of_.resize(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      qhist_of_[i] = qhists_.data() + i * qstride_;
    }
  }
  const size_t cap_after = feature_blocks_.capacity() +
                           node_blocks_.capacity() + tasks_.capacity();
  if (cap_after != cap_before) ++grow_events_;
  return tasks_.size();
}

void HistBuilderMP::RunTask(size_t task_index) const {
  const Task& task = tasks_[task_index];
  const Range fb = feature_blocks_[task.feature_block];
  // The cube owns slots [BinOffset(fb.first), BinOffset(fb.second)) of
  // each of its nodes, so it clears them itself, in parallel with the
  // other cubes: pool buffers and the arena are recycled uncleared.
  const uint32_t lo = km_.bin_offsets[fb.first];
  const uint32_t slots = km_.bin_offsets[fb.second] - lo;
  for (int node : node_blocks_[task.node_block]) {
    const size_t pos = node_pos_[static_cast<size_t>(node)];
    if (quant_ != nullptr) {
      ClearHistogramI64(qhist_of_[pos] + lo, slots);
      qkernel_(km_, source_of_[pos], 0, rows_of_[pos], qhist_of_[pos], fb);
    } else {
      ClearHistogram(hist_of_[pos] + lo, slots);
      kernel_(km_, source_of_[pos], 0, rows_of_[pos], hist_of_[pos], fb);
    }
  }
}

void HistBuilderMP::DequantizeNode(int node) const {
  if (quant_ == nullptr) return;
  const size_t pos = node_pos_[static_cast<size_t>(node)];
  DequantizeHistogram(qhist_of_[pos], hist_of_[pos], total_bins_,
                      quant_->scales, static_cast<int>(simd_));
}

void HistBuilderMP::Build(const BuildContext& ctx,
                          std::span<const int> nodes) {
  const size_t num_tasks = StageTasks(ctx, nodes);
  ctx.pool.ParallelForDynamic(
      static_cast<int64_t>(num_tasks), 1,
      [&](int64_t begin, int64_t end, int) {
        for (int64_t t = begin; t < end; ++t) {
          RunTask(static_cast<size_t>(t));
        }
      });
  if (quant_ != nullptr) {
    ctx.pool.ParallelForDynamic(
        static_cast<int64_t>(nodes.size()), 1,
        [&](int64_t begin, int64_t end, int) {
          for (int64_t i = begin; i < end; ++i) {
            DequantizeNode(nodes[static_cast<size_t>(i)]);
          }
        });
  }
}

void HistBuilderMP::BuildInRegion(const BuildContext& ctx,
                                  std::span<const int> nodes,
                                  ThreadPool::FusedRegion& region,
                                  int thread_id) {
  region.Barrier(thread_id, [&] { StageTasks(ctx, nodes); });
  region.ForDynamic(thread_id, static_cast<int64_t>(tasks_.size()), 1,
                    [&](int64_t begin, int64_t end, int) {
                      for (int64_t t = begin; t < end; ++t) {
                        RunTask(static_cast<size_t>(t));
                      }
                    });
  region.Barrier(thread_id);
  if (ctx.quant != nullptr) {
    region.ForDynamic(thread_id, static_cast<int64_t>(nodes.size()), 1,
                      [&](int64_t begin, int64_t end, int) {
                        for (int64_t i = begin; i < end; ++i) {
                          DequantizeNode(nodes[static_cast<size_t>(i)]);
                        }
                      });
    region.Barrier(thread_id);
  }
}

void BuildHistSerial(const BuildContext& ctx, int node_id, GHPair* hist) {
  // ASYNC node tasks never quantize (TrainParams::Validate refuses
  // quantize_hist with ASYNC); they do honour the resolved SIMD level for
  // the f64 kernels.
  HARP_CHECK(ctx.quant == nullptr)
      << "BuildHistSerial has no quantized path";
  const auto feature_blocks = MakeFeatureBlocks(
      ctx.matrix.num_features(), ctx.params.feature_blk_size);
  const HistKernelMatrix km =
      MakeHistKernelMatrix(ctx.matrix, ctx.partitioner);
  const HistKernelFn kernel =
      SelectHistKernel(ctx.partitioner.use_membuf(),
                       /*full_feature_block=*/feature_blocks.size() == 1,
                       ctx.simd);
  const HistRowSource src = MakeHistRowSource(ctx.partitioner, node_id);
  const uint32_t rows = ctx.partitioner.NodeSize(node_id);
  // The pool hands recycled buffers back uncleared.
  ClearHistogram(hist, ctx.matrix.TotalBins());
  for (const Range& fb : feature_blocks) {
    kernel(km, src, 0, rows, hist, fb);
  }
}

}  // namespace harp
