// Micro-benchmarks of the core kernels (google-benchmark).
//
// Not tied to a specific paper figure; used to sanity-check the building
// blocks behind them: histogram accumulation under different feature-block
// sizes (the Section IV-E write-region argument at kernel granularity),
// histogram reduction, row partitioning, split finding, quantile binning.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "harpgbdt.h"
#include "common/random.h"
#include "core/hist_builder.h"
#include "core/hist_kernels.h"
#include "core/quantize.h"
#include "core/simd.h"

namespace {

using namespace harp;

struct KernelFixture {
  Dataset ds;
  BinnedMatrix matrix;
  std::vector<GradientPair> gh;
  std::vector<MemBufEntry> entries;  // MemBuf row list over all rows
  std::vector<uint32_t> row_ids;     // gather row list over all rows
  QuantScales scales;                // round scales over `gh`
  AlignedVector<int32_t> packed;     // per-row packed quantized pairs

  // 60k rows x `features` (64 unless a case asks for another width),
  // built once per width on first use.
  static const KernelFixture& Get(uint32_t features = 64) {
    static std::map<uint32_t, std::unique_ptr<KernelFixture>> fixtures;
    std::unique_ptr<KernelFixture>& fixture = fixtures[features];
    if (fixture == nullptr) {
      fixture = std::make_unique<KernelFixture>();
      KernelFixture* f = fixture.get();
      SyntheticSpec spec;
      spec.rows = 60000;
      spec.features = features;
      spec.density = 0.9;
      spec.mean_distinct = 200;
      spec.seed = 1234;
      f->ds = GenerateSynthetic(spec);
      f->matrix =
          BinnedMatrix::Build(f->ds, QuantileCuts::Compute(f->ds, 256));
      Rng rng(99);
      f->gh.resize(spec.rows);
      for (auto& g : f->gh) {
        g.g = static_cast<float>(rng.Normal());
        g.h = static_cast<float>(rng.NextDouble() + 0.1);
      }
      f->entries.resize(spec.rows);
      f->row_ids.resize(spec.rows);
      for (uint32_t r = 0; r < spec.rows; ++r) {
        f->entries[r] = MemBufEntry{r, f->gh[r].g, f->gh[r].h};
        f->row_ids[r] = r;
      }
      f->scales = ComputeQuantScales(f->gh, nullptr);
      QuantizeGradients(f->gh, f->scales,
                        static_cast<int>(SimdLevel::kScalar), nullptr,
                        &f->packed);
    }
    return *fixture;
  }
};

// Histogram accumulation with a given feature-block size: the write-region
// vs redundant-read trade-off measured in isolation. Zeroing the histogram
// is BuildHist setup, not accumulation — keep it out of the timed region.
void BM_BuildHistFeatureBlocks(benchmark::State& state) {
  const KernelFixture& f = KernelFixture::Get();
  const int feature_blk = static_cast<int>(state.range(0));
  const auto blocks = MakeFeatureBlocks(f.matrix.num_features(), feature_blk);
  std::vector<GHPair> hist(f.matrix.TotalBins());
  for (auto _ : state) {
    state.PauseTiming();
    std::fill(hist.begin(), hist.end(), GHPair{});
    state.ResumeTiming();
    for (const Range& fb : blocks) {
      for (uint32_t r = 0; r < f.matrix.num_rows(); ++r) {
        AccumulateRow(f.matrix.RowBins(r), f.gh[r].g, f.gh[r].h, f.matrix,
                      hist.data(), fb);
      }
    }
    benchmark::DoNotOptimize(hist.data());
  }
  state.SetItemsProcessed(state.iterations() * f.matrix.num_rows() *
                          f.matrix.num_features());
}
BENCHMARK(BM_BuildHistFeatureBlocks)->Arg(0)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// The generic scalar AccumulateRow path (what the builders ran before the
// hist_kernels layer) against every specialized kernel, on the same 60k x
// 64 MemBuf/gather row lists. Variant 0 is the baseline; the others are
// SelectHistKernel/SelectQuantHistKernel results. Compare the per-variant
// items/s against variant 0 (or variant 1, the f64 DP hot path) to read
// the kernel-layer and quantization speedups. Every non-baseline variant
// self-verifies against the scalar f64 reference before any timing: f64
// variants must be bit-identical, quantized variants must dequantize
// within the per-slot analytic rounding bound AND match the scalar
// quantized kernel bit-for-bit.
struct KernelVariant {
  const char* label;
  bool membuf;
  bool full_features;
  bool quant;
  SimdLevel level;
};
constexpr KernelVariant kVariants[] = {
    // baseline path
    {"generic_scalar_membuf", true, true, false, SimdLevel::kScalar},
    // the DP hot path (the kernel-layer comparison anchor)
    {"kernel_membuf_full", true, true, false, SimdLevel::kScalar},
    {"kernel_membuf_full_tiled", true, false, false, SimdLevel::kScalar},
    {"kernel_gather_full", false, true, false, SimdLevel::kScalar},
    {"kernel_gather_full_tiled", false, false, false, SimdLevel::kScalar},
    // explicit-AVX2 f64 and the quantized int64-cell path (read
    // quant_membuf_full_avx2 against kernel_membuf_full)
    {"kernel_membuf_full_avx2", true, true, false, SimdLevel::kAVX2},
    {"quant_membuf_full_scalar", true, true, true, SimdLevel::kScalar},
    {"quant_membuf_full_avx2", true, true, true, SimdLevel::kAVX2},
    {"quant_gather_full_avx2", false, true, true, SimdLevel::kAVX2},
};

void BM_AccumulateRowKernels(benchmark::State& state, uint32_t width) {
  const KernelFixture& f = KernelFixture::Get(width);
  const size_t variant = static_cast<size_t>(state.range(0));
  const KernelVariant& v = kVariants[variant];
  state.SetLabel(v.label);
  if (!SimdSupported(v.level)) {
    state.SkipWithError("simd level not available on this binary/CPU");
    return;
  }

  const uint32_t rows = f.matrix.num_rows();
  const uint32_t features = f.matrix.num_features();
  // Tiled variants run the same 16-feature blocking the builders would.
  const auto blocks = MakeFeatureBlocks(features, v.full_features ? 0 : 16);

  HistKernelMatrix m;
  m.bins = f.matrix.BinData();
  m.bin_offsets = f.matrix.BinOffsetsData();
  m.num_features = features;
  m.gradients = f.gh.data();
  m.qgradients = f.packed.data();
  HistRowSource src;
  if (v.membuf) {
    src.entries = f.entries.data();
  } else {
    src.row_ids = f.row_ids.data();
  }
  const size_t total_bins = f.matrix.TotalBins();
  const HistKernelFn kernel =
      SelectHistKernel(v.membuf, v.full_features, v.level);
  const QuantKernelFn qkernel =
      SelectQuantHistKernel(v.membuf, v.full_features, v.level);

  // ---- correctness gate (untimed): scalar f64 reference over the same
  // feature blocks this variant will run with ----
  if (variant != 0) {
    std::vector<GHPair> ref(total_bins);
    const HistKernelFn ref_kernel =
        SelectHistKernel(v.membuf, v.full_features, SimdLevel::kScalar);
    for (const Range& fb : blocks) {
      ref_kernel(m, src, 0, rows, ref.data(), fb);
    }
    if (!v.quant) {
      std::vector<GHPair> got(total_bins);
      for (const Range& fb : blocks) {
        kernel(m, src, 0, rows, got.data(), fb);
      }
      if (std::memcmp(got.data(), ref.data(),
                      total_bins * sizeof(GHPair)) != 0) {
        std::fprintf(stderr, "FATAL: %s not bit-identical to scalar f64\n",
                     v.label);
        std::abort();
      }
    } else {
      std::vector<int64_t> qref(total_bins, 0);
      const QuantKernelFn qscalar =
          SelectQuantHistKernel(v.membuf, v.full_features, SimdLevel::kScalar);
      for (const Range& fb : blocks) {
        qscalar(m, src, 0, rows, qref.data(), fb);
      }
      std::vector<int64_t> qgot(total_bins, 0);
      for (const Range& fb : blocks) {
        qkernel(m, src, 0, rows, qgot.data(), fb);
      }
      if (std::memcmp(qgot.data(), qref.data(),
                      total_bins * sizeof(int64_t)) != 0) {
        std::fprintf(stderr,
                     "FATAL: %s not bit-identical to scalar quant kernel\n",
                     v.label);
        std::abort();
      }
      // Dequantized cells vs the f64 reference: each slot absorbs at most
      // count * half-step of rounding error per channel.
      std::vector<uint32_t> counts(total_bins, 0);
      for (uint32_t r = 0; r < rows; ++r) {
        const uint8_t* row_bins = f.matrix.RowBins(r);
        for (const Range& fb : blocks) {
          for (uint32_t c = fb.first; c < fb.second; ++c) {
            ++counts[m.bin_offsets[c] + row_bins[c]];
          }
        }
      }
      std::vector<GHPair> deq(total_bins);
      DequantizeHistogram(qgot.data(), deq.data(), total_bins, f.scales,
                          static_cast<int>(v.level));
      constexpr double kSlack = 1.0 + 1e-6;
      for (size_t s = 0; s < total_bins; ++s) {
        const double bound = static_cast<double>(counts[s]) * 0.5 * kSlack;
        if (std::abs(deq[s].g - ref[s].g) > bound * f.scales.g_inv ||
            std::abs(deq[s].h - ref[s].h) > bound * f.scales.h_inv) {
          std::fprintf(stderr,
                       "FATAL: %s slot %zu outside quantization bound\n",
                       v.label, s);
          std::abort();
        }
      }
    }
  }

  // ---- timed region ----
  if (v.quant) {
    std::vector<int64_t> qhist(total_bins, 0);
    for (auto _ : state) {
      state.PauseTiming();
      std::fill(qhist.begin(), qhist.end(), int64_t{0});
      state.ResumeTiming();
      for (const Range& fb : blocks) {
        qkernel(m, src, 0, rows, qhist.data(), fb);
      }
      benchmark::DoNotOptimize(qhist.data());
    }
  } else {
    std::vector<GHPair> hist(total_bins);
    for (auto _ : state) {
      state.PauseTiming();
      std::fill(hist.begin(), hist.end(), GHPair{});
      state.ResumeTiming();
      if (variant == 0) {
        // Pre-kernel-layer inner loop: one scalar AccumulateRow per row.
        for (uint32_t r = 0; r < rows; ++r) {
          const MemBufEntry& e = f.entries[r];
          AccumulateRow(f.matrix.RowBins(e.rid), e.g, e.h, f.matrix,
                        hist.data(), {0u, features});
        }
      } else {
        for (const Range& fb : blocks) {
          kernel(m, src, 0, rows, hist.data(), fb);
        }
      }
      benchmark::DoNotOptimize(hist.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * rows * features);
}
void BM_AccumulateRowKernels(benchmark::State& state) {
  BM_AccumulateRowKernels(state, 64);
}
BENCHMARK(BM_AccumulateRowKernels)
    ->DenseRange(0, static_cast<int>(std::size(kVariants)) - 1);
// The same variants at 65 features, a width that is not a multiple of 16:
// the full-width quantized AVX2 pass ends each row in a scalar tail.
BENCHMARK_CAPTURE(BM_AccumulateRowKernels, w65, 65u)
    ->DenseRange(0, static_cast<int>(std::size(kVariants)) - 1);

void BM_HistogramReduce(benchmark::State& state) {
  const size_t bins = 32768;
  const int replicas = static_cast<int>(state.range(0));
  std::vector<std::vector<GHPair>> parts(static_cast<size_t>(replicas),
                                         std::vector<GHPair>(bins,
                                                             GHPair{1, 1}));
  std::vector<GHPair> dst(bins);
  for (auto _ : state) {
    state.PauseTiming();
    std::fill(dst.begin(), dst.end(), GHPair{});
    state.ResumeTiming();
    for (const auto& part : parts) {
      AddHistogram(dst.data(), part.data(), bins);
    }
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() * bins * replicas);
}
BENCHMARK(BM_HistogramReduce)->Arg(2)->Arg(8)->Arg(32);

void BM_HistogramSubtract(benchmark::State& state) {
  const size_t bins = 32768;
  // In place, as the grow loop runs it: the parent's buffer becomes the
  // larger child's.
  std::vector<GHPair> hist(bins, GHPair{3, 3});
  std::vector<GHPair> sibling(bins, GHPair{1, 1});
  for (auto _ : state) {
    SubtractHistogram(hist.data(), sibling.data(), bins);
    benchmark::DoNotOptimize(hist.data());
  }
  state.SetItemsProcessed(state.iterations() * bins);
}
BENCHMARK(BM_HistogramSubtract);

ThreadPool& BenchPool() {
  static ThreadPool* pool = new ThreadPool(ThreadPool::DefaultThreads());
  return *pool;
}

// Bench-local replica of the pre-arena pooled ApplySplit (the path a
// 60k-row node actually took): pass 1 partitions each thread's range into
// chunk-private push_back buffers allocated per split, pass 2 resizes the
// per-node storage and concatenates the buffers into it. Every element is
// moved twice and every split allocates — the behaviour the arena
// partitioner removes.
template <typename Elem, typename GetRid>
void TwoPassPartition(const std::vector<Elem>& parent,
                      const BinnedMatrix& matrix, uint32_t feature,
                      uint32_t split_bin, bool default_left, GetRid get_rid,
                      std::vector<Elem>* left, std::vector<Elem>* right,
                      ThreadPool* pool) {
  const int64_t n = static_cast<int64_t>(parent.size());
  const int chunks = pool->num_threads();
  const int64_t chunk = (n + chunks - 1) / chunks;
  std::vector<std::vector<Elem>> left_parts(static_cast<size_t>(chunks));
  std::vector<std::vector<Elem>> right_parts(static_cast<size_t>(chunks));
  pool->RunOnAllThreads([&](int thread_id) {
    const int64_t begin = static_cast<int64_t>(thread_id) * chunk;
    const int64_t end = std::min<int64_t>(n, begin + chunk);
    if (begin >= end) return;
    auto& lp = left_parts[static_cast<size_t>(thread_id)];
    auto& rp = right_parts[static_cast<size_t>(thread_id)];
    for (int64_t i = begin; i < end; ++i) {
      const Elem& e = parent[static_cast<size_t>(i)];
      const uint8_t bin = matrix.RowBins(get_rid(e))[feature];
      const bool goes_left = (bin == 0) ? default_left : (bin <= split_bin);
      (goes_left ? lp : rp).push_back(e);
    }
  });
  std::vector<size_t> left_offset(static_cast<size_t>(chunks) + 1, 0);
  std::vector<size_t> right_offset(static_cast<size_t>(chunks) + 1, 0);
  for (int c = 0; c < chunks; ++c) {
    left_offset[static_cast<size_t>(c) + 1] =
        left_offset[static_cast<size_t>(c)] +
        left_parts[static_cast<size_t>(c)].size();
    right_offset[static_cast<size_t>(c) + 1] =
        right_offset[static_cast<size_t>(c)] +
        right_parts[static_cast<size_t>(c)].size();
  }
  left->resize(left_offset[static_cast<size_t>(chunks)]);
  right->resize(right_offset[static_cast<size_t>(chunks)]);
  pool->RunOnAllThreads([&](int thread_id) {
    const size_t c = static_cast<size_t>(thread_id);
    std::copy(left_parts[c].begin(), left_parts[c].end(),
              left->begin() + static_cast<int64_t>(left_offset[c]));
    std::copy(right_parts[c].begin(), right_parts[c].end(),
              right->begin() + static_cast<int64_t>(right_offset[c]));
  });
}

// Single split of the 60k-row root under production conditions (pool
// given): arg 0 picks the old two-pass baseline (0) or the arena
// count/scan/scatter (1), arg 1 picks the layout (gather row ids vs
// MemBuf triples). The timed region is the full split transaction as the
// builder loop issues it — partition the node AND produce both children's
// gradient sums (the old path followed every split with O(n) child
// NodeSum scans; the arena fuses the sums into the count pass, so its
// NodeSum calls are O(1) lookups). Per-iteration state reset stays out of
// the timed region. The arena variant reports steady_allocs — partitioner
// grow events after the first iteration — which must be 0.
void BM_ApplySplit(benchmark::State& state) {
  const KernelFixture& f = KernelFixture::Get();
  const bool arena = state.range(0) != 0;
  const bool membuf = state.range(1) != 0;
  state.SetLabel(std::string(arena ? "arena" : "two_pass") +
                 (membuf ? "_membuf" : "_gather"));
  ThreadPool& pool = BenchPool();
  const uint32_t feature = 3;
  const uint32_t split_bin = std::max(1u, f.matrix.NumBins(feature) / 2);

  if (!arena) {
    if (membuf) {
      std::vector<MemBufEntry> parent;
      std::vector<MemBufEntry> left;
      std::vector<MemBufEntry> right;
      for (auto _ : state) {
        state.PauseTiming();
        parent = f.entries;
        std::vector<MemBufEntry>().swap(left);
        std::vector<MemBufEntry>().swap(right);
        state.ResumeTiming();
        TwoPassPartition(parent, f.matrix, feature, split_bin, false,
                         [](const MemBufEntry& e) { return e.rid; }, &left,
                         &right, &pool);
        GHPair left_sum;
        GHPair right_sum;
        for (const MemBufEntry& e : left) left_sum.Add(e.g, e.h);
        for (const MemBufEntry& e : right) right_sum.Add(e.g, e.h);
        benchmark::DoNotOptimize(left_sum);
        benchmark::DoNotOptimize(right_sum);
        benchmark::DoNotOptimize(left.data());
        benchmark::DoNotOptimize(right.data());
      }
    } else {
      std::vector<uint32_t> parent;
      std::vector<uint32_t> left;
      std::vector<uint32_t> right;
      for (auto _ : state) {
        state.PauseTiming();
        parent = f.row_ids;
        std::vector<uint32_t>().swap(left);
        std::vector<uint32_t>().swap(right);
        state.ResumeTiming();
        TwoPassPartition(parent, f.matrix, feature, split_bin, false,
                         [](uint32_t rid) { return rid; }, &left, &right,
                         &pool);
        GHPair left_sum;
        GHPair right_sum;
        for (uint32_t rid : left) left_sum.Add(f.gh[rid].g, f.gh[rid].h);
        for (uint32_t rid : right) right_sum.Add(f.gh[rid].g, f.gh[rid].h);
        benchmark::DoNotOptimize(left_sum);
        benchmark::DoNotOptimize(right_sum);
        benchmark::DoNotOptimize(left.data());
        benchmark::DoNotOptimize(right.data());
      }
    }
  } else {
    RowPartitioner partitioner(f.matrix.num_rows(), membuf);
    int64_t warm_grow_events = -1;
    for (auto _ : state) {
      state.PauseTiming();
      partitioner.Reset(f.gh, 4, &pool);
      state.ResumeTiming();
      partitioner.ApplySplit(0, 1, 2, f.matrix, feature, split_bin, false,
                             &pool);
      GHPair left_sum = partitioner.NodeSum(1);
      GHPair right_sum = partitioner.NodeSum(2);
      benchmark::DoNotOptimize(left_sum);
      benchmark::DoNotOptimize(right_sum);
      benchmark::DoNotOptimize(partitioner.NodeSize(1));
      if (warm_grow_events < 0) {
        state.PauseTiming();
        warm_grow_events = partitioner.stats().grow_events;
        state.ResumeTiming();
      }
    }
    state.counters["steady_allocs"] = static_cast<double>(
        partitioner.stats().grow_events - std::max<int64_t>(0,
                                                            warm_grow_events));
  }
  state.SetItemsProcessed(state.iterations() * f.matrix.num_rows());
}
BENCHMARK(BM_ApplySplit)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

// The arena split of a scattered node: every `stride`-th row of the
// fixture, split off the root (untimed) by a one-feature selector matrix.
// Its rows sit stride x 64 bytes apart in the bin matrix, so the count
// pass's one-byte split-feature gather costs a cache line per row, as in
// a deep node of a real tree. The node is below the partitioner's
// parallel threshold, so this times the serial count + scatter. Arg =
// MemBuf (1) or gather row ids (0).
void BM_ApplySplit(benchmark::State& state, uint32_t stride) {
  const KernelFixture& f = KernelFixture::Get();
  const bool membuf = state.range(0) != 0;
  state.SetLabel(std::string("arena") + (membuf ? "_membuf" : "_gather") +
                 "_every" + std::to_string(stride));
  const uint32_t rows = f.matrix.num_rows();
  std::vector<float> values(rows);
  for (uint32_t r = 0; r < rows; ++r) values[r] = r % stride == 0 ? 0.f : 1.f;
  const Dataset selector_ds = Dataset::FromDense(
      rows, 1, std::move(values), std::vector<float>(rows, 0.f));
  const BinnedMatrix selector = BinnedMatrix::Build(
      selector_ds, QuantileCuts::Compute(selector_ds, 256));
  ThreadPool& pool = BenchPool();
  const uint32_t feature = 3;
  const uint32_t split_bin = std::max(1u, f.matrix.NumBins(feature) / 2);

  RowPartitioner partitioner(rows, membuf);
  uint32_t node_rows = 0;
  for (auto _ : state) {
    state.PauseTiming();
    partitioner.Reset(f.gh, 8, &pool);
    partitioner.ApplySplit(0, 1, 2, selector, 0, 1, false, &pool);
    node_rows = partitioner.NodeSize(1);
    if (node_rows != (rows + stride - 1) / stride) {
      state.SkipWithError("selector did not isolate every stride-th row");
      return;
    }
    state.ResumeTiming();
    partitioner.ApplySplit(1, 3, 4, f.matrix, feature, split_bin, false,
                           &pool);
    benchmark::DoNotOptimize(partitioner.NodeSum(3));
    benchmark::DoNotOptimize(partitioner.NodeSize(3));
  }
  state.SetItemsProcessed(state.iterations() * node_rows);
}
BENCHMARK_CAPTURE(BM_ApplySplit, every8, 8u)->Arg(0)->Arg(1);

// Applying a TopK batch of K node splits: per-node application (arg 1 = 0;
// one internally parallel ApplySplit per node) vs the batched path (arg 1
// = 1; one count region + one scatter region for the whole batch). The
// `barriers` counter is the partitioner's parallel-region count per
// iteration — batched stays at 2 regardless of K, per-node pays 2 per
// large node.
void BM_ApplySplitBatch(benchmark::State& state) {
  const KernelFixture& f = KernelFixture::Get();
  const size_t batch_k = static_cast<size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  state.SetLabel(std::string(batched ? "batched" : "per_node") + "_k" +
                 std::to_string(batch_k));
  ThreadPool* pool = &BenchPool();
  // One feature per tree level so successive splits keep cutting.
  const uint32_t level_features[] = {3, 5, 7, 9};

  RowPartitioner partitioner(f.matrix.num_rows(), true);
  std::vector<SplitTask> tasks;
  int64_t barriers = 0;
  for (auto _ : state) {
    state.PauseTiming();
    partitioner.Reset(f.gh, 64, pool);
    // Pre-split (setup) until the frontier holds batch_k nodes.
    std::vector<int> frontier{0};
    int next_id = 1;
    size_t level = 0;
    while (frontier.size() < batch_k) {
      const uint32_t feat = level_features[level++];
      const uint32_t bin = std::max(1u, f.matrix.NumBins(feat) / 2);
      std::vector<int> next_frontier;
      for (int node : frontier) {
        partitioner.ApplySplit(node, next_id, next_id + 1, f.matrix, feat,
                               bin, false, nullptr);
        next_frontier.push_back(next_id);
        next_frontier.push_back(next_id + 1);
        next_id += 2;
      }
      frontier = std::move(next_frontier);
    }
    const uint32_t feat = level_features[level];
    const uint32_t bin = std::max(1u, f.matrix.NumBins(feat) / 2);
    tasks.clear();
    for (int node : frontier) {
      tasks.push_back(SplitTask{node, next_id, next_id + 1, feat, bin,
                                false});
      next_id += 2;
    }
    const int64_t barriers_before = partitioner.stats().barriers;
    state.ResumeTiming();
    if (batched) {
      partitioner.ApplySplitBatch(tasks, f.matrix, pool);
    } else {
      for (const SplitTask& t : tasks) {
        partitioner.ApplySplit(t.node_id, t.left_id, t.right_id, f.matrix,
                               t.feature, t.split_bin, t.default_left, pool);
      }
    }
    benchmark::DoNotOptimize(partitioner.NodeSize(tasks.back().left_id));
    state.PauseTiming();
    barriers += partitioner.stats().barriers - barriers_before;
    state.ResumeTiming();
  }
  state.counters["barriers"] = benchmark::Counter(
      static_cast<double>(barriers), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * f.matrix.num_rows());
}
BENCHMARK(BM_ApplySplitBatch)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({8, 0})
    ->Args({8, 1});

// Arg = percent of the rows in the node. At 100 (the root) every bin is
// occupied, the compacted scan's worst case; at 1 (a deep node) most bins
// are empty and their candidates are skipped.
void BM_FindSplit(benchmark::State& state) {
  const KernelFixture& f = KernelFixture::Get();
  const uint32_t stride = static_cast<uint32_t>(100 / state.range(0));
  std::vector<GHPair> hist(f.matrix.TotalBins());
  GHPair total;
  for (uint32_t r = 0; r < f.matrix.num_rows(); r += stride) {
    AccumulateRow(f.matrix.RowBins(r), f.gh[r].g, f.gh[r].h, f.matrix,
                  hist.data(), {0u, f.matrix.num_features()});
    total.Add(f.gh[r].g, f.gh[r].h);
  }
  TrainParams params;
  const SplitEvaluator eval(params);
  for (auto _ : state) {
    SplitInfo split = eval.FindBestSplit(f.matrix, hist.data(), total, 0,
                                         f.matrix.num_features());
    benchmark::DoNotOptimize(split);
  }
  state.SetItemsProcessed(state.iterations() * f.matrix.TotalBins());
}
BENCHMARK(BM_FindSplit)->ArgName("pct")->Arg(100)->Arg(1);

void BM_QuantileCompute(benchmark::State& state) {
  const KernelFixture& f = KernelFixture::Get();
  for (auto _ : state) {
    QuantileCuts cuts = QuantileCuts::Compute(f.ds, 256);
    benchmark::DoNotOptimize(cuts.cuts().data());
  }
}
BENCHMARK(BM_QuantileCompute);

void BM_AucMetric(benchmark::State& state) {
  const KernelFixture& f = KernelFixture::Get();
  Rng rng(5);
  std::vector<double> scores(f.ds.num_rows());
  for (auto& s : scores) s = rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Auc(f.ds.labels(), scores));
  }
  state.SetItemsProcessed(state.iterations() * f.ds.num_rows());
}
BENCHMARK(BM_AucMetric);

}  // namespace

BENCHMARK_MAIN();
