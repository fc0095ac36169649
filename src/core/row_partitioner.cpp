#include "core/row_partitioner.h"

#include <algorithm>
#include <type_traits>

#include "common/logging.h"
#include "parallel/thread_pool.h"

namespace harp {
namespace {

// The two arena layouts share every partition/scan kernel through these
// traits: Elem is what the arena stores, Rid recovers the row id, AddGH
// accumulates the element's gradient pair (from the element itself for
// MemBuf, from the global gradient array otherwise).
struct MemBufLayout {
  using Elem = MemBufEntry;
  static uint32_t Rid(const Elem& e) { return e.rid; }
  static void AddGH(const Elem& e, const GradientPair*, GHPair* sum) {
    sum->Add(e.g, e.h);
  }
};

struct RidLayout {
  using Elem = uint32_t;
  static uint32_t Rid(uint32_t rid) { return rid; }
  static void AddGH(uint32_t rid, const GradientPair* grads, GHPair* sum) {
    sum->Add(grads[rid].g, grads[rid].h);
  }
};

#if defined(__GNUC__) || defined(__clang__)
#define HARP_PREFETCH_READ(addr) __builtin_prefetch((addr), 0, 3)
#else
#define HARP_PREFETCH_READ(addr) ((void)(addr))
#endif

// Rows the count pass prefetches ahead: far enough that a row's bin line
// arrives before its turn, near enough to stay within one chunk.
constexpr uint32_t kGatherPrefetchDist = 16;

// Count pass over one chunk: evaluates the predicate once per element
// (the only bin-matrix read of the whole split), caches it in `flags`,
// fuses the chunk's child gradient-pair partial sums, and returns the
// chunk's left count. The bin read is a one-byte gather from a row-major
// matrix in node row order, so each row costs a cache miss; the pass
// prefetches the split-feature byte (and, without MemBuf, the gradient
// pair) kGatherPrefetchDist rows ahead to overlap those misses. The sums
// ride here — not in the scatter — because this pass is bound by those
// gathers, so the acc[go_left] accumulation is hidden under them, while
// adding it to the (otherwise branch-free) scatter would serialize it.
template <typename L>
uint32_t CountChunk(const typename L::Elem* src, uint32_t n, uint8_t* flags,
                    const uint8_t* bins, uint32_t stride, uint32_t feature,
                    uint32_t split_bin, bool default_left,
                    const GradientPair* grads, GHPair* left_sum,
                    GHPair* right_sum) {
  // The go-left predicate "bin == 0 ? default_left : bin <= split_bin"
  // folded into one unsigned compare: with sub = default_left ? 0 : 1,
  // go_left == (bin - sub) <= (split_bin - sub). Bin 0 wraps to
  // UINT32_MAX when defaulting right, and split_bin >= 1 (checked by
  // CheckTask) keeps the threshold from wrapping.
  const uint32_t sub = default_left ? 0u : 1u;
  const uint32_t thresh = split_bin - sub;
  uint32_t count = 0;
  GHPair acc[2];  // [0] = right, [1] = left; indexed, not branched
  for (uint32_t i = 0; i < n; ++i) {
    if (i + kGatherPrefetchDist < n) {
      const uint32_t ahead = L::Rid(src[i + kGatherPrefetchDist]);
      HARP_PREFETCH_READ(bins + static_cast<size_t>(ahead) * stride +
                         feature);
      if constexpr (std::is_same_v<L, RidLayout>) {
        HARP_PREFETCH_READ(grads + ahead);
      }
    }
    const typename L::Elem e = src[i];
    const uint32_t bin =
        bins[static_cast<size_t>(L::Rid(e)) * stride + feature];
    const uint8_t go_left = (bin - sub) <= thresh ? 1 : 0;
    flags[i] = go_left;
    count += go_left;
    L::AddGH(e, grads, &acc[go_left]);
  }
  *left_sum = acc[1];
  *right_sum = acc[0];
  return count;
}

#undef HARP_PREFETCH_READ

// Scatter pass over one chunk: moves each element once, steered by the
// cached flag byte. Branch-free both-sides write: every element is stored
// at both cursors and only the right cursor advances. The spurious store
// lands on a slot of this chunk's own destination range that a later real
// store overwrites — it never crosses into another chunk's range, because
// the main loop stops as soon as either side's range is full (at which
// point every remaining element belongs to the other side and the tail is
// a straight copy). That keeps concurrent chunk scatters disjoint and the
// result schedule-independent.
template <typename L>
void ScatterChunk(const typename L::Elem* src, const uint8_t* flags,
                  typename L::Elem* left_dst, uint32_t left_count,
                  typename L::Elem* right_dst, uint32_t right_count) {
  using Elem = typename L::Elem;
  Elem* const left_end = left_dst + left_count;
  Elem* const right_end = right_dst + right_count;
  uint32_t i = 0;
  while (left_dst < left_end && right_dst < right_end) {
    const Elem e = src[i];
    const uint8_t go_left = flags[i];
    ++i;
    *left_dst = e;
    *right_dst = e;
    left_dst += go_left;
    right_dst += 1 - go_left;
  }
  for (; left_dst < left_end; ++i) *left_dst++ = src[i];
  for (; right_dst < right_end; ++i) *right_dst++ = src[i];
}

// Grows `v` to at least `n` elements; returns 1 if backing storage was
// reallocated (a grow event), 0 otherwise. Never shrinks.
template <typename Vec>
int64_t GrowTo(Vec* v, size_t n) {
  if (v->size() >= n) return 0;
  const int64_t grew = n > v->capacity() ? 1 : 0;
  v->resize(n);
  return grew;
}

}  // namespace

void RowPartitioner::Reset(const std::vector<GradientPair>& gradients,
                           int max_nodes, ThreadPool* pool) {
  HARP_CHECK_EQ(gradients.size(), static_cast<size_t>(num_rows_));
  HARP_CHECK_GE(max_nodes, 1);
  gradients_ = &gradients;
  max_nodes_ = max_nodes;

  // Grow-only storage: after the first tree at this (num_rows, max_nodes)
  // size, Reset allocates nothing.
  int64_t grew = 0;
  const size_t nodes = static_cast<size_t>(max_nodes);
  grew += GrowTo(&spans_, nodes);
  grew += GrowTo(&fused_sums_, nodes);
  grew += GrowTo(&fused_valid_, nodes);
  grew += GrowTo(&left_flags_, num_rows_);
  if (use_membuf_) {
    for (auto& arena : entry_arena_) grew += GrowTo(&arena, num_rows_);
  } else {
    for (auto& arena : rid_arena_) grew += GrowTo(&arena, num_rows_);
  }
  if (grew != 0) grow_events_.fetch_add(grew, std::memory_order_relaxed);

  std::fill_n(spans_.begin(), nodes, NodeSpan{});
  std::fill_n(fused_valid_.begin(), nodes, uint8_t{0});
  spans_[0] = NodeSpan{0, num_rows_, 0};

  // Root fill: a bandwidth-bound streaming write in both layouts, so both
  // go parallel when a pool is given.
  if (use_membuf_) {
    MemBufEntry* root = entry_arena_[0].data();
    auto fill = [&](int64_t begin, int64_t end, int) {
      for (int64_t r = begin; r < end; ++r) {
        const auto i = static_cast<size_t>(r);
        root[i] = MemBufEntry{static_cast<uint32_t>(r), gradients[i].g,
                              gradients[i].h};
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(num_rows_, fill);
    } else {
      fill(0, num_rows_, 0);
    }
  } else {
    uint32_t* root = rid_arena_[0].data();
    auto fill = [&](int64_t begin, int64_t end, int) {
      for (int64_t r = begin; r < end; ++r) {
        root[static_cast<size_t>(r)] = static_cast<uint32_t>(r);
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(num_rows_, fill);
    } else {
      fill(0, num_rows_, 0);
    }
  }
}

void RowPartitioner::CheckNode(int node_id) const {
  HARP_CHECK_GE(node_id, 0);
  HARP_CHECK_LT(node_id, max_nodes_);
}

void RowPartitioner::CheckTask(const SplitTask& t) const {
  CheckNode(t.node_id);
  CheckNode(t.left_id);
  CheckNode(t.right_id);
  HARP_CHECK_GE(t.split_bin, 1u);
  HARP_CHECK_EQ(NodeSize(t.left_id), 0u);
  HARP_CHECK_EQ(NodeSize(t.right_id), 0u);
}

uint32_t RowPartitioner::NodeSize(int node_id) const {
  CheckNode(node_id);
  const NodeSpan& s = spans_[static_cast<size_t>(node_id)];
  return s.end - s.begin;
}

std::span<const uint32_t> RowPartitioner::NodeRowIds(int node_id) const {
  CheckNode(node_id);
  HARP_CHECK(!use_membuf_);
  const NodeSpan& s = spans_[static_cast<size_t>(node_id)];
  return {rid_arena_[s.buf].data() + s.begin, s.end - s.begin};
}

std::span<const MemBufEntry> RowPartitioner::NodeEntries(int node_id) const {
  CheckNode(node_id);
  HARP_CHECK(use_membuf_);
  const NodeSpan& s = spans_[static_cast<size_t>(node_id)];
  return {entry_arena_[s.buf].data() + s.begin, s.end - s.begin};
}

template <typename Layout>
GHPair RowPartitioner::NodeSumScan(int node_id, ThreadPool* pool) const {
  const NodeSpan& s = spans_[static_cast<size_t>(node_id)];
  const uint32_t n = s.end - s.begin;
  const typename Layout::Elem* src = [&] {
    if constexpr (std::is_same_v<typename Layout::Elem, MemBufEntry>) {
      return entry_arena_[s.buf].data() + s.begin;
    } else {
      return rid_arena_[s.buf].data() + s.begin;
    }
  }();
  const GradientPair* grads =
      gradients_ != nullptr ? gradients_->data() : nullptr;

  // Chunk-grid reduction: per-chunk partials accumulated sequentially,
  // then reduced in ascending chunk order. The grid depends only on n, so
  // serial and parallel (any thread count) produce bit-identical sums —
  // and match the fused sums the scatter pass computes on the same grid.
  const uint32_t chunks = (n + kChunkRows - 1) / kChunkRows;
  auto chunk_sum = [&](uint32_t c) {
    GHPair partial;
    const uint32_t begin = c * kChunkRows;
    const uint32_t end = std::min(n, begin + kChunkRows);
    for (uint32_t i = begin; i < end; ++i) {
      Layout::AddGH(src[i], grads, &partial);
    }
    return partial;
  };

  GHPair total;
  if (pool == nullptr || n < kParallelRows) {
    for (uint32_t c = 0; c < chunks; ++c) total += chunk_sum(c);
    return total;
  }
  const int64_t grew = GrowTo(&sum_scratch_, chunks);
  if (grew != 0) grow_events_.fetch_add(grew, std::memory_order_relaxed);
  pool->ParallelForDynamic(chunks, 1, [&](int64_t begin, int64_t end, int) {
    for (int64_t c = begin; c < end; ++c) {
      sum_scratch_[static_cast<size_t>(c)].value =
          chunk_sum(static_cast<uint32_t>(c));
    }
  });
  for (uint32_t c = 0; c < chunks; ++c) total += sum_scratch_[c].value;
  return total;
}

GHPair RowPartitioner::NodeSum(int node_id, ThreadPool* pool) const {
  CheckNode(node_id);
  if (fused_valid_[static_cast<size_t>(node_id)] != 0) {
    return fused_sums_[static_cast<size_t>(node_id)];
  }
  return use_membuf_ ? NodeSumScan<MemBufLayout>(node_id, pool)
                     : NodeSumScan<RidLayout>(node_id, pool);
}

bool RowPartitioner::HasFusedSum(int node_id) const {
  CheckNode(node_id);
  return fused_valid_[static_cast<size_t>(node_id)] != 0;
}

void RowPartitioner::FinishSplit(const SplitTask& t, uint32_t left_count,
                                 const GHPair& left_sum,
                                 const GHPair& right_sum) {
  NodeSpan& parent = spans_[static_cast<size_t>(t.node_id)];
  const uint32_t n = parent.end - parent.begin;
  HARP_CHECK_LE(left_count, n);
  const uint8_t child_buf = static_cast<uint8_t>(1 - parent.buf);
  spans_[static_cast<size_t>(t.left_id)] =
      NodeSpan{parent.begin, parent.begin + left_count, child_buf};
  spans_[static_cast<size_t>(t.right_id)] =
      NodeSpan{parent.begin + left_count, parent.end, child_buf};
  fused_sums_[static_cast<size_t>(t.left_id)] = left_sum;
  fused_sums_[static_cast<size_t>(t.right_id)] = right_sum;
  fused_valid_[static_cast<size_t>(t.left_id)] = 1;
  fused_valid_[static_cast<size_t>(t.right_id)] = 1;
  // The parent's window now belongs to its children: empty it (NodeSize
  // becomes 0, matching the old freed-parent semantics) and drop any
  // cached sum.
  fused_valid_[static_cast<size_t>(t.node_id)] = 0;
  parent.end = parent.begin;

  splits_.fetch_add(1, std::memory_order_relaxed);
  bytes_moved_.fetch_add(
      static_cast<int64_t>(n) *
          static_cast<int64_t>(use_membuf_ ? sizeof(MemBufEntry)
                                           : sizeof(uint32_t)),
      std::memory_order_relaxed);
}

template <typename Layout>
void RowPartitioner::PartitionSerial(const SplitTask& t,
                                     const BinnedMatrix& matrix) {
  using Elem = typename Layout::Elem;
  auto arena_data = [&](uint8_t buf) -> Elem* {
    if constexpr (std::is_same_v<Elem, MemBufEntry>) {
      return entry_arena_[buf].data();
    } else {
      return rid_arena_[buf].data();
    }
  };
  const NodeSpan& parent = spans_[static_cast<size_t>(t.node_id)];
  const uint32_t n = parent.end - parent.begin;
  const Elem* src = arena_data(parent.buf) + parent.begin;
  Elem* dst = arena_data(static_cast<uint8_t>(1 - parent.buf)) + parent.begin;
  const GradientPair* grads = gradients_->data();

  // Same fixed chunk grid as the parallel paths, executed in order on one
  // thread — identical arithmetic, hence identical results. thread_local
  // so ASYNC workers can split disjoint nodes concurrently; grows to the
  // deepest node a thread ever splits, then never again.
  const uint32_t chunks = (n + kChunkRows - 1) / kChunkRows;
  thread_local std::vector<uint32_t> offsets;
  if (offsets.size() < chunks) {
    offsets.resize(chunks);
    grow_events_.fetch_add(1, std::memory_order_relaxed);
  }

  uint8_t* flags = left_flags_.data() + parent.begin;
  const uint8_t* bins = matrix.RowBins(0);
  const uint32_t stride = matrix.num_features();
  GHPair left_sum;
  GHPair right_sum;
  for (uint32_t c = 0; c < chunks; ++c) {
    const uint32_t begin = c * kChunkRows;
    GHPair lp;
    GHPair rp;
    offsets[c] = CountChunk<Layout>(src + begin,
                                    std::min(n - begin, kChunkRows),
                                    flags + begin, bins, stride, t.feature,
                                    t.split_bin, t.default_left, grads, &lp,
                                    &rp);
    // Ascending chunk order — the canonical fused-sum reduction.
    left_sum += lp;
    right_sum += rp;
  }
  // In-place exclusive scan: offsets[c] becomes the chunk's first left
  // slot; left_total the left child's size.
  uint32_t left_total = 0;
  for (uint32_t c = 0; c < chunks; ++c) {
    const uint32_t count = offsets[c];
    offsets[c] = left_total;
    left_total += count;
  }

  for (uint32_t c = 0; c < chunks; ++c) {
    const uint32_t begin = c * kChunkRows;
    const uint32_t len = std::min(n - begin, kChunkRows);
    const uint32_t next_left =
        c + 1 < chunks ? offsets[c + 1] : left_total;
    ScatterChunk<Layout>(src + begin, flags + begin, dst + offsets[c],
                         next_left - offsets[c],
                         dst + left_total + (begin - offsets[c]),
                         len - (next_left - offsets[c]));
  }
  FinishSplit(t, left_total, left_sum, right_sum);
}

void RowPartitioner::BuildChunkGrid(std::span<const SplitTask> tasks) {
  // Flatten every task's parent window onto one chunk-task list (grouped
  // by task, chunks in window order) so the whole batch is covered by a
  // single count pass and a single scatter pass.
  int64_t grew = GrowTo(&task_left_total_, tasks.size());
  const size_t refs_capacity = chunk_refs_.capacity();
  chunk_refs_.clear();
  for (size_t ti = 0; ti < tasks.size(); ++ti) {
    const NodeSpan& p = spans_[static_cast<size_t>(tasks[ti].node_id)];
    for (uint32_t begin = p.begin; begin < p.end; begin += kChunkRows) {
      chunk_refs_.push_back(ChunkRef{static_cast<uint32_t>(ti), begin,
                                     std::min(p.end, begin + kChunkRows)});
    }
  }
  prepared_chunks_ = chunk_refs_.size();
  grew += chunk_refs_.capacity() != refs_capacity ? 1 : 0;
  grew += GrowTo(&chunk_left_, prepared_chunks_);
  grew += GrowTo(&chunk_left_sum_, prepared_chunks_);
  grew += GrowTo(&chunk_right_sum_, prepared_chunks_);
  if (grew != 0) grow_events_.fetch_add(grew, std::memory_order_relaxed);
}

// Count pass over chunks [begin, end): counts + fused per-chunk child
// sums. Chunk boundaries come from the fixed grid, not the schedule, so
// any thread may process any chunk.
template <typename Layout>
void RowPartitioner::CountChunkRangeT(std::span<const SplitTask> tasks,
                                      const BinnedMatrix& matrix,
                                      int64_t begin, int64_t end) {
  using Elem = typename Layout::Elem;
  const GradientPair* grads = gradients_->data();
  const uint8_t* bins = matrix.RowBins(0);
  const uint32_t stride = matrix.num_features();
  for (int64_t i = begin; i < end; ++i) {
    const size_t ci = static_cast<size_t>(i);
    const ChunkRef& ref = chunk_refs_[ci];
    const SplitTask& t = tasks[ref.task];
    const NodeSpan& p = spans_[static_cast<size_t>(t.node_id)];
    const Elem* src = [&] {
      if constexpr (std::is_same_v<Elem, MemBufEntry>) {
        return entry_arena_[p.buf].data();
      } else {
        return rid_arena_[p.buf].data();
      }
    }();
    GHPair lp;
    GHPair rp;
    chunk_left_[ci] = CountChunk<Layout>(
        src + ref.begin, ref.end - ref.begin, left_flags_.data() + ref.begin,
        bins, stride, t.feature, t.split_bin, t.default_left, grads, &lp,
        &rp);
    chunk_left_sum_[ci].value = lp;
    chunk_right_sum_[ci].value = rp;
  }
}

void RowPartitioner::CountChunkRange(std::span<const SplitTask> tasks,
                                     const BinnedMatrix& matrix,
                                     int64_t begin, int64_t end) {
  if (use_membuf_) {
    CountChunkRangeT<MemBufLayout>(tasks, matrix, begin, end);
  } else {
    CountChunkRangeT<RidLayout>(tasks, matrix, begin, end);
  }
}

// Serial per-task exclusive scan (chunk counts -> chunk left offsets);
// cheap: one pass over ~n/kChunkRows entries.
void RowPartitioner::ScanTasksSerial(std::span<const SplitTask> tasks) {
  size_t i = 0;
  for (size_t ti = 0; ti < tasks.size(); ++ti) {
    uint32_t running = 0;
    for (; i < prepared_chunks_ && chunk_refs_[i].task == ti; ++i) {
      const uint32_t count = chunk_left_[i];
      chunk_left_[i] = running;
      running += count;
    }
    task_left_total_[ti] = running;
  }
}

// Scatter pass over chunks [begin, end). Every element has a unique
// destination computed from the scan, so chunks write disjoint ranges
// (the both-sides-write trick never leaves a chunk's own range — see
// ScatterChunk).
template <typename Layout>
void RowPartitioner::ScatterChunkRangeT(std::span<const SplitTask> tasks,
                                        const BinnedMatrix& matrix,
                                        int64_t begin, int64_t end) {
  (void)matrix;
  using Elem = typename Layout::Elem;
  auto arena_data = [&](uint8_t buf) -> Elem* {
    if constexpr (std::is_same_v<Elem, MemBufEntry>) {
      return entry_arena_[buf].data();
    } else {
      return rid_arena_[buf].data();
    }
  };
  for (int64_t i = begin; i < end; ++i) {
    const size_t ci = static_cast<size_t>(i);
    const ChunkRef& ref = chunk_refs_[ci];
    const SplitTask& t = tasks[ref.task];
    const NodeSpan& p = spans_[static_cast<size_t>(t.node_id)];
    const Elem* src = arena_data(p.buf);
    Elem* dst = arena_data(static_cast<uint8_t>(1 - p.buf));
    // The chunk's own left count: next in-task offset minus its own
    // (the scan overwrote chunk_left_ with offsets).
    const uint32_t next_left =
        (ci + 1 < prepared_chunks_ && chunk_refs_[ci + 1].task == ref.task)
            ? chunk_left_[ci + 1]
            : task_left_total_[ref.task];
    const uint32_t left_count = next_left - chunk_left_[ci];
    Elem* left_dst = dst + p.begin + chunk_left_[ci];
    Elem* right_dst = dst + p.begin + task_left_total_[ref.task] +
                      (ref.begin - p.begin) - chunk_left_[ci];
    ScatterChunk<Layout>(src + ref.begin, left_flags_.data() + ref.begin,
                         left_dst, left_count, right_dst,
                         (ref.end - ref.begin) - left_count);
  }
}

void RowPartitioner::ScatterChunkRange(std::span<const SplitTask> tasks,
                                       const BinnedMatrix& matrix,
                                       int64_t begin, int64_t end) {
  if (use_membuf_) {
    ScatterChunkRangeT<MemBufLayout>(tasks, matrix, begin, end);
  } else {
    ScatterChunkRangeT<RidLayout>(tasks, matrix, begin, end);
  }
}

// Reduces fused partials in ascending chunk order — the same grid and
// order as the serial path, so the sums are bit-identical — and publishes
// the child windows. `barriers` counts the two passes (count + scatter)
// regardless of which scheduler drove them.
void RowPartitioner::FinishBatchSerial(std::span<const SplitTask> tasks) {
  size_t i = 0;
  for (size_t ti = 0; ti < tasks.size(); ++ti) {
    GHPair left_sum;
    GHPair right_sum;
    for (; i < prepared_chunks_ && chunk_refs_[i].task == ti; ++i) {
      left_sum += chunk_left_sum_[i].value;
      right_sum += chunk_right_sum_[i].value;
    }
    FinishSplit(tasks[ti], task_left_total_[ti], left_sum, right_sum);
  }
  barriers_.fetch_add(2, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
}

void RowPartitioner::PartitionBatchSerial(std::span<const SplitTask> tasks,
                                          const BinnedMatrix& matrix) {
  for (const SplitTask& t : tasks) {
    if (use_membuf_) {
      PartitionSerial<MemBufLayout>(t, matrix);
    } else {
      PartitionSerial<RidLayout>(t, matrix);
    }
  }
}

bool RowPartitioner::PrepareSplitBatch(std::span<const SplitTask> tasks) {
  prepared_parallel_ = false;
  prepared_chunks_ = 0;
  if (tasks.empty()) return false;
  int64_t total_rows = 0;
  for (const SplitTask& t : tasks) {
    CheckTask(t);
    total_rows += NodeSize(t.node_id);
  }
  prepared_parallel_ = total_rows >= static_cast<int64_t>(kParallelRows);
  if (prepared_parallel_) BuildChunkGrid(tasks);
  return true;
}

void RowPartitioner::ApplySplitBatchInRegion(
    std::span<const SplitTask> tasks, const BinnedMatrix& matrix,
    ThreadPool::FusedRegion& region, int thread_id,
    const std::function<void()>& after_finish) {
  if (!prepared_parallel_) {
    // Small batch: per-task serial partition on thread 0 (same work the
    // region-per-phase path does on the orchestration thread), peers go
    // straight to the barrier.
    if (thread_id == 0 && !tasks.empty()) {
      PartitionBatchSerial(tasks, matrix);
    }
    region.Barrier(thread_id, after_finish);
    return;
  }
  region.ForDynamic(thread_id, static_cast<int64_t>(prepared_chunks_), 1,
                    [&](int64_t begin, int64_t end, int) {
                      CountChunkRange(tasks, matrix, begin, end);
                    });
  region.Barrier(thread_id, [&] { ScanTasksSerial(tasks); });
  region.ForDynamic(thread_id, static_cast<int64_t>(prepared_chunks_), 1,
                    [&](int64_t begin, int64_t end, int) {
                      ScatterChunkRange(tasks, matrix, begin, end);
                    });
  region.Barrier(thread_id, [&] {
    FinishBatchSerial(tasks);
    after_finish();
  });
}

void RowPartitioner::ApplySplit(int node_id, int left_id, int right_id,
                                const BinnedMatrix& matrix, uint32_t feature,
                                uint32_t split_bin, bool default_left,
                                ThreadPool* pool) {
  const SplitTask t{node_id, left_id, right_id, feature, split_bin,
                    default_left};
  // Small nodes are not worth a parallel region even when a pool is given.
  if (pool != nullptr && NodeSize(node_id) >= kParallelRows) {
    ApplySplitBatch(std::span<const SplitTask>(&t, 1), matrix, pool);
    return;
  }
  CheckTask(t);
  if (use_membuf_) {
    PartitionSerial<MemBufLayout>(t, matrix);
  } else {
    PartitionSerial<RidLayout>(t, matrix);
  }
}

void RowPartitioner::ApplySplitBatch(std::span<const SplitTask> tasks,
                                     const BinnedMatrix& matrix,
                                     ThreadPool* pool) {
  if (!PrepareSplitBatch(tasks)) return;
  if (pool == nullptr || !prepared_parallel_) {
    PartitionBatchSerial(tasks, matrix);
    return;
  }
  // Region-per-phase execution of the same pieces the fused path drives
  // through in-region barriers: one region per pass.
  pool->ParallelForDynamic(static_cast<int64_t>(prepared_chunks_), 1,
                           [&](int64_t begin, int64_t end, int) {
                             CountChunkRange(tasks, matrix, begin, end);
                           });
  ScanTasksSerial(tasks);
  pool->ParallelForDynamic(static_cast<int64_t>(prepared_chunks_), 1,
                           [&](int64_t begin, int64_t end, int) {
                             ScatterChunkRange(tasks, matrix, begin, end);
                           });
  FinishBatchSerial(tasks);
}

void RowPartitioner::AddToMargins(int node_id, double value,
                                  std::vector<double>* margins) const {
  CheckNode(node_id);
  ForEachRow(node_id, [&](uint32_t rid, float, float) {
    (*margins)[rid] += value;
  });
}

PartitionStats RowPartitioner::stats() const {
  PartitionStats s;
  s.grow_events = grow_events_.load(std::memory_order_relaxed);
  s.splits = splits_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.barriers = barriers_.load(std::memory_order_relaxed);
  s.bytes_moved = bytes_moved_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace harp
