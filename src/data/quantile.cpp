#include "data/quantile.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "parallel/thread_pool.h"

namespace harp {
namespace {

// Below this many values a comparison sort beats the radix passes, whose
// four 256-bucket histograms cost about as much as the values themselves.
constexpr size_t kRadixMinValues = 512;

// Order-preserving uint32 image of a non-NaN float: unsigned order of the
// keys is float order, with -0.0 below +0.0 (the gather canonicalises -0.0
// away). Negative floats flip every bit, positive floats only the sign.
uint32_t SortKey(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits ^ ((bits >> 31) != 0 ? 0xFFFFFFFFu : 0x80000000u);
}

float FromSortKey(uint32_t key) {
  const uint32_t bits = key ^ ((key >> 31) != 0 ? 0x80000000u : 0xFFFFFFFFu);
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// Sorts keys[0, n) ascending and drops duplicates; returns the distinct
// count. LSD radix over 8-bit digits, skipping any digit all keys share
// (low-cardinality and integer-valued features skip most passes).
// `scratch` holds at least n keys.
size_t SortUnique(uint32_t* keys, size_t n, uint32_t* scratch) {
  if (n < kRadixMinValues) {
    std::sort(keys, keys + n);
  } else {
    uint32_t counts[4][256] = {};
    for (size_t i = 0; i < n; ++i) {
      for (int d = 0; d < 4; ++d) ++counts[d][(keys[i] >> (8 * d)) & 0xFF];
    }
    uint32_t* src = keys;
    uint32_t* dst = scratch;
    for (int d = 0; d < 4; ++d) {
      const int shift = 8 * d;
      if (counts[d][(keys[0] >> shift) & 0xFF] == n) continue;
      uint32_t offset[256];
      uint32_t sum = 0;
      for (int b = 0; b < 256; ++b) {
        offset[b] = sum;
        sum += counts[d][b];
      }
      for (size_t i = 0; i < n; ++i) {
        dst[offset[(src[i] >> shift) & 0xFF]++] = src[i];
      }
      std::swap(src, dst);
    }
    if (src != keys) std::memcpy(keys, src, n * sizeof(uint32_t));
  }
  return static_cast<size_t>(std::unique(keys, keys + n) - keys);
}

// One row chunk's present values as sort keys, one vector per feature.
struct Chunk {
  std::vector<uint32_t> counts;             // present values per feature
  std::vector<std::vector<uint32_t>> keys;  // reserved to counts exactly
  std::vector<uint32_t> scratch;            // radix scratch: max(counts)
};

// The row loops below update only thread-local arrays: the chunks' own
// arrays sit side by side in memory, and writing them per cell would
// bounce shared cache lines between threads.
void CountChunk(const Dataset& dataset, uint32_t begin, uint32_t end,
                Chunk* chunk) {
  std::vector<uint32_t> counts(dataset.num_features(), 0);
  for (uint32_t r = begin; r < end; ++r) {
    dataset.ForEachInRow(r, [&](uint32_t f, float v) {
      if (!IsMissing(v)) ++counts[f];
    });
  }
  chunk->counts = std::move(counts);
}

// Gathers the present values of rows [begin, end) into the exactly
// reserved key vectors, then sorts and dedupes each.
void GatherChunk(const Dataset& dataset, uint32_t begin, uint32_t end,
                 Chunk* chunk) {
  std::vector<uint32_t*> cursor(dataset.num_features());
  for (size_t f = 0; f < cursor.size(); ++f) {
    chunk->keys[f].resize(chunk->counts[f]);  // within the reservation
    cursor[f] = chunk->keys[f].data();
  }
  for (uint32_t r = begin; r < end; ++r) {
    dataset.ForEachInRow(r, [&](uint32_t f, float v) {
      // -0.0 == +0.0, and only one of them may survive the dedupe.
      if (!IsMissing(v)) *cursor[f]++ = SortKey(v == 0.0f ? 0.0f : v);
    });
  }
  for (std::vector<uint32_t>& keys : chunk->keys) {
    keys.resize(SortUnique(keys.data(), keys.size(), chunk->scratch.data()));
  }
}

// Merges every chunk's sorted distinct keys for `feature` into one sorted
// distinct float list.
void MergeFeature(const std::vector<Chunk>& chunks, uint32_t feature,
                  std::vector<float>* values) {
  struct Run {
    const uint32_t* it;
    const uint32_t* end;
  };
  std::vector<Run> runs;
  size_t total = 0;
  for (const Chunk& chunk : chunks) {
    const std::vector<uint32_t>& keys = chunk.keys[feature];
    if (!keys.empty()) runs.push_back({keys.data(), keys.data() + keys.size()});
    total += keys.size();
  }
  values->clear();
  values->reserve(total);
  while (!runs.empty()) {
    uint32_t next = *runs[0].it;
    for (const Run& run : runs) next = std::min(next, *run.it);
    values->push_back(FromSortKey(next));
    for (size_t i = 0; i < runs.size();) {
      if (*runs[i].it == next && ++runs[i].it == runs[i].end) {
        runs[i] = runs.back();
        runs.pop_back();
      } else {
        ++i;
      }
    }
  }
}

// Cuts for one feature given its sorted distinct present values.
void CutsForFeature(const std::vector<float>& values, int max_cuts,
                    std::vector<float>* out) {
  out->clear();
  if (values.empty()) return;
  const size_t distinct = values.size();

  if (distinct <= static_cast<size_t>(max_cuts)) {
    // One bin per distinct value; cut between adjacent values so binning is
    // exact. The last cut sits above the maximum so every value maps.
    out->reserve(distinct);
    for (size_t i = 0; i + 1 < distinct; ++i) {
      const float mid =
          values[i] + (values[i + 1] - values[i]) * 0.5f;
      // Guard degenerate midpoints from float rounding on close values.
      out->push_back(mid > values[i] ? mid : values[i]);
    }
    out->push_back(values.back());
    return;
  }

  // More distinct values than cuts: evenly spaced quantiles of the
  // distinct-value sequence. Using distinct values (not raw multiplicity)
  // matches the reuse of XGBoost's sketch at our data scale and keeps the
  // result deterministic.
  out->reserve(static_cast<size_t>(max_cuts));
  for (int c = 1; c < max_cuts; ++c) {
    const size_t idx = static_cast<size_t>(
        static_cast<double>(c) * static_cast<double>(distinct) / max_cuts);
    out->push_back(values[std::min(idx, distinct - 1)]);
  }
  // The final cut is always the maximum so every value maps; dedupe keeps
  // the cut count at most max_cuts.
  out->push_back(values.back());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

}  // namespace

// Each pool thread counts, gathers and sorts/dedupes its own row chunk;
// then a per-feature merge joins the chunks' distinct lists. The merged
// list is the data's set of distinct values whatever the chunking, so the
// cuts do not depend on the thread count.
QuantileCuts QuantileCuts::Compute(const Dataset& dataset, int max_bins,
                                   ThreadPool* pool) {
  HARP_CHECK_GE(max_bins, 2);
  HARP_CHECK_LE(max_bins, 256);
  const uint32_t num_features = dataset.num_features();
  const int max_cuts = max_bins - 1;

  // One chunk per thread, the same rows in both ParallelFor regions (a
  // static schedule); a thread left without rows keeps empty vectors.
  std::vector<Chunk> chunks(
      static_cast<size_t>(pool != nullptr ? pool->num_threads() : 1));
  for (Chunk& chunk : chunks) {
    chunk.counts.assign(num_features, 0);
    chunk.keys.resize(num_features);
  }
  const int64_t num_rows = dataset.num_rows();
  auto for_each_chunk = [&](const ThreadPool::RangeFn& fn) {
    if (pool != nullptr) {
      pool->ParallelFor(num_rows, fn);
    } else {
      fn(0, num_rows, 0);
    }
  };
  for_each_chunk([&](int64_t begin, int64_t end, int thread_id) {
    CountChunk(dataset, static_cast<uint32_t>(begin),
               static_cast<uint32_t>(end),
               &chunks[static_cast<size_t>(thread_id)]);
  });
  // The key buffers are allocated here, on the calling thread, so they come
  // from its malloc arena, which later work reuses. Allocated on the pool
  // threads, they would stay resident in those threads' arenas after Compute
  // frees them.
  for (Chunk& chunk : chunks) {
    for (uint32_t f = 0; f < num_features; ++f) {
      chunk.keys[f].reserve(chunk.counts[f]);
    }
    if (num_features > 0) {
      chunk.scratch.resize(
          *std::max_element(chunk.counts.begin(), chunk.counts.end()));
    }
  }
  for_each_chunk([&](int64_t begin, int64_t end, int thread_id) {
    GatherChunk(dataset, static_cast<uint32_t>(begin),
                static_cast<uint32_t>(end),
                &chunks[static_cast<size_t>(thread_id)]);
  });

  std::vector<std::vector<float>> feature_cuts(num_features);
  auto merge = [&](int64_t begin, int64_t end, int) {
    std::vector<float> values;
    for (int64_t f = begin; f < end; ++f) {
      MergeFeature(chunks, static_cast<uint32_t>(f), &values);
      CutsForFeature(values, max_cuts, &feature_cuts[static_cast<size_t>(f)]);
    }
  };
  if (pool != nullptr) {
    pool->ParallelForDynamic(num_features, 8, merge);
  } else {
    merge(0, num_features, 0);
  }

  QuantileCuts cuts;
  cuts.max_bins_ = max_bins;
  cuts.cut_ptr_.resize(num_features + 1, 0);
  for (uint32_t f = 0; f < num_features; ++f) {
    cuts.cut_ptr_[f + 1] =
        cuts.cut_ptr_[f] + static_cast<uint32_t>(feature_cuts[f].size());
  }
  cuts.cuts_.reserve(cuts.cut_ptr_.back());
  for (uint32_t f = 0; f < num_features; ++f) {
    cuts.cuts_.insert(cuts.cuts_.end(), feature_cuts[f].begin(),
                      feature_cuts[f].end());
  }
  return cuts;
}

float QuantileCuts::CutFor(uint32_t feature, uint32_t bin) const {
  HARP_CHECK_GE(bin, 1u);
  HARP_CHECK_LE(bin, NumCuts(feature));
  return cuts_[cut_ptr_[feature] + bin - 1];
}

QuantileCuts QuantileCuts::FromRaw(std::vector<float> cuts,
                                   std::vector<uint32_t> cut_ptr,
                                   int max_bins) {
  HARP_CHECK(!cut_ptr.empty());
  HARP_CHECK_EQ(cut_ptr.back(), cuts.size());
  QuantileCuts result;
  result.cuts_ = std::move(cuts);
  result.cut_ptr_ = std::move(cut_ptr);
  result.max_bins_ = max_bins;
  return result;
}

bool QuantileCuts::ValidCutPtr(const std::vector<uint32_t>& cut_ptr,
                               int max_bins) {
  if (cut_ptr.empty() || cut_ptr.front() != 0) return false;
  for (size_t f = 0; f + 1 < cut_ptr.size(); ++f) {
    if (cut_ptr[f + 1] < cut_ptr[f] ||
        cut_ptr[f + 1] - cut_ptr[f] >= static_cast<uint32_t>(max_bins)) {
      return false;
    }
  }
  return true;
}

bool QuantileCuts::ValidCutValues(const std::vector<float>& cuts,
                                  const std::vector<uint32_t>& cut_ptr) {
  for (size_t f = 0; f + 1 < cut_ptr.size(); ++f) {
    for (uint32_t i = cut_ptr[f]; i < cut_ptr[f + 1]; ++i) {
      if (std::isnan(cuts[i])) return false;
      if (i > cut_ptr[f] && cuts[i] < cuts[i - 1]) return false;
    }
  }
  return true;
}

}  // namespace harp
