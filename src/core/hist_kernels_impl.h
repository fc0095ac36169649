// Histogram-kernel template bodies, compiled once per ISA level.
//
// This header is the single source of the accumulation kernels and their
// elementwise companions (quantize / dequantize / int64 reduce). It is
// included by exactly two translation units:
//
//   hist_kernels.cpp       portable baseline flags -> the scalar table
//   hist_kernels_avx2.cpp  -mavx2 -mfma (HARP_ENABLE_AVX2 CMake option)
//                          -> the AVX2 table
//
// Each includer defines HARP_KERNEL_NS (the namespace the instantiation
// lands in) before including, so the two compilations never collide and
// which one runs is a pure runtime decision (core/simd.h). Inside the
// AVX2 TU, __AVX2__ is defined by the flags and the explicit-intrinsic
// paths below replace the portable loops.
//
// Bit-identity contract (enforced by tests/test_hist_kernels.cpp and
// tests/test_quantize.cpp):
//   * f64 kernels: per-slot accumulation order is ascending row-list
//     order and every update is the same pair of IEEE-754 double adds,
//     so scalar-TU and AVX2-TU histograms are bit-identical to the
//     AccumulateRow reference.
//   * quant kernels: integer accumulation is order-independent, the
//     scalar round (nearbyintf under the default rounding mode) matches
//     the AVX2 cvtps round (RNE), and dequantization multiplies exact
//     integers by exact powers of two — so forced-scalar and forced-AVX2
//     runs are bit-identical end to end.
#ifndef HARP_KERNEL_NS
#error "define HARP_KERNEL_NS before including hist_kernels_impl.h"
#endif

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "core/hist_kernels.h"
#include "core/quantize.h"

namespace harp {
namespace HARP_KERNEL_NS {
namespace {

// Rows accumulated per inner iteration. Four gives one histogram sweep per
// four rows and four independent add chains per feature; it is also the
// group size the remainder-path tests exercise.
constexpr uint32_t kRowGroup = 4;
// Bin bytes (and gathered gradient pairs) are prefetched this many rows
// ahead — two groups, far enough to cover a row's worth of accumulation.
constexpr uint32_t kRowPrefetchDist = 2 * kRowGroup;
// Two-level cache blocking for the full-feature kernels: rows are walked
// in tiles small enough that their bin rows stay cache-resident while the
// feature loop re-visits them, and features in tiles that confine the
// histogram write window (16 features x 256 bins x 16 B = 64 KB worst
// case, L1/L2-resident; the quantized cells halve that). Per-slot
// accumulation order is still ascending row id — a slot belongs to exactly
// one feature — so tiling cannot change results, only locality.
constexpr uint32_t kRowTile = 2048;
constexpr uint32_t kFeatureTile = 16;

#if defined(__GNUC__) || defined(__clang__)
#define HARP_PREFETCH_READ(addr) __builtin_prefetch((addr), 0, 3)
#else
#define HARP_PREFETCH_READ(addr) ((void)(addr))
#endif

// Prefetches the first and the last byte of a row's feature window
// [f_begin, f_end), so a window that straddles a cache line arrives whole
// (a 65-byte row always spans two lines).
inline void PrefetchRowWindow(const uint8_t* row, uint32_t f_begin,
                              uint32_t f_end) {
  HARP_PREFETCH_READ(row + f_begin);
  HARP_PREFETCH_READ(row + (f_end > f_begin ? f_end - 1 : f_begin));
}

#if defined(__SSE2__)
// One fused 16-byte load/add/store per slot update. addpd performs the
// same two IEEE-754 double additions as GHPair::Add, so results stay
// bit-identical to the scalar reference — only the instruction count per
// update drops (1 load + 1 add + 1 store instead of 2 of each).
struct GHVec {
  __m128d v;
  GHVec() = default;
  explicit GHVec(float gf, float hf)
      : v(_mm_set_pd(static_cast<double>(hf), static_cast<double>(gf))) {}
  inline void AddTo(GHPair* slot) const {
    _mm_storeu_pd(reinterpret_cast<double*>(slot),
                  _mm_add_pd(_mm_loadu_pd(reinterpret_cast<double*>(slot)),
                             v));
  }
};
#else
struct GHVec {
  double g, h;
  GHVec() = default;
  explicit GHVec(float gf, float hf)
      : g(static_cast<double>(gf)), h(static_cast<double>(hf)) {}
  inline void AddTo(GHPair* slot) const {
    slot->g += g;
    slot->h += h;
  }
};
#endif

template <bool kMemBuf>
inline uint32_t RowIdAt(const HistKernelMatrix& m, const HistRowSource& src,
                        uint32_t i) {
  (void)m;
  if constexpr (kMemBuf) {
    return src.entries[i].rid;
  } else {
    return src.row_ids[i];
  }
}

template <bool kMemBuf>
inline void LoadRow(const HistKernelMatrix& m, const HistRowSource& src,
                    uint32_t i, const uint8_t** row_bins, float* g, float* h) {
  if constexpr (kMemBuf) {
    const MemBufEntry& e = src.entries[i];
    *row_bins = m.bins + static_cast<size_t>(e.rid) * m.num_features;
    *g = e.g;
    *h = e.h;
  } else {
    const uint32_t rid = src.row_ids[i];
    *row_bins = m.bins + static_cast<size_t>(rid) * m.num_features;
    *g = m.gradients[rid].g;
    *h = m.gradients[rid].h;
  }
}

// One row, scalar — the ramp-down path for groups smaller than kRowGroup.
inline void AccumulateOne(const uint8_t* row_bins, float g, float h,
                          const uint32_t* offsets, GHPair* hist,
                          uint32_t f_begin, uint32_t f_end) {
  for (uint32_t f = f_begin; f < f_end; ++f) {
    hist[offsets[f] + row_bins[f]].Add(g, h);
  }
}

// Feature sweep over one 4-row group.
inline void AccumulateGroup(const uint8_t* const b[kRowGroup],
                            const float g[kRowGroup], const float h[kRowGroup],
                            const uint32_t* offsets, GHPair* hist,
                            uint32_t f_begin, uint32_t f_end) {
  // float->double widening hoisted out of the feature sweep: once per
  // group instead of once per slot update. (Constant-bound u loops below
  // fully unroll at the kernel TU's -O3.)
  GHVec vs[kRowGroup];
  for (uint32_t u = 0; u < kRowGroup; ++u) vs[u] = GHVec(g[u], h[u]);
  for (uint32_t f = f_begin; f < f_end; ++f) {
    const uint32_t off = offsets[f];
    for (uint32_t u = 0; u < kRowGroup; ++u) {
      vs[u].AddTo(hist + off + b[u][f]);
    }
  }
}

// The 4-row interleaved sweep over one (row range, feature range) tile.
template <bool kMemBuf>
void AccumulateTile(const HistKernelMatrix& m, const HistRowSource& src,
                    uint32_t begin, uint32_t end, GHPair* hist,
                    uint32_t f_begin, uint32_t f_end) {
  const uint32_t* const offsets = m.bin_offsets;

  const uint8_t* b[kRowGroup];
  float g[kRowGroup];
  float h[kRowGroup];

  uint32_t i = begin;
  for (; i + kRowGroup <= end; i += kRowGroup) {
    // Stream-ahead prefetch: bin bytes (and gathered gradients) of the
    // group after next, so they are resident by the time it is loaded.
    if (i + kRowPrefetchDist + kRowGroup <= end) {
      for (uint32_t u = 0; u < kRowGroup; ++u) {
        const uint32_t rid = RowIdAt<kMemBuf>(m, src, i + kRowPrefetchDist + u);
        PrefetchRowWindow(m.bins + static_cast<size_t>(rid) * m.num_features,
                          f_begin, f_end);
        if constexpr (!kMemBuf) HARP_PREFETCH_READ(m.gradients + rid);
      }
    }
    for (uint32_t u = 0; u < kRowGroup; ++u) {
      LoadRow<kMemBuf>(m, src, i + u, &b[u], &g[u], &h[u]);
    }
    AccumulateGroup(b, g, h, offsets, hist, f_begin, f_end);
  }
  // Remainder rows (row lists are rarely multiples of four).
  for (; i < end; ++i) {
    const uint8_t* row_bins;
    float gr;
    float hr;
    LoadRow<kMemBuf>(m, src, i, &row_bins, &gr, &hr);
    AccumulateOne(row_bins, gr, hr, offsets, hist, f_begin, f_end);
  }
}

template <bool kMemBuf, bool kFullFeatures>
void AccumulateRange(const HistKernelMatrix& m, const HistRowSource& src,
                     uint32_t begin, uint32_t end, GHPair* hist, Range fb) {
  if constexpr (kFullFeatures) {
    // The kernel owns the whole feature space, so it is free to impose
    // the cache blocking itself: feature tiles keep the histogram write
    // window resident, row tiles keep the re-visited bin rows resident.
    const uint32_t nf = m.num_features;
    if (nf <= kFeatureTile) {
      AccumulateTile<kMemBuf>(m, src, begin, end, hist, 0u, nf);
      return;
    }
    for (uint32_t r = begin; r < end; r += kRowTile) {
      const uint32_t r_end = std::min(end, r + kRowTile);
      for (uint32_t f = 0; f < nf; f += kFeatureTile) {
        AccumulateTile<kMemBuf>(m, src, r, r_end, hist, f,
                                std::min(nf, f + kFeatureTile));
      }
    }
  } else {
    // Caller-tiled feature block: accumulate it as one tile.
    AccumulateTile<kMemBuf>(m, src, begin, end, hist, fb.first, fb.second);
  }
}

// ---------------------------------------------------------------------
// Quantized kernels: 8-byte int64 cells fed by 4-byte packed pairs.
// Same interleaving/tiling/prefetch skeleton as the f64 kernels; the
// per-update work drops from two double adds on a 16-byte cell to one
// integer add on an 8-byte cell, and the per-row gradient read drops
// from 8-12 bytes to 4 (quantize.h has the Section III-B arithmetic).
// ---------------------------------------------------------------------

template <bool kMemBuf>
inline void LoadRowQ(const HistKernelMatrix& m, const HistRowSource& src,
                     uint32_t i, const uint8_t** row_bins, int32_t* packed) {
  // Both layouts read the packed pair through m.qgradients: the MemBuf
  // entries' float g/h stay authoritative for the partitioner's fused
  // child sums, so they cannot carry the packed bits. Row ids within a
  // node are ascending (stable partition), so this "gather" walks
  // qgradients monotonically.
  const uint32_t rid = RowIdAt<kMemBuf>(m, src, i);
  *row_bins = m.bins + static_cast<size_t>(rid) * m.num_features;
  *packed = m.qgradients[rid];
}

// Widens a 4-row group of packed pairs into int64 cell addends, hoisted
// out of the feature sweep like the f64 GHVec construction.
inline void WidenQuantGroup(const int32_t p[kRowGroup],
                            int64_t w[kRowGroup]) {
#if defined(__AVX2__)
  // Explicit-intrinsic widen: all four rows at once.
  //   hi32 = packed >> 16 (arithmetic: signed g), lo32 = packed & 0xFFFF
  //   cell addend = (int64)hi32 << 32 | lo32
  const __m128i packed =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i hi32 = _mm_srai_epi32(packed, 16);
  const __m128i lo32 = _mm_and_si128(packed, _mm_set1_epi32(0xFFFF));
  const __m256i hi = _mm256_slli_epi64(_mm256_cvtepi32_epi64(hi32), 32);
  const __m256i lo = _mm256_cvtepi32_epi64(lo32);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(w),
                      _mm256_add_epi64(hi, lo));
#else
  for (uint32_t u = 0; u < kRowGroup; ++u) w[u] = WidenQuant(p[u]);
#endif
}

inline void AccumulateOneQ(const uint8_t* row_bins, int32_t packed,
                           const uint32_t* offsets, int64_t* hist,
                           uint32_t f_begin, uint32_t f_end) {
  const int64_t w = WidenQuant(packed);
  for (uint32_t f = f_begin; f < f_end; ++f) {
    hist[offsets[f] + row_bins[f]] += w;
  }
}

inline void AccumulateGroupQ(const uint8_t* const b[kRowGroup],
                             const int64_t w[kRowGroup],
                             const uint32_t* offsets, int64_t* hist,
                             uint32_t f_begin, uint32_t f_end) {
  for (uint32_t f = f_begin; f < f_end; ++f) {
    const uint32_t off = offsets[f];
    for (uint32_t u = 0; u < kRowGroup; ++u) {
      hist[off + b[u][f]] += w[u];
    }
  }
}

#if defined(__AVX2__)
// Fast path for an exactly-16-feature tile, one row per
// iteration. Because integer accumulation is order-independent, the
// quant kernel is free to abandon the f64 kernel's 4-row interleave and
// instead vectorize the ADDRESS ARITHMETIC: one 16-byte bin load plus
// two YMM adds against the preloaded bin offsets yield all 16 slot
// indices of the row, and each 64-bit extraction carries two packed
// 32-bit indices. A slot update is then a single fused load-add plus
// store with no per-update movzx/lea chain — the f64 kernel cannot do
// this because its per-slot accumulation ORDER is part of its
// bit-identity contract. ILP comes from the 16 updates of one row being
// guaranteed independent (offsets partition the histogram by feature,
// so slots of different features never alias).
// One 16-feature chunk of one row: 16 slot updates from one bin load and
// two YMM index adds, extracted as packed 32-bit index pairs. (The
// compiler turns the `pairs` buffer into vpextrq/shr register extraction;
// forcing the memory form instead measures WORSE because the 32-byte
// vector store does not forward cheaply to 4-byte scalar reloads.) The 16
// updates are independent because bin offsets partition the histogram by
// feature — no two slots in a chunk alias.
inline void AccumulateChunk16Q(const uint8_t* chunk_bins,
                               const uint32_t* chunk_offsets, int64_t w,
                               int64_t* hist) {
  const __m256i off_lo = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(chunk_offsets));
  const __m256i off_hi = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(chunk_offsets + 8));
  const __m256i idx_lo = _mm256_add_epi32(
      _mm256_cvtepu8_epi32(_mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(chunk_bins))),
      off_lo);
  const __m256i idx_hi = _mm256_add_epi32(
      _mm256_cvtepu8_epi32(_mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(chunk_bins + 8))),
      off_hi);
  alignas(32) uint64_t pairs[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(pairs), idx_lo);
  _mm256_store_si256(reinterpret_cast<__m256i*>(pairs + 4), idx_hi);
  for (uint32_t j = 0; j < 8; ++j) {
    const uint64_t p = pairs[j];
    hist[static_cast<uint32_t>(p)] += w;
    hist[p >> 32] += w;
  }
}

// Row-major quant sweep over a feature window of any width: the per-row
// costs (row-id fetch, widen, prefetch) are paid once per ROW, not once
// per 16-feature tile, and each row's bin line is read exactly once. Each
// row runs whole 16-feature chunks, then a scalar tail over its last
// f_count % 16 features (integer adds, so the order is free).
template <bool kMemBuf>
void AccumulateTile16Q(const HistKernelMatrix& m, const HistRowSource& src,
                       uint32_t begin, uint32_t end, int64_t* hist,
                       uint32_t f_begin, uint32_t f_count) {
  const uint32_t* const offsets = m.bin_offsets + f_begin;
  const uint32_t f_chunks = f_count - f_count % 16;
  for (uint32_t i = begin; i < end; ++i) {
    if (i + kRowPrefetchDist < end) {
      const uint32_t prid = RowIdAt<kMemBuf>(m, src, i + kRowPrefetchDist);
      PrefetchRowWindow(m.bins + static_cast<size_t>(prid) * m.num_features,
                        f_begin, f_begin + f_count);
      HARP_PREFETCH_READ(m.qgradients + prid);
    }
    const uint32_t rid = RowIdAt<kMemBuf>(m, src, i);
    const int64_t w = WidenQuant(m.qgradients[rid]);
    const uint8_t* row_bins =
        m.bins + static_cast<size_t>(rid) * m.num_features + f_begin;
    for (uint32_t c = 0; c < f_chunks; c += 16) {
      AccumulateChunk16Q(row_bins + c, offsets + c, w, hist);
    }
    for (uint32_t c = f_chunks; c < f_count; ++c) {
      hist[offsets[c] + row_bins[c]] += w;
    }
  }
}
#endif

template <bool kMemBuf>
void AccumulateTileQ(const HistKernelMatrix& m, const HistRowSource& src,
                     uint32_t begin, uint32_t end, int64_t* hist,
                     uint32_t f_begin, uint32_t f_end) {
#if defined(__AVX2__)
  if ((f_end - f_begin) % 16 == 0 && f_end > f_begin) {
    AccumulateTile16Q<kMemBuf>(m, src, begin, end, hist, f_begin,
                               f_end - f_begin);
    return;
  }
#endif
  const uint32_t* const offsets = m.bin_offsets;

  const uint8_t* b[kRowGroup];
  alignas(16) int32_t p[kRowGroup];
  alignas(32) int64_t w[kRowGroup];

  uint32_t i = begin;
  for (; i + kRowGroup <= end; i += kRowGroup) {
    if (i + kRowPrefetchDist + kRowGroup <= end) {
      for (uint32_t u = 0; u < kRowGroup; ++u) {
        const uint32_t rid = RowIdAt<kMemBuf>(m, src, i + kRowPrefetchDist + u);
        PrefetchRowWindow(m.bins + static_cast<size_t>(rid) * m.num_features,
                          f_begin, f_end);
        HARP_PREFETCH_READ(m.qgradients + rid);
      }
    }
    for (uint32_t u = 0; u < kRowGroup; ++u) {
      LoadRowQ<kMemBuf>(m, src, i + u, &b[u], &p[u]);
    }
    WidenQuantGroup(p, w);
    AccumulateGroupQ(b, w, offsets, hist, f_begin, f_end);
  }
  for (; i < end; ++i) {
    const uint8_t* row_bins;
    int32_t packed;
    LoadRowQ<kMemBuf>(m, src, i, &row_bins, &packed);
    AccumulateOneQ(row_bins, packed, offsets, hist, f_begin, f_end);
  }
}

template <bool kMemBuf, bool kFullFeatures>
void AccumulateRangeQ(const HistKernelMatrix& m, const HistRowSource& src,
                      uint32_t begin, uint32_t end, int64_t* hist, Range fb) {
  if constexpr (kFullFeatures) {
    const uint32_t nf = m.num_features;
#if defined(__AVX2__)
    // Row-major single pass at any width from 16 up: every row's bin line
    // is read once and the per-row costs amortize over all nf updates
    // (a width that is not a multiple of 16 ends each row in a scalar
    // tail, not in an extra walk of the row tile). Bounded so the write
    // window (nf x 256 bins x 8 B worst case) stays L2-resident; wider
    // matrices fall through to the feature-tiled walk.
    if (nf >= 16 && nf <= 256) {
      AccumulateTile16Q<kMemBuf>(m, src, begin, end, hist, 0u, nf);
      return;
    }
#endif
    if (nf <= kFeatureTile) {
      AccumulateTileQ<kMemBuf>(m, src, begin, end, hist, 0u, nf);
      return;
    }
    for (uint32_t r = begin; r < end; r += kRowTile) {
      const uint32_t r_end = std::min(end, r + kRowTile);
      for (uint32_t f = 0; f < nf; f += kFeatureTile) {
        AccumulateTileQ<kMemBuf>(m, src, r, r_end, hist, f,
                                 std::min(nf, f + kFeatureTile));
      }
    }
  } else {
    AccumulateTileQ<kMemBuf>(m, src, begin, end, hist, fb.first, fb.second);
  }
}

// ---------------------------------------------------------------------
// Elementwise companions (quantize / dequantize / replica reduce).
// ---------------------------------------------------------------------

// Round-to-nearest-even quantization of [begin, end) rows. The scalar
// nearbyintf (default FE_TONEAREST mode) and the AVX2 cvtps conversion
// (default MXCSR mode) implement the same rounding, so the two TUs'
// outputs are bit-identical.
void QuantizeRows(const GradientPair* gh, uint32_t begin, uint32_t end,
                  float g_scale, float h_scale, int32_t* out) {
  uint32_t i = begin;
#if defined(__AVX2__)
  // Eight (g, h) pairs per iteration: two 256-bit loads of the
  // interleaved float pairs, one multiply by the (g, h, g, h, ...) scale
  // vector, RNE conversion, then a 64-bit-lane shift/mask pack into
  // (qg << 16) | qh and a cross-lane compaction of the eight packed
  // words.
  const __m256 scale =
      _mm256_setr_ps(g_scale, h_scale, g_scale, h_scale, g_scale, h_scale,
                     g_scale, h_scale);
  const __m256i low16 = _mm256_set1_epi64x(0xFFFF);
  const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  for (; i + 8 <= end; i += 8) {
    const float* base = reinterpret_cast<const float*>(gh + i);
    const __m256i q0 = _mm256_cvtps_epi32(
        _mm256_mul_ps(_mm256_loadu_ps(base), scale));
    const __m256i q1 = _mm256_cvtps_epi32(
        _mm256_mul_ps(_mm256_loadu_ps(base + 8), scale));
    // Each 64-bit lane holds (qh << 32) | (uint32)qg; the packed word is
    // ((qg << 16) truncated to 32 bits) | (qh & 0xFFFF), which lands in
    // the lane's low 32 bits.
    const __m256i c0 =
        _mm256_or_si256(_mm256_slli_epi64(q0, 16),
                        _mm256_and_si256(_mm256_srli_epi64(q0, 32), low16));
    const __m256i c1 =
        _mm256_or_si256(_mm256_slli_epi64(q1, 16),
                        _mm256_and_si256(_mm256_srli_epi64(q1, 32), low16));
    const __m128i lo =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(c0, pick));
    const __m128i hi =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(c1, pick));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_set_m128i(hi, lo));
  }
#endif
  for (; i < end; ++i) {
    const int32_t qg = static_cast<int32_t>(std::nearbyintf(gh[i].g * g_scale));
    const int32_t qh = static_cast<int32_t>(std::nearbyintf(gh[i].h * h_scale));
    out[i] = PackQuant(qg, qh);
  }
}

// int64 cells -> f64 GHPairs. Exact both ways of computing it: the cell
// fields are integers < 2^31 and the inverse scales are powers of two, so
// every product is exactly representable and scalar/AVX2 agree bitwise.
void Dequantize(const int64_t* cells, GHPair* out, size_t n, double g_inv,
                double h_inv) {
  size_t i = 0;
#if defined(__AVX2__)
  // Four cells per iteration: split each 64-bit cell into its g (high
  // 32, signed) and h (low 32; < 2^31 by the scale headroom, so the
  // signed int32->double convert is exact) fields, convert, scale, and
  // re-interleave into (g, h) double pairs.
  const __m256i gpick = _mm256_setr_epi32(1, 3, 5, 7, 0, 0, 0, 0);
  const __m256i hpick = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m256d gmul = _mm256_set1_pd(g_inv);
  const __m256d hmul = _mm256_set1_pd(h_inv);
  for (; i + 4 <= n; i += 4) {
    const __m256i c = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(cells + i));
    const __m128i g32 =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(c, gpick));
    const __m128i h32 =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(c, hpick));
    const __m256d gd = _mm256_mul_pd(_mm256_cvtepi32_pd(g32), gmul);
    const __m256d hd = _mm256_mul_pd(_mm256_cvtepi32_pd(h32), hmul);
    const __m256d ab = _mm256_unpacklo_pd(gd, hd);  // g0 h0 g2 h2
    const __m256d cd = _mm256_unpackhi_pd(gd, hd);  // g1 h1 g3 h3
    double* dst = reinterpret_cast<double*>(out + i);
    _mm256_storeu_pd(dst, _mm256_permute2f128_pd(ab, cd, 0x20));
    _mm256_storeu_pd(dst + 4, _mm256_permute2f128_pd(ab, cd, 0x31));
  }
#endif
  for (; i < n; ++i) {
    out[i].g = static_cast<double>(CellG(cells[i])) * g_inv;
    out[i].h = static_cast<double>(CellH(cells[i])) * h_inv;
  }
}

// dst[i] += src[i] over n cells: the DP replica reduction in the
// quantized domain (order-independent, so any schedule is bit-identical).
void AddI64(int64_t* dst, const int64_t* src, size_t n) {
  size_t i = 0;
#if defined(__AVX2__)
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_add_epi64(a, b));
  }
#endif
  for (; i < n; ++i) dst[i] += src[i];
}

#undef HARP_PREFETCH_READ

}  // namespace

// The includer's table, [membuf][full features] as SelectHistKernel
// indexes — one instantiation of the whole kernel layer at this TU's ISA
// level.
const HistKernelTables& Tables() {
  static const HistKernelTables tables = [] {
    HistKernelTables t;
    t.f64[0][0] = &AccumulateRange<false, false>;
    t.f64[0][1] = &AccumulateRange<false, true>;
    t.f64[1][0] = &AccumulateRange<true, false>;
    t.f64[1][1] = &AccumulateRange<true, true>;
    t.quant[0][0] = &AccumulateRangeQ<false, false>;
    t.quant[0][1] = &AccumulateRangeQ<false, true>;
    t.quant[1][0] = &AccumulateRangeQ<true, false>;
    t.quant[1][1] = &AccumulateRangeQ<true, true>;
    t.quantize_rows = &QuantizeRows;
    t.dequantize = &Dequantize;
    t.add_i64 = &AddI64;
    return t;
  }();
  return tables;
}

}  // namespace HARP_KERNEL_NS
}  // namespace harp
