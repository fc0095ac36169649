// Fixed-point gradient quantization for the histogram hot loop.
//
// The paper's Section III-B arithmetic makes BuildHist memory-bound on the
// 16-byte-per-update GHSum traffic plus per-row gradient reads. Following
// the GPU systems that quantize gradient pairs (Mitchell et al.; Zhang et
// al.), this module packs each (g, h) GradientPair into ONE int32 —
// g as a signed 16-bit and h as an unsigned 16-bit fixed-point value — and
// accumulates histograms in int64 cells (g sum in the high 32 bits, h sum
// in the low 32), halving both streams: 8-byte cells instead of 16, 4-byte
// gradient reads instead of 8-12.
//
// Scale selection (per boosting round, from a deterministic pass over the
// gradients): scales are POWERS OF TWO, 2^k, with k the largest exponent
// satisfying both
//   fit:  2^k * max|g|  <= 32767          (every row fits int16)
//   sum:  2^k * sum|g| + N/2 <= 2^30      (any per-cell subset sum, plus
//                                          the worst-case +-1/2 rounding
//                                          per row, fits the 32-bit field)
// (h analogously against 65535 / 2^30, with h >= 0 by construction for
// both objectives). The h field never goes negative, so the low 32 bits
// never borrow from the g field.
//
// Power-of-two scales make dequantization EXACT: every integer sum times
// 2^-k is exactly representable in double (sums are < 2^53), so
// f64 subtraction of two dequantized histograms equals the quantized-
// domain subtraction — the existing parent-minus-sibling SubtractHistogram
// is reused unchanged, and forced-scalar vs forced-AVX2 runs stay
// bit-identical (integer accumulation is order-independent).
//
// Rounding is round-to-nearest-even (scalar std::nearbyintf matches the
// AVX2 cvtps conversion under the default MXCSR mode) or, optionally,
// stochastic (unbiased, hashed from (seed, row), scalar-only so results
// stay independent of thread count and dispatch level).
#pragma once

#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "core/gh.h"

namespace harp {

class ThreadPool;

// Fixed-point bounds. g uses the symmetric int16 range so negation is
// safe; h uses the full unsigned 16-bit range (h >= 0).
inline constexpr float kQuantGMax = 32767.0f;
inline constexpr float kQuantHMax = 65535.0f;
// Per-cell 32-bit sum headroom (fit + rounding slack must stay below it).
inline constexpr double kQuantSumLimit = static_cast<double>(1u << 30);

// Per-round quantization scales: scale = 2^exp (exact in float/double).
struct QuantScales {
  int g_exp = 0;
  int h_exp = 0;
  float g_scale = 1.0f;   // 2^g_exp, applied per row at quantize time
  float h_scale = 1.0f;
  double g_inv = 1.0;     // 2^-g_exp, applied per cell at dequantize time
  double h_inv = 1.0;
};

// Packs one quantized pair. qg in [-32767, 32767], qh in [0, 65535].
inline int32_t PackQuant(int32_t qg, int32_t qh) {
  return static_cast<int32_t>((static_cast<uint32_t>(qg) << 16) |
                              (static_cast<uint32_t>(qh) & 0xFFFFu));
}
inline int32_t QuantG(int32_t packed) { return packed >> 16; }
inline int32_t QuantH(int32_t packed) {
  return static_cast<int32_t>(static_cast<uint32_t>(packed) & 0xFFFFu);
}

// Widens a packed pair into the int64 histogram-cell addend: g goes to the
// high 32 bits, h to the low 32. h contributions are non-negative and the
// scale headroom keeps every per-cell h sum below 2^31, so the low field
// never carries into or borrows from the g field.
inline int64_t WidenQuant(int32_t packed) {
  return (static_cast<int64_t>(QuantG(packed)) << 32) +
         static_cast<int64_t>(QuantH(packed));
}

// Field extraction from an accumulated cell (see WidenQuant's invariant).
inline int64_t CellG(int64_t cell) { return cell >> 32; }
inline int64_t CellH(int64_t cell) {
  return static_cast<int64_t>(static_cast<uint32_t>(cell));
}

// Gradient-stream statistics the scale choice depends on. Kept as a
// separate value so distributed workers can aggregate shard-local stats
// (max -> AllreduceMax, sum/rows -> rank-ordered AllreduceSum) and derive
// IDENTICAL scales on every rank from the agreed totals.
struct QuantStats {
  double g_max = 0.0;  // max |g|
  double h_max = 0.0;  // max h
  double g_sum = 0.0;  // sum |g|
  double h_sum = 0.0;  // sum h
  double rows = 0.0;   // row count (double: rides the f64 allreduce exactly)
};

// Scans the gradient array. Deterministic for a fixed input regardless of
// thread count: per-chunk partials (fixed 4096-row chunks) are combined
// serially in chunk order. CHECK-fails on negative hessians (all supported
// objectives produce h >= 0).
QuantStats ComputeQuantStats(const std::vector<GradientPair>& gradients,
                             ThreadPool* pool);

// Largest power-of-two exponents satisfying the fit and sum constraints
// above for the given stats.
QuantScales QuantScalesFromStats(const QuantStats& stats);

// Single-node shorthand: QuantScalesFromStats(ComputeQuantStats(...)).
QuantScales ComputeQuantScales(const std::vector<GradientPair>& gradients,
                               ThreadPool* pool);

// Quantizes every row into `out` (resized to gradients.size()).
// Deterministic rounding dispatches to the simd level's kernel table;
// stochastic rounding (unbiased, hash of (seed, row)) is scalar-only.
// `level` is an int to keep this header free of the kernel-layer types;
// pass static_cast<int>(SimdLevel).
void QuantizeGradients(const std::vector<GradientPair>& gradients,
                       const QuantScales& scales, bool stochastic,
                       uint64_t seed, int simd_level, ThreadPool* pool,
                       AlignedVector<int32_t>* out);

// out[i] = {CellG(cells[i]) * g_inv, CellH(cells[i]) * h_inv} over n slots;
// dispatches to the simd level's table. Overwrites every slot, which is
// what lets the pool skip zero-filling f64 buffers in quantized mode.
void DequantizeHistogram(const int64_t* cells, GHPair* out, size_t n,
                         const QuantScales& scales, int simd_level);

// dst[i] += src[i] over n int64 cells (the DP replica reduction in the
// quantized domain); dispatches to the simd level's table.
void AddHistogramI64(int64_t* dst, const int64_t* src, size_t n,
                     int simd_level);

// Zeroes n cells.
void ClearHistogramI64(int64_t* cells, size_t n);

// One boosting round's quantization state: the scales plus every row's
// packed pair. Owned by the tree builder (refreshed per tree, since the
// gradient distribution shifts every round); builders receive it through
// BuildContext and index `packed` by row id.
struct QuantRound {
  QuantScales scales;
  AlignedVector<int32_t> packed;
};

}  // namespace harp
