// Specialized histogram-accumulation kernels: the BuildHist hot path.
//
// The paper's hotspot analysis (Section III, Fig. 4, Table I) shows
// BuildHist dominates training and is memory-bound. The generic
// AccumulateRow reference (hist_builder.h) walks one row at a time through
// a per-row callback and re-tests the bin filter on every feature. The
// kernels here attack exactly that access pattern:
//
//   * 4-row interleaving: each inner iteration accumulates four rows
//     feature-by-feature, so one sweep over the histogram serves four rows
//     (4x less GHSum traffic) and every feature step issues four
//     independent read-modify-write chains for the out-of-order core to
//     overlap.
//   * software prefetching: the bin bytes of upcoming rows (MemBuf entries
//     or gathered rows) are prefetched while the current group is
//     processed.
//   * compile-time dispatch over {MemBuf, gather} x {full bin range,
//     filtered bin range} x {full feature block, tiled feature block}, so
//     the common DP configuration (MemBuf, no bin filter, one feature
//     block) runs a branch-free inner loop instead of the generic filtered
//     one. The variant is selected ONCE per Build call, not per row.
//
// Accumulation order is preserved: for any histogram slot, contributing
// rows are added in ascending row-list order, exactly as the scalar
// reference does, so histograms — and therefore trees — are bit-identical
// to the generic path (enforced by tests/test_hist_kernels.cpp).
#pragma once

#include <cstdint>
#include <utility>

#include "core/gh.h"
#include "core/row_partitioner.h"
#include "core/simd.h"
#include "data/binned_matrix.h"

namespace harp {

// Contiguous half-open ranges [first, second). (Also re-exported by
// hist_builder.h; kept here so the kernel layer is self-contained.)
using Range = std::pair<uint32_t, uint32_t>;

// Per-matrix constants captured once per Build call (non-owning).
struct HistKernelMatrix {
  const uint8_t* bins = nullptr;          // row-major bin ids
  const uint32_t* bin_offsets = nullptr;  // per-feature histogram offsets
  uint32_t num_features = 0;              // row stride of `bins`
  const GradientPair* gradients = nullptr;  // gather source only
  // Packed per-row quantized pairs (quantize.h layout), indexed by row id.
  // Quantized kernels always gather through this array — the MemBuf
  // entries' float g/h stay authoritative for the partitioner's fused
  // child sums, so they cannot carry the packed bits.
  const int32_t* qgradients = nullptr;
};

// One node's row list; exactly one pointer is set, matching the
// RowPartitioner layout (MemBuf on/off). Points into the node's window of
// the partitioner's flat arena, so it is invalidated when that node is
// split (kernels run strictly before their node's split, so this is safe).
struct HistRowSource {
  const MemBufEntry* entries = nullptr;  // (rid, g, h) triples
  const uint32_t* row_ids = nullptr;     // ids into `gradients`
};

// Accumulates rows [begin, end) of `src` into `hist` over features
// [fb.first, fb.second), restricted to bin ids in [bins.first, bins.second).
// Variants compiled for the full bin range / full feature block ignore the
// corresponding argument.
using HistKernelFn = void (*)(const HistKernelMatrix& m,
                              const HistRowSource& src, uint32_t begin,
                              uint32_t end, GHPair* hist, Range fb,
                              Range bins);

// Quantized counterpart: accumulates WidenQuant(m.qgradients[rid]) addends
// into 8-byte int64 cells (quantize.h layout) instead of 16-byte GHPairs.
using QuantKernelFn = void (*)(const HistKernelMatrix& m,
                               const HistRowSource& src, uint32_t begin,
                               uint32_t end, int64_t* hist, Range fb,
                               Range bins);

// One compiled instantiation of the kernel layer. The scalar TU fills one
// portably; the AVX2 TU (-mavx2 -mfma, HARP_ENABLE_AVX2) fills another.
// Which table runs is a pure runtime decision (core/simd.h).
struct HistKernelTables {
  // [membuf][full bins][full features], as SelectHistKernel indexes.
  HistKernelFn f64[2][2][2];
  QuantKernelFn quant[2][2][2];
  // Elementwise companions that share the table's ISA level:
  // round-to-nearest-even quantization of [begin, end) rows,
  void (*quantize_rows)(const GradientPair* gh, uint32_t begin, uint32_t end,
                        float g_scale, float h_scale, int32_t* out);
  // int64 cells -> f64 GHPairs (exact: integers times a power of two),
  void (*dequantize)(const int64_t* cells, GHPair* out, size_t n,
                     double g_inv, double h_inv);
  // and the quantized-domain replica reduction.
  void (*add_i64)(int64_t* dst, const int64_t* src, size_t n);
};

// The portable table (always available).
const HistKernelTables& ScalarKernelTables();
// The -mavx2 table, or nullptr when the binary was built without
// HARP_ENABLE_AVX2. Availability on the running CPU is the dispatcher's
// job (core/simd.h), not this accessor's.
const HistKernelTables* Avx2KernelTables();
// Table for a resolved level (level must be runnable; see SimdSupported).
const HistKernelTables& KernelTables(SimdLevel level);

// Picks the specialized kernel for a Build call. `full_bin_range` means the
// bin filter passed to every call covers all bin ids the matrix produces;
// `full_feature_block` means fb covers [0, num_features).
HistKernelFn SelectHistKernel(bool use_membuf, bool full_bin_range,
                              bool full_feature_block,
                              SimdLevel level = SimdLevel::kScalar);
QuantKernelFn SelectQuantHistKernel(bool use_membuf, bool full_bin_range,
                                    bool full_feature_block,
                                    SimdLevel level = SimdLevel::kScalar);

// Kernel-call views over the existing structures. `qgradients` may be null
// (f64 path); quantized kernel selection requires it.
HistKernelMatrix MakeHistKernelMatrix(const BinnedMatrix& matrix,
                                      const RowPartitioner& partitioner,
                                      const int32_t* qgradients = nullptr);
HistRowSource MakeHistRowSource(const RowPartitioner& partitioner,
                                int node_id);

}  // namespace harp
