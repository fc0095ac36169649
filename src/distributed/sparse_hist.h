// SparseHistogram wire format for the compressed histogram exchange.
//
// Block-distributed GBDT (Vasiloudis et al., PAPERS.md) shows the per-batch
// histogram exchange dominates sharded training cost, and that most of the
// exchanged cells are zero: a node deep in the tree holds few rows, each
// row touches one bin per feature, and sparse datasets leave most non-
// missing bins empty. This codec ships only the touched cells:
//
//   header | run list | region bitmaps | cells
//
// The histograms of one exchange (a TopK batch: num_hists node histograms
// of cells_per_hist GHPair slots each) are viewed as one virtual
// concatenation, cut into REGIONS of kSparseRegionCells cells (regions
// never straddle a histogram boundary; the last region of each histogram
// may be partial). A region is TOUCHED when any of its cells has nonzero
// bits. The run list is the sorted, merged list of touched region ranges;
// each listed region carries a one-byte occupancy bitmap (bit i = cell
// begin+i is nonzero — kSparseRegionCells is 8 exactly so one region is
// one byte), and the payload stores ONLY the set cells, in region order
// then bit order. The bitmap matters because bin 0 of every feature is
// the missing-value bin: any node with rows touches it for every feature,
// so without per-cell occupancy every feature would drag a full region
// onto the wire — with it, a lone hot missing bin costs 9 bytes, not a
// region. Cells are raw f64 GHPairs (16 B) or — when the round's
// gradients are quantized — the int64 fixed-point cells of
// core/quantize.h (8 B). Quantized cells are EXACT re-encodings: power-
// of-two scales make the f64 histogram value k*2^-s, so multiplying by 2^s
// recovers the integer k bit for bit, and the integer sums dequantize back
// exactly.
//
// Determinism: FoldSparseHist merges the other ranks' frames with one
// cursor per rank over its sorted run list and combines each cell in
// ascending rank order (the first contributor assigns, later ones add),
// reading the folding rank's own cells from its dense histograms, so the
// result is bitwise identical to the dense rank-ordered reduction whenever
// skipped cells are exact +0.0 — which this pipeline guarantees (cells
// with -0.0 bits count as touched and are shipped).
//
// Cost: the encoder writes its frame once at its exact size: it first
// computes one occupancy byte per region, then sizes the frame, then
// writes it. The fold writes only the touched cells of the folding rank's
// histograms. Both split their work by histogram over an optional
// ThreadPool. Each histogram's bytes land at offsets that follow from the
// occupancy alone, so frames are byte-identical for every thread count.
//
// All parsing entry points validate the frame (magic, version, geometry,
// run monotonicity, payload size) and throw std::runtime_error on
// malformed input — frames may arrive from a real socket.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/gh.h"
#include "core/quantize.h"
#include "distributed/transport.h"

namespace harp {

class ThreadPool;

// Cells per touched-region flag. Exactly 8 so a region's occupancy bitmap
// is one byte; small enough that a deep node's handful of touched bins
// does not drag in whole features, large enough that the run list stays a
// fraction of the payload.
inline constexpr uint32_t kSparseRegionCells = 8;

inline constexpr uint32_t kSparseHistMagic = 0x31505348u;  // "HSP1" (LE)
inline constexpr uint16_t kSparseHistVersion = 1;

#pragma pack(push, 1)
struct SparseHistHeader {
  uint32_t magic = kSparseHistMagic;
  uint16_t version = kSparseHistVersion;
  uint16_t flags = 0;  // bit 0: quantized int64 cells
  uint32_t num_hists = 0;
  uint32_t cells_per_hist = 0;
  uint32_t num_runs = 0;
  uint32_t payload_cells = 0;  // total SET bits across all region bitmaps
};
struct SparseHistRun {
  uint32_t first_region = 0;
  uint32_t num_regions = 0;
};
#pragma pack(pop)

inline constexpr uint16_t kSparseHistFlagQuant = 1;

// How one exchange's cells are encoded. When `quant` is set the scales
// must be the round's globally agreed quantization scales.
struct SparseHistFormat {
  bool quant = false;
  QuantScales scales;
};

// Every codec function runs serially when `pool` is null, and otherwise
// splits its work by histogram over the pool; the caller must not be
// inside one of the pool's parallel regions.

// Encodes `num_hists` histograms of `cells` GHPair slots each and appends
// the frame to *out. (The reduce-scatter encodes one frame per owner's
// cell range, back to back: each histogram pointer offset to the range's
// first cell, and `cells` its width.)
void EncodeSparseHist(const GHPair* const* hists, uint32_t num_hists,
                      uint32_t cells, const SparseHistFormat& fmt,
                      std::vector<uint8_t>* out, ThreadPool* pool = nullptr);

// Folds every other rank's frame into this rank's histograms, in place:
// `hists` (`num_hists` of `cells` slots) hold rank `self`'s own
// contribution, dense, and frames[self] is not read (a rank need not
// encode its own cells). Afterwards every cell any rank touched holds the
// rank-ordered sum — quantized cells summed as integers and dequantized
// exactly — and every other cell keeps its +0.0. All frames must describe
// the same geometry/format; throws std::runtime_error on malformed or
// inconsistent frames, before any cell is written.
void FoldSparseHist(const Transport::Frames& frames, size_t self,
                    GHPair* const* hists, uint32_t num_hists, uint32_t cells,
                    const SparseHistFormat& fmt, ThreadPool* pool = nullptr);

// Bytes a dense f64 exchange of the same histograms would ship one way.
inline int64_t DenseHistBytes(uint32_t num_hists, uint32_t cells) {
  return static_cast<int64_t>(num_hists) * cells *
         static_cast<int64_t>(sizeof(GHPair));
}

}  // namespace harp
