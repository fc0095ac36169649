#include "distributed/sparse_hist.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/logging.h"
#include "parallel/touched_regions.h"

namespace harp {
namespace {

static_assert(kSparseRegionCells == 8,
              "region occupancy bitmap is one byte per region");

inline uint32_t RegionsPerHist(uint32_t cells) {
  return (cells + kSparseRegionCells - 1) / kSparseRegionCells;
}

// Cells in region `region` of the virtual concatenation (the last region of
// each histogram may be partial).
inline uint32_t CellsInRegion(uint32_t region, uint32_t regions_per_hist,
                              uint32_t cells) {
  const uint32_t local = region % regions_per_hist;
  const uint32_t begin = local * kSparseRegionCells;
  return std::min(kSparseRegionCells, cells - begin);
}

inline bool CellNonZero(const GHPair& cell) {
  uint64_t bits[2];
  std::memcpy(bits, &cell, sizeof(bits));
  return (bits[0] | bits[1]) != 0;
}

[[noreturn]] void Malformed(const std::string& what) {
  throw std::runtime_error("SparseHistogram: malformed frame: " + what);
}

struct ParsedFrame {
  SparseHistHeader header;
  const SparseHistRun* runs = nullptr;
  const uint8_t* bitmaps = nullptr;  // one byte per listed region
  const uint8_t* payload = nullptr;
  uint32_t listed_regions = 0;
  size_t cell_bytes = 0;
};

// Validates the full frame layout against the expected geometry/format and
// returns typed views into it. Frames can arrive from a real socket, so
// every derived size is checked before it is trusted.
ParsedFrame ParseFrame(const uint8_t* data, size_t bytes, uint32_t num_hists,
                       uint32_t cells, const SparseHistFormat& fmt) {
  ParsedFrame f;
  if (bytes < sizeof(SparseHistHeader)) Malformed("short header");
  std::memcpy(&f.header, data, sizeof(SparseHistHeader));
  const SparseHistHeader& h = f.header;
  if (h.magic != kSparseHistMagic) Malformed("bad magic");
  if (h.version != kSparseHistVersion) Malformed("bad version");
  if ((h.flags & ~kSparseHistFlagQuant) != 0) Malformed("unknown flags");
  const bool quant = (h.flags & kSparseHistFlagQuant) != 0;
  if (quant != fmt.quant) Malformed("format mismatch");
  if (h.num_hists != num_hists || h.cells_per_hist != cells) {
    Malformed("geometry mismatch");
  }
  const uint32_t regions_per_hist = RegionsPerHist(cells);
  const uint64_t total_regions =
      static_cast<uint64_t>(num_hists) * regions_per_hist;
  if (h.num_runs > total_regions) Malformed("too many runs");
  f.cell_bytes = quant ? sizeof(int64_t) : sizeof(GHPair);
  const size_t runs_bytes = static_cast<size_t>(h.num_runs) *
                            sizeof(SparseHistRun);

  // First pass over the run list: monotonicity, range, and the listed-
  // region count (which sizes the bitmap array).
  if (bytes < sizeof(SparseHistHeader) + runs_bytes) Malformed("short runs");
  f.runs = reinterpret_cast<const SparseHistRun*>(data +
                                                  sizeof(SparseHistHeader));
  uint64_t next_region = 0;
  uint64_t listed = 0;
  for (uint32_t i = 0; i < h.num_runs; ++i) {
    const SparseHistRun& run = f.runs[i];
    if (run.num_regions == 0) Malformed("empty run");
    if (i > 0 && run.first_region <= next_region) Malformed("unsorted runs");
    const uint64_t end =
        static_cast<uint64_t>(run.first_region) + run.num_regions;
    if (end > total_regions) Malformed("run out of range");
    listed += run.num_regions;
    next_region = end;
  }
  f.listed_regions = static_cast<uint32_t>(listed);
  const size_t want = sizeof(SparseHistHeader) + runs_bytes + listed +
                      static_cast<size_t>(h.payload_cells) * f.cell_bytes;
  if (bytes != want) Malformed("size mismatch");
  f.bitmaps = data + sizeof(SparseHistHeader) + runs_bytes;
  f.payload = f.bitmaps + listed;

  // Second pass: every listed region's bitmap must be nonzero (empty
  // regions must not be listed), must not set bits past a partial
  // region's end, and the total popcount must match the payload.
  uint64_t payload_cells = 0;
  uint32_t bitmap_idx = 0;
  for (uint32_t i = 0; i < h.num_runs; ++i) {
    const SparseHistRun& run = f.runs[i];
    const uint64_t end =
        static_cast<uint64_t>(run.first_region) + run.num_regions;
    for (uint64_t r = run.first_region; r < end; ++r, ++bitmap_idx) {
      const uint8_t bitmap = f.bitmaps[bitmap_idx];
      if (bitmap == 0) Malformed("empty region bitmap");
      const uint32_t n = CellsInRegion(static_cast<uint32_t>(r),
                                       regions_per_hist, cells);
      if (n < kSparseRegionCells &&
          (bitmap >> n) != 0) {
        Malformed("bitmap past region end");
      }
      payload_cells += std::popcount(bitmap);
    }
  }
  if (payload_cells != h.payload_cells) Malformed("payload count mismatch");
  return f;
}

// Appends a region range to a merged run list.
void PushRegion(std::vector<SparseHistRun>* runs, uint32_t region) {
  if (!runs->empty() &&
      runs->back().first_region + runs->back().num_regions == region) {
    ++runs->back().num_regions;
  } else {
    runs->push_back(SparseHistRun{region, 1});
  }
}

// Quantized wire cell from an f64 histogram cell. With power-of-two scales
// the f64 value is exactly k * 2^-s, so the product is the integer k with
// no rounding (llround only resolves the representation, never the value).
inline int64_t EncodeQuantCell(const GHPair& cell, const QuantScales& s) {
  const int64_t g = std::llround(cell.g * static_cast<double>(s.g_scale));
  const int64_t h = std::llround(cell.h * static_cast<double>(s.h_scale));
  return (g << 32) + h;
}

inline GHPair DecodeQuantCell(int64_t cell, const QuantScales& s) {
  return GHPair{static_cast<double>(CellG(cell)) * s.g_inv,
                static_cast<double>(CellH(cell)) * s.h_inv};
}

// Payload cell `index` of a frame. The payload starts right after one
// bitmap byte per listed region, so it has no alignment guarantee: cells
// are copied out, never dereferenced in place.
template <typename Cell>
inline Cell LoadCell(const uint8_t* payload, size_t index) {
  Cell cell;
  std::memcpy(&cell, payload + index * sizeof(Cell), sizeof(Cell));
  return cell;
}

// Append-only builder for the variable parts of a frame: run list, one
// bitmap byte per listed region, and the set cells.
struct FrameBuilder {
  std::vector<SparseHistRun> runs;
  std::vector<uint8_t> bitmaps;
  std::vector<uint8_t> payload;
  size_t num_cells = 0;

  void AddRegion(uint32_t region, uint8_t bitmap) {
    PushRegion(&runs, region);
    bitmaps.push_back(bitmap);
    num_cells += static_cast<size_t>(std::popcount(bitmap));
  }
};

void WriteFrame(const FrameBuilder& b, uint32_t num_hists, uint32_t cells,
                const SparseHistFormat& fmt, std::vector<uint8_t>* out) {
  SparseHistHeader header;
  header.flags = fmt.quant ? kSparseHistFlagQuant : 0;
  header.num_hists = num_hists;
  header.cells_per_hist = cells;
  header.num_runs = static_cast<uint32_t>(b.runs.size());
  header.payload_cells = static_cast<uint32_t>(b.num_cells);
  out->resize(sizeof(header) + b.runs.size() * sizeof(SparseHistRun) +
              b.bitmaps.size() + b.payload.size());
  uint8_t* p = out->data();
  std::memcpy(p, &header, sizeof(header));
  p += sizeof(header);
  if (!b.runs.empty()) {
    std::memcpy(p, b.runs.data(), b.runs.size() * sizeof(SparseHistRun));
    p += b.runs.size() * sizeof(SparseHistRun);
  }
  if (!b.bitmaps.empty()) {
    std::memcpy(p, b.bitmaps.data(), b.bitmaps.size());
    p += b.bitmaps.size();
  }
  if (!b.payload.empty()) {
    std::memcpy(p, b.payload.data(), b.payload.size());
  }
}

}  // namespace

void EncodeSparseHist(const GHPair* const* hists, uint32_t num_hists,
                      uint32_t cells, const SparseHistFormat& fmt,
                      std::vector<uint8_t>* out) {
  HARP_CHECK_GT(cells, 0);
  const uint32_t regions_per_hist = RegionsPerHist(cells);
  FrameBuilder b;
  for (uint32_t h = 0; h < num_hists; ++h) {
    const GHPair* hist = hists[h];
    for (uint32_t lr = 0; lr < regions_per_hist; ++lr) {
      const uint32_t begin = lr * kSparseRegionCells;
      const uint32_t n = std::min(kSparseRegionCells, cells - begin);
      uint8_t bitmap = 0;
      for (uint32_t i = 0; i < n; ++i) {
        if (CellNonZero(hist[begin + i])) {
          bitmap |= static_cast<uint8_t>(1u << i);
        }
      }
      if (bitmap == 0) continue;
      b.AddRegion(h * regions_per_hist + lr, bitmap);
      const size_t off = b.payload.size();
      if (fmt.quant) {
        b.payload.resize(off + std::popcount(bitmap) * sizeof(int64_t));
        int64_t* cells_out =
            reinterpret_cast<int64_t*>(b.payload.data() + off);
        for (uint32_t i = 0; i < n; ++i) {
          if (bitmap & (1u << i)) {
            *cells_out++ = EncodeQuantCell(hist[begin + i], fmt.scales);
          }
        }
      } else {
        b.payload.resize(off + std::popcount(bitmap) * sizeof(GHPair));
        GHPair* cells_out = reinterpret_cast<GHPair*>(b.payload.data() + off);
        for (uint32_t i = 0; i < n; ++i) {
          if (bitmap & (1u << i)) *cells_out++ = hist[begin + i];
        }
      }
    }
  }
  WriteFrame(b, num_hists, cells, fmt, out);
}

void ReduceSparseHist(const Transport::Frames& frames, uint32_t num_hists,
                      uint32_t cells, const SparseHistFormat& fmt,
                      std::vector<uint8_t>* out) {
  HARP_CHECK_GT(cells, 0);
  const int world = static_cast<int>(frames.size());
  const uint32_t regions_per_hist = RegionsPerHist(cells);
  const uint32_t total_regions = num_hists * regions_per_hist;

  std::vector<ParsedFrame> parsed;
  parsed.reserve(frames.size());
  for (const auto& frame : frames) {
    parsed.push_back(ParseFrame(frame.first, frame.second, num_hists, cells,
                                fmt));
  }

  // Per-rank region -> (bitmap index, payload cell offset), and the union
  // touched map. TouchedRegions (PR 1) gives the cache-line-isolated
  // per-rank rows and the per-region contributor query.
  TouchedRegions touched;
  touched.Reset(world, static_cast<int>(total_regions));
  struct RegionRef {
    uint32_t bitmap_idx = 0;
    uint32_t cell_off = 0;
  };
  std::vector<std::vector<RegionRef>> refs(
      frames.size(), std::vector<RegionRef>(total_regions));
  for (int rank = 0; rank < world; ++rank) {
    const ParsedFrame& f = parsed[static_cast<size_t>(rank)];
    uint32_t bitmap_idx = 0;
    uint32_t cursor = 0;
    for (uint32_t i = 0; i < f.header.num_runs; ++i) {
      const SparseHistRun& run = f.runs[i];
      for (uint32_t r = run.first_region;
           r < run.first_region + run.num_regions; ++r, ++bitmap_idx) {
        touched.Mark(rank, static_cast<int>(r));
        refs[static_cast<size_t>(rank)][r] = RegionRef{bitmap_idx, cursor};
        cursor += static_cast<uint32_t>(std::popcount(f.bitmaps[bitmap_idx]));
      }
    }
  }

  // Sweep regions in ascending order; within each touched region sum the
  // contributing ranks' cells in ascending rank order (the first
  // contributor of each CELL assigns, later ones add) — the same per-cell
  // addition order as the dense rank-ordered reduction, hence bitwise
  // identical where both paths touch.
  FrameBuilder b;
  const size_t cell_bytes = fmt.quant ? sizeof(int64_t) : sizeof(GHPair);
  GHPair acc_f64[kSparseRegionCells];
  int64_t acc_i64[kSparseRegionCells];
  for (uint32_t region = 0; region < total_regions; ++region) {
    uint8_t seen = 0;  // bits already assigned in the accumulator
    for (int rank = 0; rank < world; ++rank) {
      if (!touched.Touched(rank, static_cast<int>(region))) continue;
      const ParsedFrame& f = parsed[static_cast<size_t>(rank)];
      const RegionRef ref = refs[static_cast<size_t>(rank)][region];
      const uint8_t bitmap = f.bitmaps[ref.bitmap_idx];
      size_t cell_idx = ref.cell_off;
      if (fmt.quant) {
        for (uint32_t i = 0; i < kSparseRegionCells; ++i) {
          if (!(bitmap & (1u << i))) continue;
          const int64_t cell = LoadCell<int64_t>(f.payload, cell_idx++);
          if (seen & (1u << i)) {
            acc_i64[i] += cell;
          } else {
            acc_i64[i] = cell;
          }
        }
      } else {
        for (uint32_t i = 0; i < kSparseRegionCells; ++i) {
          if (!(bitmap & (1u << i))) continue;
          const GHPair cell = LoadCell<GHPair>(f.payload, cell_idx++);
          if (seen & (1u << i)) {
            acc_f64[i].g += cell.g;
            acc_f64[i].h += cell.h;
          } else {
            acc_f64[i] = cell;
          }
        }
      }
      seen |= bitmap;
    }
    if (seen == 0) continue;  // no rank touched this region
    b.AddRegion(region, seen);
    const size_t off = b.payload.size();
    b.payload.resize(off + std::popcount(seen) * cell_bytes);
    uint8_t* dst = b.payload.data() + off;
    for (uint32_t i = 0; i < kSparseRegionCells; ++i) {
      if (!(seen & (1u << i))) continue;
      const void* src = fmt.quant ? static_cast<const void*>(&acc_i64[i])
                                  : static_cast<const void*>(&acc_f64[i]);
      std::memcpy(dst, src, cell_bytes);
      dst += cell_bytes;
    }
  }
  WriteFrame(b, num_hists, cells, fmt, out);
}

void DecodeSparseHist(const uint8_t* data, size_t bytes,
                      GHPair* const* hists, uint32_t num_hists,
                      uint32_t cells, const SparseHistFormat& fmt) {
  const ParsedFrame f = ParseFrame(data, bytes, num_hists, cells, fmt);
  const uint32_t regions_per_hist = RegionsPerHist(cells);
  for (uint32_t h = 0; h < num_hists; ++h) {
    std::fill(hists[h], hists[h] + cells, GHPair{});
  }
  uint32_t bitmap_idx = 0;
  uint32_t cursor = 0;
  for (uint32_t i = 0; i < f.header.num_runs; ++i) {
    const SparseHistRun& run = f.runs[i];
    for (uint32_t r = run.first_region; r < run.first_region + run.num_regions;
         ++r, ++bitmap_idx) {
      const uint8_t bitmap = f.bitmaps[bitmap_idx];
      const uint32_t h = r / regions_per_hist;
      const uint32_t begin = (r % regions_per_hist) * kSparseRegionCells;
      GHPair* dst = hists[h] + begin;
      for (uint32_t i2 = 0; i2 < kSparseRegionCells; ++i2) {
        if (!(bitmap & (1u << i2))) continue;
        dst[i2] = fmt.quant ? DecodeQuantCell(
                                  LoadCell<int64_t>(f.payload, cursor),
                                  fmt.scales)
                            : LoadCell<GHPair>(f.payload, cursor);
        ++cursor;
      }
    }
  }
}

}  // namespace harp
