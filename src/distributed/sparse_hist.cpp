#include "distributed/sparse_hist.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/logging.h"
#include "parallel/thread_pool.h"

namespace harp {
namespace {

static_assert(kSparseRegionCells == 8,
              "region occupancy bitmap is one byte per region");
static_assert(std::endian::native == std::endian::little,
              "the frame layout and the occupancy-word scans assume "
              "little-endian byte order");

// Region of a cursor that has moved past the frame's last listed region.
constexpr uint32_t kNoRegion = std::numeric_limits<uint32_t>::max();

// Regions of one exchange's virtual concatenation of histograms.
struct Geometry {
  uint32_t regions_per_hist = 0;
  uint32_t total_regions = 0;
};

// The geometry comes from the caller, never from a frame, so a CHECK (not
// a parse error) guards the 32-bit region and cell indices.
Geometry MakeGeometry(uint32_t num_hists, uint32_t cells) {
  HARP_CHECK_GT(cells, 0);
  Geometry g;
  g.regions_per_hist = (cells + kSparseRegionCells - 1) / kSparseRegionCells;
  HARP_CHECK_LT(static_cast<uint64_t>(num_hists) * cells,
                static_cast<uint64_t>(kNoRegion));
  g.total_regions = num_hists * g.regions_per_hist;
  return g;
}

[[noreturn]] void Malformed(const std::string& what) {
  throw std::runtime_error("SparseHistogram: malformed frame: " + what);
}

// Set bits of a bitmap byte. The library is built without -mpopcnt, where
// std::popcount is a libgcc call; the codec counts one byte per region.
inline uint32_t BitsSet(uint8_t bitmap) {
  static constexpr std::array<uint8_t, 256> kBits = [] {
    std::array<uint8_t, 256> bits{};
    for (int b = 1; b < 256; ++b) bits[b] = (b & 1) + bits[b / 2];
    return bits;
  }();
  return kBits[bitmap];
}

// Bit k is set when occ[k] is nonzero, for k < width <= 8.
inline uint32_t NonzeroMask(const uint8_t* occ, uint32_t width) {
  if (width < 8) {
    uint32_t mask = 0;
    for (uint32_t k = 0; k < width; ++k) mask |= (occ[k] != 0u) << k;
    return mask;
  }
  uint64_t word;
  std::memcpy(&word, occ, sizeof(word));
  word |= word >> 4;
  word |= word >> 2;
  word |= word >> 1;  // bit 8k: byte k is nonzero; gather those bits
  return static_cast<uint32_t>(
      ((word & 0x0101010101010101ull) * 0x0102040810204080ull) >> 56);
}

// Calls fn(index, byte) for every nonzero byte of occ[0, n) in ascending
// order, skipping eight zero bytes per word test.
template <typename Fn>
inline void ForEachListed(const uint8_t* occ, uint32_t n, Fn&& fn) {
  for (uint32_t i = 0; i < n; i += 8) {
    for (uint32_t mask = NonzeroMask(occ + i, std::min(8u, n - i));
         mask != 0; mask &= mask - 1) {
      const uint32_t k = i + static_cast<uint32_t>(std::countr_zero(mask));
      fn(k, occ[k]);
    }
  }
}

// Set cells of n listed bitmaps; throws if one is empty (an empty region
// must not be listed).
uint64_t CountListedCells(const uint8_t* bitmaps, uint32_t n) {
  uint64_t cells = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (bitmaps[i] == 0) Malformed("empty region bitmap");
    cells += BitsSet(bitmaps[i]);
  }
  return cells;
}

// A position among a frame's listed regions: the region, the run holding
// it (and where that run ends), its bitmap byte, and the payload index of
// its first set cell.
struct Cursor {
  uint32_t run = 0;
  uint32_t region = kNoRegion;
  uint32_t run_end = kNoRegion;
  uint32_t bitmap = 0;
  uint32_t cell = 0;
};

struct ParsedFrame {
  SparseHistHeader header;
  const SparseHistRun* runs = nullptr;
  const uint8_t* bitmaps = nullptr;  // one byte per listed region
  const uint8_t* payload = nullptr;
  // Cursor at each histogram's first listed region (or, for a histogram
  // with none, at the next listed region after it).
  std::vector<Cursor> hist_start;

  // Moves c to the next listed region.
  void Advance(Cursor* c) const {
    c->cell += BitsSet(bitmaps[c->bitmap]);
    ++c->bitmap;
    if (++c->region == c->run_end) {
      if (++c->run < header.num_runs) {
        c->region = runs[c->run].first_region;
        c->run_end = c->region + runs[c->run].num_regions;
      } else {
        c->region = kNoRegion;
      }
    }
  }
};

// Validates the full frame layout against the expected geometry/format and
// returns typed views into it. Frames can arrive from a real socket, so
// every derived size is checked before it is trusted.
ParsedFrame ParseFrame(const uint8_t* data, size_t bytes, uint32_t num_hists,
                       uint32_t cells, const Geometry& geo,
                       const SparseHistFormat& fmt) {
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
  if (h.num_runs > geo.total_regions) Malformed("too many runs");
  const size_t cell_bytes = quant ? sizeof(int64_t) : sizeof(GHPair);
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
    if (end > geo.total_regions) Malformed("run out of range");
    listed += run.num_regions;
    next_region = end;
  }
  const size_t want = sizeof(SparseHistHeader) + runs_bytes + listed +
                      static_cast<size_t>(h.payload_cells) * cell_bytes;
  if (bytes != want) Malformed("size mismatch");
  f.bitmaps = data + sizeof(SparseHistHeader) + runs_bytes;
  f.payload = f.bitmaps + listed;

  // Second pass, one histogram's slice of a run at a time: no listed
  // bitmap is empty, no bit is set past a partial region's end, the set
  // bits add up to the payload, and each histogram's first listed region
  // is recorded. (A cell count past 32 bits is stored only when the total
  // mismatches, which throws.)
  const uint32_t rph = geo.regions_per_hist;
  const uint32_t tail = cells % kSparseRegionCells;
  const uint32_t past_tail = tail == 0 ? 0u : 0xFFu & ~((1u << tail) - 1);
  f.hist_start.resize(num_hists);
  uint32_t next_hist = 0;  // histograms below it have a recorded start
  uint32_t hist = 0;       // histogram of region r
  uint32_t hist_end = rph;
  uint32_t bitmap_idx = 0;
  uint64_t payload_cells = 0;
  for (uint32_t i = 0; i < h.num_runs; ++i) {
    const uint32_t end = f.runs[i].first_region + f.runs[i].num_regions;
    for (uint32_t r = f.runs[i].first_region; r < end;) {
      while (r >= hist_end) {
        ++hist;
        hist_end += rph;
      }
      const uint32_t slice_end = std::min(end, hist_end);
      while (next_hist <= hist) {
        f.hist_start[next_hist++] = Cursor{
            i, r, end, bitmap_idx, static_cast<uint32_t>(payload_cells)};
      }
      const uint32_t n = slice_end - r;
      payload_cells += CountListedCells(f.bitmaps + bitmap_idx, n);
      bitmap_idx += n;
      if (slice_end == hist_end && (f.bitmaps[bitmap_idx - 1] & past_tail)) {
        Malformed("bitmap past region end");
      }
      r = slice_end;
    }
  }
  while (next_hist < num_hists) {
    f.hist_start[next_hist++] =
        Cursor{h.num_runs, kNoRegion, kNoRegion, bitmap_idx,
               static_cast<uint32_t>(payload_cells)};
  }
  if (payload_cells != h.payload_cells) Malformed("payload count mismatch");
  return f;
}

// Runs fn(i) for every i < n, spread over `pool` when it has threads to
// spare. The codec's tasks are histograms (each writes only its own share
// of the output) and, when parsing a reduce's inputs, frames.
template <typename Fn>
void ForEachIndex(ThreadPool* pool, uint32_t n, Fn&& fn) {
  if (pool == nullptr || pool->num_threads() == 1 || n < 2) {
    for (uint32_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->ParallelForDynamic(n, 1, [&](int64_t begin, int64_t end, int) {
    for (int64_t i = begin; i < end; ++i) fn(static_cast<uint32_t>(i));
  });
}

// Quantized wire cell from an f64 histogram cell. With power-of-two scales
// the f64 value is exactly k * 2^-s, so the product is the integer k and
// the conversion is exact.
inline int64_t EncodeQuantCell(const GHPair& cell, const QuantScales& s) {
  const int64_t g =
      static_cast<int64_t>(cell.g * static_cast<double>(s.g_scale));
  const int64_t h =
      static_cast<int64_t>(cell.h * static_cast<double>(s.h_scale));
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

template <typename Cell>
inline void StoreCell(uint8_t* dst, const Cell& cell) {
  std::memcpy(dst, &cell, sizeof(Cell));
}

// Occupancy bitmap of n <= 8 cells: bit i is set when cell i has any
// nonzero bit (so -0.0 counts as touched).
inline uint8_t RegionBitmap(const GHPair* cells, uint32_t n) {
  uint32_t bitmap = 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t bits[2];
    std::memcpy(bits, cells + i, sizeof(bits));
    bitmap |= static_cast<uint32_t>((bits[0] | bits[1]) != 0) << i;
  }
  return static_cast<uint8_t>(bitmap);
}

// Listed regions and set cells of one histogram of a frame being written.
struct HistCounts {
  uint32_t listed = 0;
  uint32_t cells = 0;

  void Add(uint8_t bitmap) {
    listed += bitmap != 0;
    cells += BitsSet(bitmap);
  }
};

// Writes the run list of occ[0, n) — its maximal ranges of nonzero bytes —
// to dst (when non-null) and returns the number of runs. A run starts or
// ends wherever the nonzero-byte mask changes, eight regions per step.
uint32_t WriteRuns(const uint8_t* occ, uint32_t n, uint8_t* dst) {
  uint32_t num_runs = 0;
  uint32_t start = 0;
  uint32_t open = 0;  // 1 while a run is open
  const auto close = [&](uint32_t end) {
    if (dst != nullptr) {
      const SparseHistRun run{start, end - start};
      std::memcpy(dst + num_runs * sizeof(run), &run, sizeof(run));
    }
    ++num_runs;
  };
  for (uint32_t i = 0; i < n; i += 8) {
    const uint32_t width = std::min(8u, n - i);
    const uint32_t mask = NonzeroMask(occ + i, width);
    for (uint32_t changes = (mask ^ ((mask << 1) | open)) &
                            ((1u << width) - 1);
         changes != 0; changes &= changes - 1) {
      const uint32_t k = static_cast<uint32_t>(std::countr_zero(changes));
      if ((mask >> k) & 1) {
        start = i + k;
      } else {
        close(i + k);
      }
    }
    open = (mask >> (width - 1)) & 1;
  }
  if (open) close(n);
  return num_runs;
}

// Writes the frame whose region occupancy is `occ` (one byte per region)
// into *out, resized once to its exact size. emit(h, bitmaps, payload)
// writes histogram h's listed bitmaps and set cells from those pointers.
// Histograms are emitted in parallel at prefix offsets; the run list is
// written serially because a run may cross a histogram boundary. Every
// byte's position follows from `occ` alone, so the frame does not depend
// on the thread count.
template <typename EmitFn>
void WriteFrame(const std::vector<uint8_t>& occ,
                const std::vector<HistCounts>& counts, uint32_t num_hists,
                uint32_t cells, const SparseHistFormat& fmt, ThreadPool* pool,
                std::vector<uint8_t>* out, EmitFn&& emit) {
  const size_t cell_bytes = fmt.quant ? sizeof(int64_t) : sizeof(GHPair);
  std::vector<size_t> bitmap_off(num_hists + 1, 0);
  std::vector<size_t> cell_off(num_hists + 1, 0);
  for (uint32_t h = 0; h < num_hists; ++h) {
    bitmap_off[h + 1] = bitmap_off[h] + counts[h].listed;
    cell_off[h + 1] = cell_off[h] + counts[h].cells;
  }
  const uint32_t total = static_cast<uint32_t>(occ.size());
  SparseHistHeader header;
  header.flags = fmt.quant ? kSparseHistFlagQuant : 0;
  header.num_hists = num_hists;
  header.cells_per_hist = cells;
  header.num_runs = WriteRuns(occ.data(), total, nullptr);
  header.payload_cells = static_cast<uint32_t>(cell_off[num_hists]);
  const size_t runs_bytes = header.num_runs * sizeof(SparseHistRun);
  out->resize(sizeof(header) + runs_bytes + bitmap_off[num_hists] +
              cell_off[num_hists] * cell_bytes);
  uint8_t* p = out->data();
  std::memcpy(p, &header, sizeof(header));
  p += sizeof(header);
  WriteRuns(occ.data(), total, p);
  uint8_t* bitmaps = p + runs_bytes;
  uint8_t* payload = bitmaps + bitmap_off[num_hists];
  ForEachIndex(pool, num_hists, [&](uint32_t h) {
    emit(h, bitmaps + bitmap_off[h], payload + cell_off[h] * cell_bytes);
  });
}

// Encodes one histogram's listed regions (per `occ`): bitmaps and set
// cells.
template <typename Cell>
void EncodeRegions(const GHPair* hist, const uint8_t* occ, uint32_t rph,
                   const QuantScales& scales, uint8_t* bitmaps,
                   uint8_t* payload) {
  ForEachListed(occ, rph, [&](uint32_t lr, uint8_t bitmap) {
    *bitmaps++ = bitmap;
    const GHPair* region = hist + lr * kSparseRegionCells;
    for (uint32_t bits = bitmap; bits != 0; bits &= bits - 1) {
      const GHPair& cell = region[std::countr_zero(bits)];
      if constexpr (std::is_same_v<Cell, GHPair>) {
        StoreCell(payload, cell);
      } else {
        StoreCell(payload, EncodeQuantCell(cell, scales));
      }
      payload += sizeof(Cell);
    }
  });
}

// Sums every frame's cells of `region` (where cursor w points at it) in
// ascending rank order, advances those cursors, and stores the union's
// set cells at dst. Each cell starts at the identity of addition and
// every contributing rank adds to it, which is bit for bit "the first
// contributor assigns, later ones add": for f64 the identity is -0.0, not
// +0.0, since -0.0 + x == x for every x, -0.0 included.
template <typename Cell>
uint8_t* MergeRegion(const std::vector<ParsedFrame>& frames,
                     Cursor* cursors, uint32_t region, uint8_t bitmap,
                     uint8_t* dst) {
  Cell acc[kSparseRegionCells];
  if constexpr (std::is_same_v<Cell, GHPair>) {
    std::fill(acc, acc + kSparseRegionCells, GHPair{-0.0, -0.0});
  } else {
    std::fill(acc, acc + kSparseRegionCells, 0);
  }
  for (size_t w = 0; w < frames.size(); ++w) {
    Cursor& c = cursors[w];
    if (c.region != region) continue;
    const ParsedFrame& f = frames[w];
    uint32_t index = c.cell;
    for (uint32_t bits = f.bitmaps[c.bitmap]; bits != 0; bits &= bits - 1) {
      acc[std::countr_zero(bits)] += LoadCell<Cell>(f.payload, index++);
    }
    f.Advance(&c);
  }
  for (uint32_t bits = bitmap; bits != 0; bits &= bits - 1) {
    StoreCell(dst, acc[std::countr_zero(bits)]);
    dst += sizeof(Cell);
  }
  return dst;
}

}  // namespace

void EncodeSparseHist(const GHPair* const* hists, uint32_t num_hists,
                      uint32_t cells, const SparseHistFormat& fmt,
                      std::vector<uint8_t>* out, ThreadPool* pool) {
  const Geometry geo = MakeGeometry(num_hists, cells);
  const uint32_t rph = geo.regions_per_hist;
  const uint32_t full = cells / kSparseRegionCells;
  // Pass 1: one occupancy byte per region, and the per-histogram counts
  // that size the frame.
  std::vector<uint8_t> occ(geo.total_regions);
  std::vector<HistCounts> counts(num_hists);
  ForEachIndex(pool, num_hists, [&](uint32_t h) {
    const GHPair* hist = hists[h];
    uint8_t* o = occ.data() + static_cast<size_t>(h) * rph;
    HistCounts c;
    for (uint32_t lr = 0; lr < full; ++lr) {
      o[lr] = RegionBitmap(hist + lr * kSparseRegionCells, kSparseRegionCells);
      c.Add(o[lr]);
    }
    if (full < rph) {
      o[full] = RegionBitmap(hist + full * kSparseRegionCells,
                             cells - full * kSparseRegionCells);
      c.Add(o[full]);
    }
    counts[h] = c;
  });
  // Pass 2: bitmaps and set cells, straight into the frame.
  WriteFrame(occ, counts, num_hists, cells, fmt, pool, out,
             [&](uint32_t h, uint8_t* bitmaps, uint8_t* payload) {
               const uint8_t* o = occ.data() + static_cast<size_t>(h) * rph;
               if (fmt.quant) {
                 EncodeRegions<int64_t>(hists[h], o, rph, fmt.scales, bitmaps,
                                        payload);
               } else {
                 EncodeRegions<GHPair>(hists[h], o, rph, fmt.scales, bitmaps,
                                       payload);
               }
             });
}

void ReduceSparseHist(const Transport::Frames& frames, uint32_t num_hists,
                      uint32_t cells, const SparseHistFormat& fmt,
                      std::vector<uint8_t>* out, ThreadPool* pool) {
  const Geometry geo = MakeGeometry(num_hists, cells);
  const uint32_t rph = geo.regions_per_hist;
  // Frames are validated independently, so one per task.
  std::vector<ParsedFrame> parsed(frames.size());
  ForEachIndex(pool, static_cast<uint32_t>(frames.size()), [&](uint32_t w) {
    parsed[w] = ParseFrame(frames[w].first, frames[w].second, num_hists,
                           cells, geo, fmt);
  });

  // Pass 1: the union occupancy is the OR of every rank's bitmaps.
  std::vector<uint8_t> occ(geo.total_regions);
  std::vector<HistCounts> counts(num_hists);
  ForEachIndex(pool, num_hists, [&](uint32_t h) {
    const uint32_t base = h * rph;
    uint8_t* o = occ.data() + base;
    for (const ParsedFrame& f : parsed) {
      for (Cursor c = f.hist_start[h]; c.region < base + rph; f.Advance(&c)) {
        o[c.region - base] |= f.bitmaps[c.bitmap];
      }
    }
    HistCounts c;
    for (uint32_t lr = 0; lr < rph; ++lr) c.Add(o[lr]);
    counts[h] = c;
  });

  // Pass 2: a cursor merge. Each rank's cursor walks its listed regions of
  // histogram h in step with the union's, so a rank contributes to a
  // union region exactly when its cursor stands on it.
  WriteFrame(occ, counts, num_hists, cells, fmt, pool, out,
             [&](uint32_t h, uint8_t* bitmaps, uint8_t* payload) {
               std::vector<Cursor> cursors;
               cursors.reserve(parsed.size());
               for (const ParsedFrame& f : parsed) {
                 cursors.push_back(f.hist_start[h]);
               }
               const uint32_t base = h * rph;
               ForEachListed(
                   occ.data() + base, rph, [&](uint32_t lr, uint8_t bitmap) {
                     *bitmaps++ = bitmap;
                     payload =
                         fmt.quant
                             ? MergeRegion<int64_t>(parsed, cursors.data(),
                                                    base + lr, bitmap, payload)
                             : MergeRegion<GHPair>(parsed, cursors.data(),
                                                   base + lr, bitmap, payload);
                   });
             });
}

void DecodeSparseHist(const uint8_t* data, size_t bytes,
                      GHPair* const* hists, uint32_t num_hists,
                      uint32_t cells, const SparseHistFormat& fmt,
                      ThreadPool* pool, bool zero_untouched) {
  const Geometry geo = MakeGeometry(num_hists, cells);
  const uint32_t rph = geo.regions_per_hist;
  const ParsedFrame f = ParseFrame(data, bytes, num_hists, cells, geo, fmt);
  ForEachIndex(pool, num_hists, [&](uint32_t h) {
    GHPair* hist = hists[h];
    if (zero_untouched) {
      // All-zero bits are +0.0, the value of every untouched cell.
      std::memset(static_cast<void*>(hist), 0,
                  static_cast<size_t>(cells) * sizeof(GHPair));
    }
    const uint32_t base = h * rph;
    for (Cursor c = f.hist_start[h]; c.region < base + rph; f.Advance(&c)) {
      GHPair* dst = hist + (c.region - base) * kSparseRegionCells;
      uint32_t index = c.cell;
      for (uint32_t bits = f.bitmaps[c.bitmap]; bits != 0; bits &= bits - 1) {
        dst[std::countr_zero(bits)] =
            fmt.quant ? DecodeQuantCell(LoadCell<int64_t>(f.payload, index++),
                                        fmt.scales)
                      : LoadCell<GHPair>(f.payload, index++);
      }
    }
  });
}

}  // namespace harp
