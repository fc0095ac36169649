#include "core/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "core/hist_kernels.h"
#include "parallel/thread_pool.h"

namespace harp {
namespace {

// Chunk size for the deterministic scale scan: per-chunk partial maxima /
// sums are combined serially in chunk order, so the result is independent
// of thread count and schedule.
constexpr uint32_t kScaleChunk = 4096;

struct ChunkStats {
  float g_max = 0.0f;
  float h_max = 0.0f;
  double g_sum = 0.0;  // sum of |g| over the chunk
  double h_sum = 0.0;
};

// Largest exponent k with 2^k * max_abs <= fit_limit and
// 2^k * sum_abs + n <= kQuantSumLimit. The +n slack covers rounding
// drift: round-to-nearest moves each row by at most 1/2, so one whole unit
// per row is a safe margin (it is kept at a whole unit because the slack
// feeds the chosen exponent, and so every trained model's bytes).
// The exponent is clamped to a range where 2^k is a normal float/double
// (so g_scale / g_inv never overflow, underflow, or lose exactness).
int PickExponent(double max_abs, double sum_abs, double fit_limit, double n) {
  constexpr int kMinExp = -126;
  constexpr int kMaxExp = 126;
  if (max_abs <= 0.0) return kMaxExp;  // all-zero stream: any scale is exact
  const double sum_room = kQuantSumLimit - n;
  HARP_CHECK_GT(sum_room, 0.0) << "too many rows for 32-bit histogram cells";
  int k = kMaxExp;
  while (k > kMinExp &&
         (std::ldexp(max_abs, k) > fit_limit ||
          std::ldexp(sum_abs, k) > sum_room)) {
    --k;
  }
  return k;
}

}  // namespace

QuantStats ComputeQuantStats(const std::vector<GradientPair>& gradients,
                             ThreadPool* pool) {
  const size_t n = gradients.size();
  const size_t num_chunks = (n + kScaleChunk - 1) / kScaleChunk;
  std::vector<ChunkStats> partials(num_chunks);
  auto scan_chunk = [&](size_t c) {
    const size_t begin = c * kScaleChunk;
    const size_t end = std::min(n, begin + kScaleChunk);
    ChunkStats s;
    for (size_t i = begin; i < end; ++i) {
      const float ag = std::fabs(gradients[i].g);
      const float h = gradients[i].h;
      HARP_CHECK_GE(h, 0.0f) << "negative hessian at row " << i;
      s.g_max = std::max(s.g_max, ag);
      s.h_max = std::max(s.h_max, h);
      s.g_sum += static_cast<double>(ag);
      s.h_sum += static_cast<double>(h);
    }
    partials[c] = s;
  };
  if (pool != nullptr && num_chunks > 1) {
    pool->ParallelFor(static_cast<int64_t>(num_chunks),
                      [&](int64_t begin, int64_t end, int) {
                        for (int64_t c = begin; c < end; ++c) {
                          scan_chunk(static_cast<size_t>(c));
                        }
                      });
  } else {
    for (size_t c = 0; c < num_chunks; ++c) scan_chunk(c);
  }
  ChunkStats total;
  for (const ChunkStats& s : partials) {
    total.g_max = std::max(total.g_max, s.g_max);
    total.h_max = std::max(total.h_max, s.h_max);
    total.g_sum += s.g_sum;
    total.h_sum += s.h_sum;
  }

  QuantStats stats;
  stats.g_max = static_cast<double>(total.g_max);
  stats.h_max = static_cast<double>(total.h_max);
  stats.g_sum = total.g_sum;
  stats.h_sum = total.h_sum;
  stats.rows = static_cast<double>(n);
  return stats;
}

QuantScales QuantScalesFromStats(const QuantStats& stats) {
  QuantScales scales;
  scales.g_exp = PickExponent(stats.g_max, stats.g_sum,
                              static_cast<double>(kQuantGMax), stats.rows);
  scales.h_exp = PickExponent(stats.h_max, stats.h_sum,
                              static_cast<double>(kQuantHMax), stats.rows);
  scales.g_scale = std::ldexp(1.0f, scales.g_exp);
  scales.h_scale = std::ldexp(1.0f, scales.h_exp);
  scales.g_inv = std::ldexp(1.0, -scales.g_exp);
  scales.h_inv = std::ldexp(1.0, -scales.h_exp);
  return scales;
}

QuantScales ComputeQuantScales(const std::vector<GradientPair>& gradients,
                               ThreadPool* pool) {
  return QuantScalesFromStats(ComputeQuantStats(gradients, pool));
}

void QuantizeGradients(const std::vector<GradientPair>& gradients,
                       const QuantScales& scales, int simd_level,
                       ThreadPool* pool, AlignedVector<int32_t>* out) {
  const size_t n = gradients.size();
  out->resize(n);
  if (n == 0) return;
  const GradientPair* gh = gradients.data();
  int32_t* dst = out->data();

  const HistKernelTables& tables =
      KernelTables(static_cast<SimdLevel>(simd_level));
  auto quantize_range = [&](int64_t begin, int64_t end) {
    tables.quantize_rows(gh, static_cast<uint32_t>(begin),
                         static_cast<uint32_t>(end), scales.g_scale,
                         scales.h_scale, dst);
  };
  if (pool != nullptr) {
    pool->ParallelFor(static_cast<int64_t>(n),
                      [&](int64_t begin, int64_t end, int) {
                        quantize_range(begin, end);
                      });
  } else {
    quantize_range(0, static_cast<int64_t>(n));
  }
}

void DequantizeHistogram(const int64_t* cells, GHPair* out, size_t n,
                         const QuantScales& scales, int simd_level) {
  KernelTables(static_cast<SimdLevel>(simd_level))
      .dequantize(cells, out, n, scales.g_inv, scales.h_inv);
}

void AddHistogramI64(int64_t* dst, const int64_t* src, size_t n,
                     int simd_level) {
  KernelTables(static_cast<SimdLevel>(simd_level)).add_i64(dst, src, n);
}

void ClearHistogramI64(int64_t* cells, size_t n) {
  if (n != 0) std::memset(cells, 0, n * sizeof(int64_t));
}

}  // namespace harp
