#include "core/train_stats.h"

#include "common/string_util.h"
#include "common/timer.h"

namespace harp {

double TrainStats::SecondsPerTree() const {
  if (trees == 0) return 0.0;
  return NsToSec(wall_ns) / static_cast<double>(trees);
}

double TrainStats::NsPerHistUpdate() const {
  if (hist_updates == 0) return 0.0;
  return static_cast<double>(build_hist_ns) /
         static_cast<double>(hist_updates);
}

std::string TrainStats::Report() const {
  std::string out;
  out += StrFormat("trees=%d wall=%s (%.1f ms/tree)\n", trees,
                   HumanDuration(NsToSec(wall_ns)).c_str(),
                   SecondsPerTree() * 1e3);
  out += StrFormat(
      "phases: build_hist=%s reduce=%s find_split=%s apply_split=%s "
      "gradients=%s quantize=%s update=%s\n",
      HumanDuration(NsToSec(build_hist_ns)).c_str(),
      HumanDuration(NsToSec(reduce_ns)).c_str(),
      HumanDuration(NsToSec(find_split_ns)).c_str(),
      HumanDuration(NsToSec(apply_split_ns)).c_str(),
      HumanDuration(NsToSec(gradient_ns)).c_str(),
      HumanDuration(NsToSec(quantize_ns)).c_str(),
      HumanDuration(NsToSec(update_ns)).c_str());
  out += StrFormat("tree: splits=%lld leaves=%lld max_depth=%d\n",
                   static_cast<long long>(nodes_split),
                   static_cast<long long>(leaves), max_tree_depth);
  out += StrFormat(
      "memory: hist_updates=%lld (%.2f ns/update) hist_builds=%lld "
      "cell=%zuB hist_peak=%s write_region=%s node_blk=%zu\n",
      static_cast<long long>(hist_updates), NsPerHistUpdate(),
      static_cast<long long>(hist_builds), hist_cell_bytes,
      HumanBytes(static_cast<double>(hist_peak_bytes)).c_str(),
      HumanBytes(static_cast<double>(write_region_bytes)).c_str(), node_blk);
  out += StrFormat(
      "apply: splits=%lld batches=%lld barriers=%lld moved=%s allocs=%lld\n",
      static_cast<long long>(apply_splits),
      static_cast<long long>(apply_batches),
      static_cast<long long>(apply_barriers),
      HumanBytes(static_cast<double>(apply_bytes_moved)).c_str(),
      static_cast<long long>(apply_allocs));
  out += StrFormat(
      "grow: batches=%lld region_launches=%lld phase_barriers=%lld "
      "(%.2f regions/batch)\n",
      static_cast<long long>(topk_batches),
      static_cast<long long>(grow_region_launches),
      static_cast<long long>(grow_phase_barriers),
      topk_batches == 0 ? 0.0
                        : static_cast<double>(grow_region_launches) /
                              static_cast<double>(topk_batches));
  if (mapped_bytes > 0) {
    out += StrFormat(
        "out-of-core: mapped=%s faults=%lld minor/%lld major peak_rss=%s\n",
        HumanBytes(static_cast<double>(mapped_bytes)).c_str(),
        static_cast<long long>(minor_faults),
        static_cast<long long>(major_faults),
        HumanBytes(static_cast<double>(peak_rss_bytes)).c_str());
  }
  out += StrFormat(
      "sync: threads=%d regions=%lld phase_barriers=%lld "
      "utilization=%.1f%% barrier_overhead=%.1f%% spin_overhead=%.1f%% "
      "(acquires=%lld contended=%lld)\n",
      sync.threads, static_cast<long long>(sync.parallel_regions),
      static_cast<long long>(sync.phase_barriers),
      sync.Utilization(wall_ns) * 100.0, sync.BarrierOverhead() * 100.0,
      sync.SpinOverhead() * 100.0, static_cast<long long>(sync.spin_acquires),
      static_cast<long long>(sync.spin_contended));
  return out;
}

}  // namespace harp
