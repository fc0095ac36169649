// Shared benchmark harness.
//
// Every bench binary regenerates one table/figure of the paper. Common
// knobs (environment variables):
//   HARP_BENCH_SCALE    multiplies dataset row counts (default 1.0 —
//                       seconds-per-experiment laptop scale; the paper's
//                       full datasets correspond to scales in the
//                       hundreds)
//   HARP_BENCH_THREADS  worker threads (default 4). NOTE: on machines
//                       with fewer physical cores the workers are
//                       oversubscribed; wall-clock speedups are then
//                       distorted, which is why each bench also reports
//                       machine-independent counters (parallel regions,
//                       barrier overhead, utilization, ns/update).
//   HARP_BENCH_TREES    trees per measurement (default 5; the paper
//                       averages the first 100)
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "harpgbdt.h"
#include "common/env.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "common/stats.h"
#include "data/binary_cache.h"

namespace harp::bench {

inline double Scale() { return GetEnvDouble("HARP_BENCH_SCALE", 1.0); }
inline int Threads() { return GetEnvInt("HARP_BENCH_THREADS", 4); }
inline int Trees() { return GetEnvInt("HARP_BENCH_TREES", 5); }

// Generates (or loads from /tmp cache) the dataset for a preset spec.
inline Dataset LoadDataset(const SyntheticSpec& spec) {
  const std::string path = StrFormat("/tmp/harp_bench_%s_%u_%llu.bin",
                                     spec.name.c_str(), spec.rows,
                                     static_cast<unsigned long long>(spec.seed));
  Dataset ds;
  std::string error;
  if (ReadDatasetCache(path, &ds, &error) &&
      ds.num_rows() == spec.rows &&
      ds.num_features() == spec.features) {
    return ds;
  }
  ds = GenerateSynthetic(spec);
  if (!WriteDatasetCache(path, ds, &error)) {
    std::fprintf(stderr, "(cache write skipped: %s)\n", error.c_str());
  }
  return ds;
}

// SYNSET variant for the block-sweep/mode/ablation benches. The paper's
// SYNSET has N/(M x B) ~ 300 rows per histogram slot (10M rows vs a 32k-
// slot model); naively shrinking only the row count would make replica
// zeroing/reduction dominate the row scan and invert the DP/MP trade-off.
// This variant keeps laptop-scale runtimes while restoring a paper-like
// compute-to-model ratio (~25 rows/slot): 64 features x ~64 bins.
inline SyntheticSpec SynsetBenchSpec(double scale) {
  SyntheticSpec spec = SynsetSpec(scale);
  spec.name = "SYNSETB";
  spec.rows = static_cast<uint32_t>(std::max(1.0, 100000.0 * scale));
  spec.features = 64;
  spec.mean_distinct = 64.0;
  spec.active_features = 12;
  return spec;
}

// A dataset prepared for training: binned once up front, so measurements
// exclude data loading and one-time initialization (Section V-A4).
struct Prepared {
  Dataset train;
  Dataset test;  // empty unless test_fraction > 0
  BinnedMatrix matrix;
};

inline Prepared Prepare(SyntheticSpec spec, double test_fraction = 0.0,
                        bool column_major = false) {
  ThreadPool pool(Threads());
  const Dataset all = LoadDataset(spec);
  Prepared prepared;
  const uint32_t test_rows =
      static_cast<uint32_t>(static_cast<double>(all.num_rows()) *
                            test_fraction);
  const uint32_t train_rows = all.num_rows() - test_rows;
  prepared.train = all.Slice(0, train_rows);
  prepared.test = all.Slice(train_rows, all.num_rows());
  prepared.matrix = BinnedMatrix::Build(
      prepared.train, QuantileCuts::Compute(prepared.train, 256, &pool),
      &pool);
  if (column_major) prepared.matrix.EnsureColumnMajor(&pool);
  return prepared;
}

inline void PrintTitle(const std::string& id, const std::string& what,
                       const std::string& paper_claim) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("config: scale=%.2f threads=%d trees/measure=%d\n", Scale(),
              Threads(), Trees());
  std::printf("================================================================\n");
}

// Milliseconds per tree from a stats object.
inline double MsPerTree(const TrainStats& stats) {
  return stats.SecondsPerTree() * 1e3;
}

// Convenience: configured HarpGBDT params used across benches.
inline TrainParams HarpParams(int tree_size, ParallelMode mode,
                              GrowPolicy policy = GrowPolicy::kTopK,
                              int k = 32) {
  TrainParams p;
  p.num_trees = Trees();
  p.tree_size = tree_size;
  p.grow_policy = policy;
  p.topk = k;
  p.mode = mode;
  p.num_threads = Threads();
  // The paper's Section V-E configuration is <feature_blk=4, node_blk=32>,
  // tuned for a 45MB-LLC Xeon where a HIGGS histogram exceeds cache. At
  // laptop scale the whole histogram fits, so feature tiling only adds
  // re-reads; node blocking (fewer barriers) transfers unchanged. Fat
  // inputs (YFCC) still get explicit feature blocks in their benches.
  p.feature_blk_size = 0;
  p.node_blk_size = 32;
  // The paper holds algorithm-level tricks out of its controlled
  // comparison, and the baselines build every child directly.
  p.use_hist_subtraction = false;
  return p;
}

inline TrainParams BaselineParams(int tree_size, GrowPolicy policy) {
  TrainParams p;
  p.num_trees = Trees();
  p.tree_size = tree_size;
  p.grow_policy = policy;
  p.num_threads = Threads();
  return p;
}

// ---- convergence tracking (Figs. 8, 9, 14, 16) ----

struct ConvergencePoint {
  int trees = 0;
  double seconds = 0.0;  // cumulative training wall time
  double auc = 0.0;      // held-out AUC after this many trees
};

// Runs `train(callback)` and records test AUC after every iteration.
// `train` must invoke the callback per iteration (all trainer facades do,
// via RunBoosting).
template <typename TrainFn>
std::vector<ConvergencePoint> TrackConvergence(const Dataset& test,
                                               TrainFn&& train) {
  std::vector<ConvergencePoint> series;
  // Margins start from 0 rather than the model's base margin: a constant
  // shift is rank-preserving, so the AUC is unaffected.
  std::vector<double> test_margins(test.num_rows(), 0.0);
  double elapsed = 0.0;
  train([&](const IterationInfo& info) {
    for (uint32_t r = 0; r < test.num_rows(); ++r) {
      test_margins[r] += info.tree.PredictRaw(test, r);
    }
    elapsed += info.tree_seconds;
    series.push_back(ConvergencePoint{
        info.iteration + 1, elapsed, Auc(test.labels(), test_margins)});
  });
  return series;
}

// Prints a series at logarithmic-ish checkpoints.
inline void PrintSeries(const std::string& name,
                        const std::vector<ConvergencePoint>& series,
                        const std::vector<int>& checkpoints) {
  std::printf("%-18s", name.c_str());
  for (int cp : checkpoints) {
    if (cp >= 1 && cp <= static_cast<int>(series.size())) {
      std::printf("  %6.4f", series[static_cast<size_t>(cp - 1)].auc);
    } else {
      std::printf("  %6s", "-");
    }
  }
  std::printf("   (%.2fs total)\n", series.empty() ? 0.0 : series.back().seconds);
}

// ---- machine-readable results ----
//
// Every bench binary reports each measurement through ReportResult, which
// prints one `BENCH_JSON {...}` line to stderr (a bench may call it while a
// table row is still open on stdout, so stdout would split the row) and,
// when HARP_BENCH_JSON_DIR is set, appends the same object to
// $HARP_BENCH_JSON_DIR/BENCH_<bench>.json (JSON-lines, one object per
// measurement; CI reads these archives). Fields:
//   bench       bench id (one file per binary)
//   name        measurement label (config under test)
//   reps        repetitions averaged into `ns` (trees, passes, ...)
//   ns          nanoseconds per repetition
//   throughput  items per second (bench-specific item: rows, updates, ...)
//   auc         only for accuracy measurements (omitted when < 0)

// Labels are built from enum names and format strings; strip the two JSON
// metacharacters rather than pulling in a full escaper.
inline std::string JsonSafe(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == '"' || c == '\\') c = '_';
  }
  return out;
}

inline void ReportResult(const std::string& bench, const std::string& name,
                         int64_t reps, double ns, double throughput,
                         double auc = -1.0) {
  std::string obj = StrFormat(
      "{\"bench\":\"%s\",\"name\":\"%s\",\"reps\":%lld,\"ns\":%.1f,"
      "\"throughput\":%.4f",
      JsonSafe(bench).c_str(), JsonSafe(name).c_str(),
      static_cast<long long>(reps), ns, throughput);
  if (auc >= 0.0) obj += StrFormat(",\"auc\":%.6f", auc);
  obj += "}";
  std::fprintf(stderr, "BENCH_JSON %s\n", obj.c_str());
  const std::string dir = GetEnvString("HARP_BENCH_JSON_DIR", "");
  if (!dir.empty()) {
    const std::string path = dir + "/BENCH_" + JsonSafe(bench) + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "a")) {
      std::fprintf(f, "%s\n", obj.c_str());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "(json archive skipped: cannot open %s)\n",
                   path.c_str());
    }
  }
}

// TrainStats convenience: reps = trees, ns = per tree, throughput =
// histogram updates per second (the memory-bound figure of merit).
inline void ReportStats(const std::string& bench, const std::string& name,
                        const TrainStats& stats) {
  const int trees = std::max(1, stats.trees);
  ReportResult(bench, name, trees,
               static_cast<double>(stats.wall_ns) / trees,
               static_cast<double>(stats.hist_updates) /
                   std::max(1e-12, NsToSec(stats.wall_ns)));
}

// Convergence convenience: reps = trees, ns = per tree, throughput =
// trees per second, auc = final held-out AUC.
inline void ReportSeries(const std::string& bench, const std::string& name,
                         const std::vector<ConvergencePoint>& series) {
  if (series.empty()) return;
  const ConvergencePoint& last = series.back();
  const double seconds = std::max(1e-12, last.seconds);
  ReportResult(bench, name, last.trees, seconds * 1e9 / last.trees,
               static_cast<double>(last.trees) / seconds, last.auc);
}

}  // namespace harp::bench
