// Distributed histogram exchange bench (ISSUE 9 acceptance experiment).
//
// Three parts:
//   A. Correctness gate: for every worker count and quantization setting,
//      the sparse compressed exchange must produce a model BIT-IDENTICAL
//      to the dense f64 oracle (SerializeModel string equality). Timing
//      numbers from a wrong exchange are worthless, so the bench aborts
//      on any mismatch.
//   B. Exchange sweep on a sparse LibSVM-like synthetic: workers x
//      {dense,sparse} x {f64,quant} x subtraction {off,on}, reporting wall
//      time, the per-rank time inside the histogram exchange
//      (CommStats::hist_exchange_ns, averaged over ranks), wire bytes and
//      the compression ratio vs the dense f64 payload. The acceptance
//      criterion is ratio >= 5x for the sparse encodings on this dataset.
//      Each worker's pool gets threads/workers threads (at least one).
//   C. Sparsity sweep: exchange bytes and ratio vs dataset density at a
//      fixed worker count (the EXPERIMENTS.md table).
//   D. Per-rank split of the sparse quantized exchange with subtraction at
//      2 and 4 workers: each rank's histogram phase (build, exchange,
//      subtract) and find, and its exchange split into encode, transport
//      and fold. Each rank folds and scans only the features it owns.
//
// BENCH_JSON names: exchange rows are "w<W>_<compress>[_quant][_sub]"
// (ns = wall per tree, throughput = compression ratio), each followed by
// "<config>_exchange" (ns = per-rank exchange time per tree); sparsity
// rows are "sparsity_<density>[_quant]".
#include "bench_common.h"

#include "distributed/dist_gbdt.h"

namespace {

using namespace harp;
using namespace harp::bench;

// Sparse LibSVM-like shard workload: fat and sparse with skewed
// per-feature density (a few hot features, long cold tail) — the shape
// of one-hot CTR dumps (CRITEO / YFCC style). At ~10 present entries per
// row over thousands of features, deep tree nodes leave most FEATURES
// completely untouched, which is the regime the run-list wire format is
// built for (shallow nodes are dense no matter what; the per-tree volume
// is dominated by the deep, narrow ones).
SyntheticSpec DistSpec(double density, double scale) {
  SyntheticSpec spec;
  spec.name = StrFormat("DIST%04d", static_cast<int>(density * 1000));
  spec.rows = static_cast<uint32_t>(std::max(1.0, 6000.0 * scale));
  spec.features = 2000;
  spec.density = density;
  spec.density_skew = 1.0;
  spec.mean_distinct = 48.0;
  spec.distinct_cv = 0.5;
  spec.active_features = 16;
  spec.margin_scale = 3.0;
  spec.sparse_storage = density < 0.5;
  spec.seed = 977;
  return spec;
}

TrainParams DistParams(bool quant) {
  TrainParams p;
  p.num_trees = Trees();
  p.tree_size = 6;
  p.grow_policy = GrowPolicy::kTopK;
  p.topk = 8;
  p.quantize_hist = quant;
  return p;
}

struct RunOutcome {
  DistributedResult result;
  std::string serialized;
  double ratio = 1.0;
};

RunOutcome Run(const Dataset& data, int workers, bool sparse, bool quant,
               bool subtraction = false) {
  TrainParams params = DistParams(quant);
  params.comm_compress = sparse ? "sparse" : "dense";
  params.use_hist_subtraction = subtraction;
  RunOutcome out;
  out.result = DistributedGbdt::Train(data, workers, params,
                                      std::max(1, Threads() / workers));
  out.serialized = SerializeModel(out.result.model);
  const CommStats& c = out.result.comm;
  out.ratio = c.hist_wire_bytes > 0
                  ? static_cast<double>(c.hist_dense_bytes) /
                        static_cast<double>(c.hist_wire_bytes)
                  : 1.0;
  return out;
}

std::string ConfigName(int workers, bool sparse, bool quant,
                       bool subtraction) {
  return StrFormat("w%d_%s%s%s", workers, sparse ? "sparse" : "dense",
                   quant ? "_quant" : "", subtraction ? "_sub" : "");
}

// Mean over ranks of the time each spent inside the histogram exchange.
double ExchangeNsPerRank(const DistributedResult& result) {
  return static_cast<double>(result.comm.hist_exchange_ns) /
         std::max(1, result.workers);
}

}  // namespace

int main() {
  PrintTitle("bench_dist",
             "compressed sparse histogram exchange for sharded training",
             "communication-efficient data parallelism (Section VI): "
             "exchange only touched bins, quantized, without changing the "
             "model");

  const SyntheticSpec spec = DistSpec(0.05, Scale());
  const Dataset data = LoadDataset(spec);
  std::printf("dataset: %u rows x %u features, density=%.2f (skewed)\n\n",
              data.num_rows(), data.num_features(), spec.density);

  // ---- Part A: sparse == dense oracle, bitwise, per worker count ----
  std::printf("A. model identity gate (SerializeModel equality)\n");
  int checked = 0;
  for (const bool quant : {false, true}) {
    for (const int workers : {1, 2, 3, 4}) {
      const RunOutcome dense = Run(data, workers, /*sparse=*/false, quant);
      const RunOutcome sparse = Run(data, workers, /*sparse=*/true, quant);
      if (sparse.serialized != dense.serialized) {
        std::printf(
            "   FAIL: sparse model differs from dense oracle at "
            "workers=%d quant=%d\n",
            workers, static_cast<int>(quant));
        return 1;
      }
      ++checked;
    }
  }
  std::printf("   ok: %d worker/quant configs bit-identical\n\n", checked);

  // ---- Part B: exchange sweep ----
  std::printf("B. exchange sweep (%d trees)\n", Trees());
  std::printf("%8s %8s %6s %4s %10s %12s %12s %12s %10s %8s\n", "workers",
              "comm", "quant", "sub", "time", "exch/rank", "wire",
              "dense f64", "ratio", "AUC");
  bool met_5x = true;
  for (const int workers : {2, 4}) {
    for (const bool subtraction : {false, true}) {
      for (const bool sparse : {false, true}) {
        for (const bool quant : {false, true}) {
          const RunOutcome out =
              Run(data, workers, sparse, quant, subtraction);
          const CommStats& c = out.result.comm;
          const double auc =
              Auc(data.labels(), out.result.model.Predict(data));
          const double exchange_ns = ExchangeNsPerRank(out.result);
          std::printf(
              "%8d %8s %6s %4s %9.2fs %10.1fms %12s %12s %9.2fx %8.4f\n",
              workers, sparse ? "sparse" : "dense", quant ? "on" : "off",
              subtraction ? "on" : "off", out.result.seconds,
              exchange_ns * 1e-6,
              HumanBytes(static_cast<double>(c.hist_wire_bytes)).c_str(),
              HumanBytes(static_cast<double>(c.hist_dense_bytes)).c_str(),
              out.ratio, auc);
          const std::string name =
              ConfigName(workers, sparse, quant, subtraction);
          ReportResult("dist", name, Trees(),
                       out.result.seconds * 1e9 / std::max(1, Trees()),
                       out.ratio, auc);
          ReportResult("dist", name + "_exchange", Trees(),
                       exchange_ns / std::max(1, Trees()), out.ratio);
          if (sparse && quant && out.ratio < 5.0) met_5x = false;
        }
      }
    }
  }
  if (met_5x) {
    std::printf(
        "   ok: compressed exchange >= 5x below dense f64 payload\n\n");
  } else {
    std::printf(
        "   WARN: compressed exchange under the 5x acceptance threshold\n\n");
  }

  // ---- Part C: ratio vs dataset sparsity ----
  std::printf("C. compression ratio vs density (workers=3)\n");
  std::printf("%10s %6s %12s %12s %10s\n", "density", "quant", "wire",
              "dense f64", "ratio");
  for (const double density : {0.005, 0.05, 0.5}) {
    const Dataset sweep = LoadDataset(DistSpec(density, Scale()));
    for (const bool quant : {false, true}) {
      const RunOutcome out = Run(sweep, /*workers=*/3, /*sparse=*/true, quant);
      const CommStats& c = out.result.comm;
      std::printf("%10.2f %6s %12s %12s %9.2fx\n", density,
                  quant ? "on" : "off",
                  HumanBytes(static_cast<double>(c.hist_wire_bytes)).c_str(),
                  HumanBytes(static_cast<double>(c.hist_dense_bytes)).c_str(),
                  out.ratio);
      ReportResult("dist",
                   StrFormat("sparsity_%.2f%s", density,
                             quant ? "_quant" : ""),
                   Trees(), out.result.seconds * 1e9 / std::max(1, Trees()),
                   out.ratio);
    }
  }

  // ---- Part D: where each rank's time goes ----
  std::printf(
      "\nD. per-rank split, sparse quantized exchange with subtraction (ms "
      "per run)\n");
  std::printf("%8s %5s %10s %9s %8s %8s %10s %8s %8s\n", "workers", "rank",
              "build_hist", "subtract", "find", "encode", "transport", "fold",
              "exchange");
  for (const int workers : {2, 4}) {
    const RunOutcome out = Run(data, workers, /*sparse=*/true, /*quant=*/true,
                               /*subtraction=*/true);
    for (int r = 0; r < workers; ++r) {
      const TrainStats& t = out.result.rank_stats[static_cast<size_t>(r)];
      const CommStats& c = out.result.per_rank[static_cast<size_t>(r)];
      std::printf("%8d %5d %10.1f %9.1f %8.1f %8.1f %10.1f %8.1f %8.1f\n",
                  workers, r, t.build_hist_ns * 1e-6, t.subtract_ns * 1e-6,
                  t.find_split_ns * 1e-6, c.hist_encode_ns * 1e-6,
                  c.HistTransportNs() * 1e-6, c.hist_fold_ns * 1e-6,
                  c.hist_exchange_ns * 1e-6);
    }
  }
  std::printf(
      "\nThe ratio tracks the untouched-bin fraction: sparse, skewed "
      "datasets leave most histogram regions cold within a candidate "
      "batch, so the run-list format ships a small fraction of the dense "
      "payload; quantization halves the per-cell cost on top (16B GHPair "
      "-> 8B int64). Dense datasets converge to the quantization factor "
      "alone.\n");
  return 0;
}
