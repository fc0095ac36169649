// Inference throughput — naive AoS RegTree walk vs the FlatForest
// block-wise Predictor (binned and raw inputs, 1 and N threads).
//
// The same memory-boundedness argument the paper makes for BuildHist
// (Table I) applies to ensemble traversal: the naive path chases ~72-byte
// TreeNode structs row by row, one dependent load per step; the flat path
// streams SoA node arrays in L2-resident tree groups with kInterleave
// rows in flight per tree. Margins are bit-identical by construction
// (verified here), so the comparison is purely layout + schedule.
#include "bench_common.h"
#include "common/logging.h"

namespace {

using namespace harp;
using namespace harp::bench;

// Naive reference: base + tree-order RegTree walk (the pre-FlatForest
// prediction path, kept as the oracle).
std::vector<double> NaiveBinned(const GbdtModel& model,
                                const BinnedMatrix& matrix,
                                ThreadPool* pool) {
  std::vector<double> margins(matrix.num_rows());
  auto kernel = [&](int64_t begin, int64_t end, int) {
    for (int64_t r = begin; r < end; ++r) {
      double m = model.base_margin();
      for (size_t t = 0; t < model.NumTrees(); ++t) {
        m += model.tree(t).PredictBinned(
            matrix.RowBins(static_cast<uint32_t>(r)));
      }
      margins[static_cast<size_t>(r)] = m;
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(matrix.num_rows(), kernel);
  } else {
    kernel(0, matrix.num_rows(), 0);
  }
  return margins;
}

std::vector<double> NaiveRaw(const GbdtModel& model, const Dataset& dataset,
                             ThreadPool* pool) {
  std::vector<double> margins(dataset.num_rows());
  auto kernel = [&](int64_t begin, int64_t end, int) {
    for (int64_t r = begin; r < end; ++r) {
      margins[static_cast<size_t>(r)] =
          model.PredictMarginRow(dataset, static_cast<uint32_t>(r));
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(dataset.num_rows(), kernel);
  } else {
    kernel(0, dataset.num_rows(), 0);
  }
  return margins;
}

struct Measurement {
  double rows_per_sec = 0.0;
  std::vector<double> margins;
};

// Best-of-`reps` wall time for one prediction pass.
template <typename Fn>
Measurement Measure(uint32_t rows, const Fn& fn, int reps = 3) {
  Measurement m;
  int64_t best_ns = INT64_MAX;
  for (int i = 0; i < reps; ++i) {
    const Stopwatch watch;
    m.margins = fn();
    best_ns = std::min(best_ns, watch.ElapsedNs());
  }
  m.rows_per_sec = static_cast<double>(rows) / NsToSec(best_ns);
  return m;
}

void CheckIdentical(const std::vector<double>& a,
                    const std::vector<double>& b, const char* what) {
  HARP_CHECK_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    HARP_CHECK(a[i] == b[i]) << what << ": margin mismatch at row " << i;
  }
}

}  // namespace

int main() {
  PrintTitle("Inference", "prediction throughput, naive vs FlatForest",
             "flat SoA layout + block-wise interleaved traversal vs the "
             "row-by-row AoS pointer chase (>= 1.5x single-thread binned "
             "is the PR acceptance bar)");

  // An inference-shaped config: more, smaller trees than the training
  // benches (a served ensemble), on the HIGGS-like dense shape.
  Prepared data = Prepare(HiggsSpec(0.25 * Scale()), /*test_fraction=*/0.3);
  TrainParams params = HarpParams(8, ParallelMode::kSYNC);
  params.num_trees = GetEnvInt("HARP_BENCH_PREDICT_TREES", 64);
  const GbdtModel model =
      GbdtTrainer(params).TrainBinned(data.matrix, data.train.labels());

  ThreadPool pool(Threads());
  const Dataset& test = data.test;
  const BinnedMatrix binned = model.BinDataset(test, &pool);
  const FlatForest flat = model.Flatten();
  const Predictor predictor(flat);
  std::printf("model: %zu trees, %lld nodes (flat arrays %.1f KB); "
              "test: %u rows x %u features\n\n",
              model.NumTrees(), static_cast<long long>(model.TotalNodes()),
              static_cast<double>(flat.MemoryBytes()) / 1024.0,
              test.num_rows(), test.num_features());

  struct Row {
    const char* name;
    Measurement naive;
    Measurement flat;
  };
  std::vector<Row> rows;

  rows.push_back({"binned 1T",
                  Measure(test.num_rows(),
                          [&] { return NaiveBinned(model, binned, nullptr); }),
                  Measure(test.num_rows(),
                          [&] { return predictor.PredictMargins(binned); })});
  rows.push_back(
      {"binned NT",
       Measure(test.num_rows(),
               [&] { return NaiveBinned(model, binned, &pool); }),
       Measure(test.num_rows(),
               [&] { return predictor.PredictMargins(binned, &pool); })});
  rows.push_back({"raw    1T",
                  Measure(test.num_rows(),
                          [&] { return NaiveRaw(model, test, nullptr); }),
                  Measure(test.num_rows(),
                          [&] { return predictor.PredictMargins(test); })});
  rows.push_back(
      {"raw    NT",
       Measure(test.num_rows(), [&] { return NaiveRaw(model, test, &pool); }),
       Measure(test.num_rows(),
               [&] { return predictor.PredictMargins(test, &pool); })});

  // Serving-shaped input: a short batch (one 256-row block, walked on the
  // calling thread), verified bit-identical to the full-batch flat path.
  const uint32_t short_rows = std::min(64u, test.num_rows());
  const Dataset short_batch = test.Slice(0, short_rows);
  rows.push_back(
      {"short  64",
       Measure(short_rows,
               [&] { return NaiveRaw(model, short_batch, nullptr); }),
       Measure(short_rows,
               [&] { return predictor.PredictMargins(short_batch); })});

  for (const Row& r : rows) {
    CheckIdentical(r.naive.margins, r.flat.margins, r.name);
  }

  std::printf("%-10s %16s %16s %10s\n", "path", "naive rows/s",
              "flat rows/s", "speedup");
  for (const Row& r : rows) {
    const double n_rows = static_cast<double>(test.num_rows());
    ReportResult("predict", std::string(r.name) + "_naive", 3,
                 n_rows / r.naive.rows_per_sec * 1e9, r.naive.rows_per_sec);
    ReportResult("predict", std::string(r.name) + "_flat", 3,
                 n_rows / r.flat.rows_per_sec * 1e9, r.flat.rows_per_sec);
    std::printf("%-10s %14.0f/s %14.0f/s %9.2fx\n", r.name,
                r.naive.rows_per_sec, r.flat.rows_per_sec,
                r.flat.rows_per_sec / r.naive.rows_per_sec);
  }
  std::printf("\nall paths (incl. the short batch) verified "
              "bit-identical to the RegTree oracle before timing "
              "(NT = %d threads).\n", Threads());
  return 0;
}
