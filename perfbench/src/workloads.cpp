#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>

#include "core/gbdt.h"
#include "core/metrics.h"
#include "core/model_io.h"
#include "data/binary_cache.h"
#include "data/binned_matrix.h"
#include "data/csv_reader.h"
#include "data/libsvm_reader.h"
#include "data/quantile.h"
#include "distributed/dist_gbdt.h"
#include "inputs.h"
#include "parallel/thread_pool.h"
#include "predict/flat_forest.h"
#include "predict/predictor.h"
#include "serve_ladder.h"

namespace perfbench {

namespace {

// Compute threads per workload, to match 4 vCPUs.
constexpr int kThreads = 4;
constexpr int kTrees = 20;
// Sharded training exchanges a 2000-feature histogram per node, so
// dist_sparse grows fewer trees (bench_dist's default) to fit a run.
constexpr int kDistTrees = 5;

// Input sizes. pipeline_dense is the reference preset (300k x 28 CSV);
// the others are sized so one iteration takes 1-3 s on 4 vCPUs, leaving
// several iterations in a 15 s run.
constexpr uint32_t kDenseTrain = 300000;
constexpr uint32_t kDenseTest = 100000;
constexpr uint32_t kCachedTrain = 200000;
constexpr uint32_t kCachedTest = 100000;
constexpr uint32_t kSparseTrain = 12000;
constexpr uint32_t kSparseTest = 8000;
constexpr uint32_t kServeTrain = 100000;
constexpr uint32_t kServeRequests = 20000;
// Held-out rows the training workloads send through their serving stage.
constexpr uint32_t kTailServeRows = 4096;

// Serving passes the training workloads run after each work iteration.
constexpr int kTailPassesPerIteration = 2;
// serve_open hot-swaps the model this often.
constexpr int64_t kReloadEveryNs = 200'000'000;

// Layers by span prefix, in report order.
const char* const kLayers[] = {"data",    "cache", "train", "model_io",
                               "predict", "dist",  "serve", "bench"};

std::string PathIn(const Args& args, const char* name) {
  return args.work_dir + "/" + name;
}

harp::TrainParams DenseParams() {
  harp::TrainParams p;
  p.num_trees = kTrees;
  p.mode = harp::ParallelMode::kSYNC;
  p.num_threads = kThreads;
  return p;
}

harp::TrainParams CachedParams() {
  harp::TrainParams p;
  p.num_trees = kTrees;
  p.mode = harp::ParallelMode::kDP;
  p.num_threads = kThreads;
  p.quantize_hist = true;
  p.use_hist_subtraction = true;
  return p;
}

harp::TrainParams SparseParams() {
  harp::TrainParams p;
  p.num_trees = kDistTrees;
  p.tree_size = 6;
  p.topk = 8;
  p.quantize_hist = true;
  p.comm_compress = "sparse";
  return p;
}

harp::LibsvmOptions SparseOptions() {
  harp::LibsvmOptions options;
  options.num_features = 2000;  // train and test agree on the width
  return options;
}

// Reads the held-out rows of a workload into a Dataset.
using TestReader = std::function<bool(harp::Dataset*, std::string*)>;

// ---------------------------------------------------------------- training

struct TrainRecord {
  harp::IngestStats ingest;   // text readers
  harp::CacheReadInfo cache;  // binned cache
  harp::TrainStats stats;     // single-process trainer
  harp::CommStats comm;       // distributed trainer, summed over ranks
  int64_t read_ns = 0;
  int64_t cuts_ns = 0;
  int64_t bin_ns = 0;
  int64_t cache_open_ns = 0;
  int64_t train_ns = 0;
  int64_t save_ns = 0;
  int64_t total_ns = 0;  // input file -> saved model file
};

bool Save(const harp::GbdtModel& model, const std::string& path,
          Tracer& tracer, Result* result, TrainRecord* rec) {
  std::string error;
  bool ok = false;
  {
    LayerCall call(tracer, "model_io.save", &rec->save_ns);
    ok = harp::SaveModel(path, model, &error);
  }
  return result->Op(ok, "SaveModel: " + error);
}

// The CLI's train path: CSV text -> cuts -> bins -> trees -> model file.
bool TrainFromCsv(const std::string& csv, const std::string& model_path,
                  harp::ThreadPool& pool, Tracer& tracer, Result* result,
                  TrainRecord* rec) {
  const int64_t start = harp::NowNs();
  const harp::TrainParams params = DenseParams();
  harp::Dataset data;
  std::string error;
  bool ok = false;
  {
    LayerCall call(tracer, "data.read_csv", &rec->read_ns);
    ok = harp::ReadCsv(csv, {}, &data, &error, &rec->ingest, &pool);
  }
  if (!result->Op(ok, "ReadCsv: " + error)) return false;
  harp::QuantileCuts cuts;
  {
    LayerCall call(tracer, "data.cuts", &rec->cuts_ns);
    cuts = harp::QuantileCuts::Compute(data, params.max_bins, &pool);
  }
  result->Call();
  harp::BinnedMatrix matrix;
  {
    LayerCall call(tracer, "data.bin", &rec->bin_ns);
    matrix = harp::BinnedMatrix::Build(data, std::move(cuts), &pool);
  }
  result->Call();
  harp::GbdtModel model;
  {
    LayerCall call(tracer, "train.boost", &rec->train_ns);
    model = harp::GbdtTrainer(params).TrainBinned(matrix, data.labels(),
                                                  &rec->stats);
  }
  result->Call();
  ok = Save(model, model_path, tracer, result, rec);
  rec->total_ns = harp::NowNs() - start;
  return ok;
}

// Binned cache -> trees -> model file. `use_mmap` maps the bin matrix
// (the measured path); the heap load trains the set-up reference.
bool TrainFromCache(const std::string& cache, bool use_mmap,
                    const std::string& model_path, Tracer& tracer,
                    Result* result, TrainRecord* rec) {
  const int64_t start = harp::NowNs();
  harp::BinnedMatrix matrix;
  std::vector<float> labels;
  std::string error;
  harp::CacheReadOptions options;
  options.use_mmap = use_mmap;
  bool ok = false;
  {
    LayerCall call(tracer, "cache.open", &rec->cache_open_ns);
    ok = harp::ReadBinnedCache(cache, &matrix, &labels, &error, options,
                               &rec->cache);
  }
  if (!result->Op(ok, "ReadBinnedCache: " + error)) return false;
  if (use_mmap && !result->Op(rec->cache.mapped, "cache not mapped: " +
                                                     rec->cache.note)) {
    return false;
  }
  harp::GbdtModel model;
  {
    LayerCall call(tracer, "train.boost", &rec->train_ns);
    model = harp::GbdtTrainer(CachedParams())
                .TrainBinned(matrix, labels, &rec->stats);
  }
  result->Call();
  ok = Save(model, model_path, tracer, result, rec);
  rec->total_ns = harp::NowNs() - start;
  return ok;
}

// LibSVM text -> sharded training over `workers` in-process workers ->
// rank 0's model file. Every rank computes cuts from the full dataset
// inside DistributedGbdt::Train.
bool TrainFromLibsvm(const std::string& svm, int workers,
                     const std::string& model_path, harp::ThreadPool& pool,
                     Tracer& tracer, Result* result, TrainRecord* rec) {
  const int64_t start = harp::NowNs();
  harp::Dataset data;
  std::string error;
  bool ok = false;
  {
    LayerCall call(tracer, "data.read_libsvm", &rec->read_ns);
    ok = harp::ReadLibsvm(svm, SparseOptions(), &data, &error, &rec->ingest,
                          &pool);
  }
  if (!result->Op(ok, "ReadLibsvm: " + error)) return false;
  harp::DistributedResult trained;
  {
    LayerCall call(tracer, "dist.train", &rec->train_ns);
    trained = harp::DistributedGbdt::Train(data, workers, SparseParams(),
                                           kThreads / workers);
  }
  result->Call();
  rec->comm = trained.comm;
  ok = Save(trained.model, model_path, tracer, result, rec);
  rec->total_ns = harp::NowNs() - start;
  return ok;
}

// ---------------------------------------------------------------- predict

struct PredictRecord {
  harp::Dataset test;
  std::vector<double> binned;  // margins via the binned traversal
  std::vector<double> raw;     // margins via the raw-value traversal
  int64_t load_ns = 0;
  int64_t read_ns = 0;
  int64_t flatten_ns = 0;
  int64_t bin_ns = 0;
  int64_t traverse_binned_ns = 0;
  int64_t traverse_raw_ns = 0;
  int64_t total_ns = 0;  // model file + test rows -> binned margins
};

// The CLI's predict path: model file + held-out rows -> bin with the
// model's cuts -> margins. The raw-value traversal of the same rows is
// timed on its own, outside total_ns.
bool PredictFromFile(const std::string& model_path, const char* read_span,
                     const TestReader& read_test, harp::ThreadPool& pool,
                     Tracer& tracer, Result* result, PredictRecord* rec) {
  const int64_t start = harp::NowNs();
  harp::GbdtModel model;
  std::string error;
  bool ok = false;
  {
    LayerCall call(tracer, "model_io.load", &rec->load_ns);
    ok = harp::LoadModel(model_path, &model, &error);
  }
  if (!result->Op(ok, "LoadModel: " + error)) return false;
  {
    LayerCall call(tracer, read_span, &rec->read_ns);
    ok = read_test(&rec->test, &error);
  }
  if (!result->Op(ok, "reading held-out rows: " + error)) return false;
  std::shared_ptr<const harp::FlatForest> flat;
  {
    LayerCall call(tracer, "predict.flatten", &rec->flatten_ns);
    flat = model.FlatSnapshot();
  }
  result->Call();
  const harp::Predictor predictor(*flat);
  harp::BinnedMatrix binned;
  {
    LayerCall call(tracer, "predict.bin", &rec->bin_ns);
    binned = model.BinDataset(rec->test, &pool);
  }
  result->Call();
  {
    LayerCall call(tracer, "predict.traverse_binned",
                   &rec->traverse_binned_ns);
    rec->binned = predictor.PredictMargins(binned, &pool);
  }
  result->Call();
  rec->total_ns = harp::NowNs() - start;
  {
    LayerCall call(tracer, "predict.traverse_raw", &rec->traverse_raw_ns);
    rec->raw = predictor.PredictMargins(rec->test, &pool);
  }
  result->Call();
  return true;
}

TestReader CsvTest(const Args& args, harp::ThreadPool& pool) {
  const std::string path = PathIn(args, "test.csv");
  return [path, &pool](harp::Dataset* out, std::string* error) {
    return harp::ReadCsv(path, {}, out, error, nullptr, &pool);
  };
}

TestReader LibsvmTest(const Args& args, harp::ThreadPool& pool) {
  const std::string path = PathIn(args, "test.svm");
  return [path, &pool](harp::Dataset* out, std::string* error) {
    return harp::ReadLibsvm(path, SparseOptions(), out, error, nullptr, &pool);
  };
}

TestReader CacheTest(const std::string& path) {
  return [path](harp::Dataset* out, std::string* error) {
    return harp::ReadDatasetCache(path, out, error);
  };
}

// ---------------------------------------------------------------- set-up

bool WriteReferences(const Args& args, const std::string& model_path,
                     const char* read_span, const TestReader& read_test,
                     harp::ThreadPool& pool, Tracer& tracer, Result* result) {
  PredictRecord rec;
  if (!PredictFromFile(model_path, read_span, read_test, pool, tracer, result,
                       &rec)) {
    return false;
  }
  return result->Op(WriteDoubles(PathIn(args, "ref_binned.f64"), rec.binned) &&
                        WriteDoubles(PathIn(args, "ref_raw.f64"), rec.raw),
                    "writing reference margins");
}

// Generates the workload's population, `train` rows of it for training and
// the rest held out, and draws this seed's training and held-out samples
// from the two parts (each the size of its part).
void Generate(const harp::SyntheticSpec& spec, uint32_t train, uint64_t seed,
              harp::ThreadPool& pool, harp::Dataset* train_out,
              harp::Dataset* test_out) {
  const harp::Dataset all = harp::GenerateSynthetic(spec, &pool);
  *train_out = Resample(all.Slice(0, train), train, 2 * seed);
  *test_out = Resample(all.Slice(train, all.num_rows()),
                       all.num_rows() - train, 2 * seed + 1);
}

void SetupPipelineDense(const Args& args, Tracer& tracer, Result* result) {
  harp::ThreadPool pool(kThreads);
  harp::Dataset train, test;
  Generate(HiggsShape(kDenseTrain + kDenseTest), kDenseTrain, args.seed, pool,
           &train, &test);
  if (!result->Op(WriteCsv(PathIn(args, "train.csv"), train) &&
                      WriteCsv(PathIn(args, "test.csv"), test),
                  "writing CSV inputs")) {
    return;
  }
  // The reference is a fresh run of the measured path.
  TrainRecord rec;
  if (TrainFromCsv(PathIn(args, "train.csv"), PathIn(args, "ref.model"), pool,
                   tracer, result, &rec)) {
    WriteReferences(args, PathIn(args, "ref.model"), "data.read_csv",
                    CsvTest(args, pool), pool, tracer, result);
  }
}

void SetupRetrainCached(const Args& args, Tracer& tracer, Result* result) {
  harp::ThreadPool pool(kThreads);
  harp::Dataset train, test;
  Generate(CriteoShape(kCachedTrain + kCachedTest), kCachedTrain, args.seed,
           pool, &train, &test);
  harp::QuantileCuts cuts = harp::QuantileCuts::Compute(
      train, CachedParams().max_bins, &pool);
  const harp::BinnedMatrix matrix =
      harp::BinnedMatrix::Build(train, std::move(cuts), &pool);
  std::string error;
  harp::CacheWriteOptions aligned;
  aligned.page_align = true;
  if (!result->Op(harp::WriteBinnedCache(PathIn(args, "train.binned"), matrix,
                                         train.labels(), &error) &&
                      harp::WriteDatasetCache(PathIn(args, "test.cache"), test,
                                              &error, aligned),
                  "writing caches: " + error)) {
    return;
  }
  // The reference trains from a heap copy of the same cache.
  TrainRecord rec;
  if (TrainFromCache(PathIn(args, "train.binned"), /*use_mmap=*/false,
                     PathIn(args, "ref.model"), tracer, result, &rec)) {
    WriteReferences(args, PathIn(args, "ref.model"), "cache.read_test",
                    CacheTest(PathIn(args, "test.cache")), pool, tracer,
                    result);
  }
}

void SetupDistSparse(const Args& args, Tracer& tracer, Result* result) {
  harp::ThreadPool pool(kThreads);
  harp::Dataset train, test;
  Generate(SparseShape(kSparseTrain + kSparseTest), kSparseTrain, args.seed,
           pool, &train, &test);
  if (!result->Op(WriteLibsvm(PathIn(args, "train.svm"), train) &&
                      WriteLibsvm(PathIn(args, "test.svm"), test),
                  "writing LibSVM inputs")) {
    return;
  }
  // The reference is the same training on one worker.
  TrainRecord rec;
  if (TrainFromLibsvm(PathIn(args, "train.svm"), /*workers=*/1,
                      PathIn(args, "ref.model"), pool, tracer, result, &rec)) {
    WriteReferences(args, PathIn(args, "ref.model"), "data.read_libsvm",
                    LibsvmTest(args, pool), pool, tracer, result);
  }
}

void SetupServeOpen(const Args& args, Result* result) {
  harp::ThreadPool pool(kThreads);
  harp::Dataset train, requests;
  Generate(HiggsShape(kServeTrain + kServeRequests), kServeTrain, args.seed,
           pool, &train, &requests);
  const harp::TrainParams params = DenseParams();
  const int64_t start = harp::NowNs();
  harp::BinnedMatrix matrix = harp::BinnedMatrix::Build(
      train, harp::QuantileCuts::Compute(train, params.max_bins, &pool),
      &pool);
  const harp::GbdtModel model_a =
      harp::GbdtTrainer(params).TrainBinned(matrix, train.labels());
  result->Set("train_s", static_cast<double>(harp::NowNs() - start) * 1e-9);
  // The second generation the reloader alternates with: the same trees
  // from a base margin one higher, so every swap changes the served
  // margins but not the work per row, and serving throughput does not
  // depend on which generation is live.
  harp::GbdtModel model_b = model_a;
  model_b.set_base_margin(model_a.base_margin() + 1.0);
  std::string error;
  harp::CacheWriteOptions aligned;
  aligned.page_align = true;
  result->Op(
      harp::SaveModel(PathIn(args, "model_a.model"), model_a, &error) &&
          harp::SaveModel(PathIn(args, "model_b.model"), model_b, &error) &&
          harp::WriteDatasetCache(PathIn(args, "requests.cache"), requests,
                                  &error, aligned),
      "writing serve_open inputs: " + error);
}

// ---------------------------------------------------------------- measure

struct Loop {
  std::vector<double> traced_ns;
  std::vector<double> untraced_ns;
};

// Runs iteration() under a "bench.iteration" root span, then serving()
// outside it, until `until_ns` leaves no room for another round of the
// last one's length (at least `min_iterations`). Interleaving the two
// spreads both over the whole window, so a burst of outside load reaches
// only some samples of each. With --trace 1 every other iteration is
// traced, so traced and untraced iterations interleave and their
// difference is the tracing overhead.
template <typename Fn, typename Serve>
Loop RunIterations(const Args& args, Tracer& tracer, int64_t until_ns,
                   int min_iterations, Fn&& iteration, Serve&& serving) {
  Loop loop;
  int64_t round_ns = 0;
  for (int i = 0; i < min_iterations || harp::NowNs() + round_ns < until_ns;
       ++i) {
    const bool traced = args.trace && i % 2 == 0;
    tracer.set_enabled(traced);
    const int64_t start = harp::NowNs();
    {
      Tracer::Scope root(tracer, "bench.iteration");
      iteration();
    }
    const int64_t iteration_ns = harp::NowNs() - start;
    (traced ? loop.traced_ns : loop.untraced_ns)
        .push_back(static_cast<double>(iteration_ns));
    std::fprintf(stderr, "iteration %d%s: %.1f ms\n", i,
                 traced ? " (traced)" : "",
                 static_cast<double>(iteration_ns) * 1e-6);
    tracer.set_enabled(args.trace);
    serving();
    round_ns = harp::NowNs() - start;
  }
  return loop;
}

struct References {
  std::string model;
  std::vector<double> binned;
  std::vector<double> raw;
};

bool LoadReferences(const Args& args, Result* result, References* refs) {
  return result->Op(ReadFileBytes(PathIn(args, "ref.model"), &refs->model) &&
                        ReadDoubles(PathIn(args, "ref_binned.f64"),
                                    &refs->binned) &&
                        ReadDoubles(PathIn(args, "ref_raw.f64"), &refs->raw),
                    "reading set-up references (run the set-up phase first)");
}

void CheckModelFile(const std::string& path, const References& refs,
                    Result* result) {
  std::string bytes;
  result->Op(ReadFileBytes(path, &bytes) && bytes == refs.model,
             "model file differs from the set-up reference");
}

void CheckMargins(const PredictRecord& rec, const References& refs,
                  Result* result) {
  result->Op(SameBits(rec.binned, refs.binned),
             "binned margins differ from the reference");
  result->Op(SameBits(rec.raw, refs.raw),
             "raw margins differ from the reference");
}

void AddTrainSamples(const TrainRecord& rec, Samples* s) {
  s->Add("train_s", static_cast<double>(rec.total_ns) * 1e-9);
  // src/data
  s->Add("data.read_ns", static_cast<double>(rec.ingest.read_ns));
  s->Add("data.parse_ns", static_cast<double>(rec.ingest.parse_ns));
  s->Add("data.parse_mb_per_s", rec.ingest.ParseMBps());
  s->Add("data.cuts_ns", static_cast<double>(rec.cuts_ns));
  s->Add("data.bin_ns", static_cast<double>(rec.bin_ns));
  // cache and out-of-core storage
  const harp::TrainStats& t = rec.stats;
  s->Add("data.cache_open_ns", static_cast<double>(rec.cache_open_ns));
  s->Add("data.mapped_bytes", static_cast<double>(rec.cache.mapped_bytes));
  s->Add("data.minor_faults", static_cast<double>(t.minor_faults));
  s->Add("data.major_faults", static_cast<double>(t.major_faults));
  s->Add("data.prefetch_advised_bytes",
         static_cast<double>(t.oo_advised_bytes));
  s->Add("data.prefetch_retired_bytes",
         static_cast<double>(t.oo_retired_bytes));
  // src/core training (TrainStats; zero for the distributed trainer,
  // which reports none)
  s->Add("core.gradient_ns", static_cast<double>(t.gradient_ns));
  s->Add("core.quantize_ns", static_cast<double>(t.quantize_ns));
  s->Add("core.build_hist_ns", static_cast<double>(t.build_hist_ns));
  s->Add("core.reduce_ns", static_cast<double>(t.reduce_ns));
  s->Add("core.find_split_ns", static_cast<double>(t.find_split_ns));
  s->Add("core.apply_split_ns", static_cast<double>(t.apply_split_ns));
  s->Add("core.update_ns", static_cast<double>(t.update_ns));
  s->Add("core.hist_updates", static_cast<double>(t.hist_updates));
  s->Add("core.ns_per_hist_update", t.NsPerHistUpdate());
  s->Add("core.hist_peak_bytes", static_cast<double>(t.hist_peak_bytes));
  s->Add("core.apply_bytes_moved", static_cast<double>(t.apply_bytes_moved));
  s->Add("core.apply_allocs", static_cast<double>(t.apply_allocs));
  s->Add("core.save_model_ns", static_cast<double>(rec.save_ns));
  // src/parallel
  s->Add("parallel.region_launches",
         static_cast<double>(t.sync.parallel_regions));
  s->Add("parallel.phase_barriers", static_cast<double>(t.sync.phase_barriers));
  s->Add("parallel.utilization",
         t.wall_ns > 0 ? t.sync.Utilization(t.wall_ns) : 0.0);
  s->Add("parallel.barrier_overhead", t.sync.BarrierOverhead());
  s->Add("parallel.barrier_wait_ns", static_cast<double>(t.sync.barrier_wait_ns));
  // src/distributed
  const harp::CommStats& c = rec.comm;
  s->Add("dist.hist_exchanges", static_cast<double>(c.hist_exchanges));
  s->Add("dist.hist_wire_bytes", static_cast<double>(c.hist_wire_bytes));
  s->Add("dist.hist_dense_bytes", static_cast<double>(c.hist_dense_bytes));
  s->Add("dist.allreduce_calls", static_cast<double>(c.allreduce_calls));
  s->Add("dist.allreduce_bytes", static_cast<double>(c.allreduce_bytes));
  s->Add("dist.broadcast_bytes", static_cast<double>(c.broadcast_bytes));
  s->Add("dist.barriers", static_cast<double>(c.barriers));
  s->Add("dist.wire_bytes_per_tree",
         static_cast<double>(c.hist_wire_bytes) / kDistTrees);
}

void AddPredictSamples(const PredictRecord& rec, const std::string& model,
                       Samples* s) {
  s->Add("predict_rows_per_s", static_cast<double>(rec.test.num_rows()) *
                                   1e9 / static_cast<double>(rec.total_ns));
  s->Add("test_auc", harp::Auc(rec.test.labels(), rec.binned));
  s->Add("core.load_model_ns", static_cast<double>(rec.load_ns));
  s->Add("core.model_bytes", static_cast<double>(FileSize(model)));
  s->Add("predict.flatten_ns", static_cast<double>(rec.flatten_ns));
  s->Add("predict.bin_ns", static_cast<double>(rec.bin_ns));
  s->Add("predict.traverse_binned_ns",
         static_cast<double>(rec.traverse_binned_ns));
  s->Add("predict.traverse_raw_ns", static_cast<double>(rec.traverse_raw_ns));
}

// Serving ladders; rates are requests per second. Both top out at least
// 2x below the knee measured on 4 vCPUs (the single generator thread
// saturates between 1.6M and 3.2M requests/s with 28-feature rows, and
// near 400k/s with 2000-feature rows), so every rate normally meets the
// limit and serve_max_rps reads the top rate unless serving slows.
LadderConfig ServeOpenLadder() {
  LadderConfig config;
  config.rates = {12500, 25000, 50000, 100000, 200000, 400000, 800000};
  config.middle = 3;
  config.step_ns = 100'000'000;
  config.reload_every_ns = kReloadEveryNs;
  return config;
}

// The training workloads' serving stage: a shorter ladder, no reloads.
LadderConfig TailLadder() {
  LadderConfig config;
  config.rates = {12500, 25000, 50000, 100000, 200000};
  config.middle = 2;
  config.step_ns = 40'000'000;
  return config;
}

void SetServeMetrics(const LadderOutcome& out, Result* result) {
  result->Set("serve_p50_us", out.p50_us);
  result->Set("serve_p99_us", out.p99_us);
  result->Set("serve_max_rps", out.max_rps);
  result->Set("serve.queue_p50_us", out.queue_p50_us);
  result->Set("serve.queue_p99_us", out.queue_p99_us);
  result->Set("serve.service_p50_us", out.service_p50_us);
  result->Set("serve.service_p99_us", out.service_p99_us);
  result->Set("serve.batch_fill", out.batch_fill);
  result->Set("serve.deadline_seal_frac", out.deadline_seal_frac);
  result->Set("serve.reload_ns", out.reload_ns);
  result->Set("serve.snapshots_unfreed",
              static_cast<double>(out.snapshots_unfreed));
  result->Set("serve.generator_lag_us", out.generator_lag_us);
}

// Self time per layer: the median over work iterations, plus the serving
// stage's library-layer self time per ladder pass (its "bench" spans are
// the request generator's schedule, not glue, and are left out).
void ReportTrace(const Args& args, const Tracer& tracer, const Loop& loop,
                 int serve_passes, Result* result) {
  std::map<std::string, double> self;
  for (const auto& [root, layers] : tracer.SelfNsByRoot()) {
    for (const auto& [layer, values] : layers) {
      if (root == "bench.iteration") {
        self[layer] += Median(values);
      } else if (layer != "bench") {
        self[layer] += std::accumulate(values.begin(), values.end(), 0.0) /
                       std::max(1, serve_passes);
      }
    }
  }
  for (const char* layer : kLayers) {
    result->Set(std::string("self.") + layer + "_ns", self[layer]);
  }
  // Two views of the tracing overhead: the measured difference between
  // traced and untraced iterations (within run-to-run noise), and what
  // the spans of a traced iteration can have cost at the measured price
  // of one span.
  const double traced = Median(loop.traced_ns);
  const double untraced = Median(loop.untraced_ns);
  result->Set("trace.overhead_frac",
              untraced > 0 ? traced / untraced - 1.0 : 0.0);
  const double span_ns = Tracer::MeasureSpanCostNs();
  result->Set("trace.span_cost_ns", span_ns);
  const double spans_per_iteration =
      static_cast<double>(tracer.SpansUnder("bench.iteration")) /
      static_cast<double>(std::max<size_t>(1, loop.traced_ns.size()));
  result->Set("trace.span_overhead_frac",
              traced > 0 ? span_ns * spans_per_iteration / traced : 0.0);
  result->Op(tracer.WriteChromeTrace(PathIn(args, "trace.json")),
             "writing the Chrome trace");
}

void Finish(const Args& args, const Tracer& tracer, const Loop& loop,
            int serve_passes, const Samples& samples, Result* result) {
  samples.SetMedians(result);
  if (args.trace) ReportTrace(args, tracer, loop, serve_passes, result);
}

// The training workloads' measured phase: repeat train -> check model file
// -> predict -> check margins, each time followed by serving passes over
// held-out rows from the set-up reference model file (the file every
// iteration must reproduce), until the window is used up.
using TrainFn = std::function<bool(const std::string& model_path,
                                   TrainRecord* rec)>;

void MeasureTraining(const Args& args, const TrainFn& train,
                     const char* read_span, const TestReader& read_test,
                     harp::ThreadPool& pool, Tracer& tracer, Result* result) {
  const int64_t until =
      harp::NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  References refs;
  if (!LoadReferences(args, result, &refs)) return;
  harp::GbdtModel served;
  std::vector<float> rows;
  uint32_t width = 0;
  {
    harp::Dataset test;
    std::string error;
    if (!result->Op(harp::LoadModel(PathIn(args, "ref.model"), &served,
                                    &error),
                    "LoadModel: " + error) ||
        !result->Op(read_test(&test, &error) && test.num_rows() > 0,
                    "reading held-out rows: " + error)) {
      return;
    }
    rows = DenseRows(test, kTailServeRows);
    width = test.num_features();
  }
  const uint32_t num_rows = static_cast<uint32_t>(rows.size() / width);
  const std::vector<double> reference(refs.raw.begin(),
                                      refs.raw.begin() + num_rows);
  Ladder ladder(served, rows.data(), num_rows, width, {&reference},
                TailLadder(), tracer, result);

  const std::string model_path = PathIn(args, "run.model");
  Samples samples;
  const auto iteration = [&] {
    TrainRecord rec;
    if (!train(model_path, &rec)) return;
    CheckModelFile(model_path, refs, result);
    AddTrainSamples(rec, &samples);
    PredictRecord predicted;
    if (!PredictFromFile(model_path, read_span, read_test, pool, tracer,
                         result, &predicted)) {
      return;
    }
    CheckMargins(predicted, refs, result);
    AddPredictSamples(predicted, model_path, &samples);
  };
  const Loop loop = RunIterations(args, tracer, until, 3, iteration, [&] {
    for (int i = 0; i < kTailPassesPerIteration; ++i) ladder.Pass();
  });
  const LadderOutcome out = ladder.Finish();
  SetServeMetrics(out, result);
  Finish(args, tracer, loop, out.passes, samples, result);
}

void MeasurePipelineDense(const Args& args, Tracer& tracer, Result* result) {
  harp::ThreadPool pool(kThreads);
  const std::string csv = PathIn(args, "train.csv");
  MeasureTraining(
      args,
      [&](const std::string& model_path, TrainRecord* rec) {
        return TrainFromCsv(csv, model_path, pool, tracer, result, rec);
      },
      "data.read_csv", CsvTest(args, pool), pool, tracer, result);
}

void MeasureRetrainCached(const Args& args, Tracer& tracer, Result* result) {
  harp::ThreadPool pool(kThreads);
  const std::string cache = PathIn(args, "train.binned");
  MeasureTraining(
      args,
      [&](const std::string& model_path, TrainRecord* rec) {
        return TrainFromCache(cache, /*use_mmap=*/true, model_path, tracer,
                              result, rec);
      },
      "cache.read_test", CacheTest(PathIn(args, "test.cache")), pool, tracer,
      result);
}

void MeasureDistSparse(const Args& args, Tracer& tracer, Result* result) {
  harp::ThreadPool pool(kThreads);
  const std::string svm = PathIn(args, "train.svm");
  MeasureTraining(
      args,
      [&](const std::string& model_path, TrainRecord* rec) {
        if (!TrainFromLibsvm(svm, /*workers=*/2, model_path, pool, tracer,
                             result, rec)) {
          return false;
        }
        if (args.trace) {
          // Each rank computes cuts inside DistributedGbdt::Train, where
          // the benchmark cannot open a span; time the same call on the
          // training rows on its own, outside train_s.
          harp::Dataset data;
          std::string error;
          if (!result->Op(harp::ReadLibsvm(svm, SparseOptions(), &data,
                                           &error, nullptr, &pool),
                          "ReadLibsvm: " + error)) {
            return false;
          }
          LayerCall call(tracer, "data.cuts", &rec->cuts_ns);
          harp::QuantileCuts::Compute(data, SparseParams().max_bins);
        }
        return true;
      },
      "data.read_libsvm", LibsvmTest(args, pool), pool, tracer, result);
}

void MeasureServeOpen(const Args& args, Tracer& tracer, Result* result) {
  const int64_t end = harp::NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  harp::ThreadPool pool(kThreads);
  const std::string model_a = PathIn(args, "model_a.model");
  const std::string model_b = PathIn(args, "model_b.model");
  const TestReader read_requests = CacheTest(PathIn(args, "requests.cache"));

  // Batch-Predictor margins of both generations: the references every
  // served margin is checked against, and the predict path's output.
  PredictRecord ref_a, ref_b;
  if (!PredictFromFile(model_a, "cache.read_test", read_requests, pool,
                       tracer, result, &ref_a) ||
      !PredictFromFile(model_b, "cache.read_test", read_requests, pool,
                       tracer, result, &ref_b)) {
    return;
  }
  harp::GbdtModel initial;
  std::string error;
  if (!result->Op(harp::LoadModel(model_a, &initial, &error),
                  "LoadModel: " + error)) {
    return;
  }
  const std::vector<float> rows =
      DenseRows(ref_a.test, ref_a.test.num_rows());
  LadderConfig config = ServeOpenLadder();
  // Version 1 is model A; reloads alternate B, A, B, ...
  config.reload_paths = {model_b, model_a};
  Ladder ladder(initial, rows.data(), ref_a.test.num_rows(),
                ref_a.test.num_features(), {&ref_a.raw, &ref_b.raw},
                std::move(config), tracer, result);

  // One batch predict call between ladder passes.
  Samples samples;
  const auto predict = [&] {
    PredictRecord rec;
    if (!PredictFromFile(model_a, "cache.read_test", read_requests, pool,
                         tracer, result, &rec)) {
      return;
    }
    result->Op(SameBits(rec.binned, ref_a.binned) &&
                   SameBits(rec.raw, ref_a.raw),
               "margins differ between identical predict calls");
    AddPredictSamples(rec, model_a, &samples);
  };
  const Loop loop =
      RunIterations(args, tracer, end, 3, predict, [&] { ladder.Pass(); });
  const LadderOutcome out = ladder.Finish();
  SetServeMetrics(out, result);
  Finish(args, tracer, loop, out.passes, samples, result);
}

}  // namespace

bool RunSetup(const Args& args, Tracer& tracer, Result* result) {
  if (args.workload == "pipeline_dense") {
    SetupPipelineDense(args, tracer, result);
  } else if (args.workload == "retrain_cached") {
    SetupRetrainCached(args, tracer, result);
  } else if (args.workload == "dist_sparse") {
    SetupDistSparse(args, tracer, result);
  } else if (args.workload == "serve_open") {
    SetupServeOpen(args, result);
  } else {
    return false;
  }
  return true;
}

bool RunMeasure(const Args& args, Tracer& tracer, Result* result) {
  if (args.workload == "pipeline_dense") {
    MeasurePipelineDense(args, tracer, result);
  } else if (args.workload == "retrain_cached") {
    MeasureRetrainCached(args, tracer, result);
  } else if (args.workload == "dist_sparse") {
    MeasureDistSparse(args, tracer, result);
  } else if (args.workload == "serve_open") {
    MeasureServeOpen(args, tracer, result);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
