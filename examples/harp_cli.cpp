// harp_cli — command-line trainer/predictor, the downstream-user interface.
//
//   harp_cli train   --data train.csv [--format csv|libsvm] --model out.model
//                    [--trees 100] [--tree-size 8] [--grow topk]
//                    [--k 32] [--mode ASYNC] [--threads N] [--eta 0.1]
//                    [--lambda 1] [--gamma 1] [--min-child-weight 1]
//                    [--objective logistic|squared|quantile|poisson|
//                    lambdarank] [--alpha 0.5] [--max-delta-step 0.7]
//                    [--ndcg-k 10] [--metric NAME] [--subsample 1.0]
//                    [--colsample 1.0] [--valid valid.csv]
//                    [--early-stopping 0] [--label-column 0] [--header]
//                    [--quantize] [--simd auto]
//                    [--membuf-off] [--subtraction-off]
//                    --subtraction-off scans both children of every
//                    split (the oracle for the default parent - sibling
//                    subtraction; same model bytes).
//                    --quantize accumulates histograms in 16-bit
//                    fixed-point (faster, accuracy within the
//                    quantization error bound; refused with --mode
//                    ASYNC); --simd forces the kernel dispatch level
//                    (auto|scalar|avx2).
//                    --alpha sets the quantile for --objective quantile;
//                    --max-delta-step stabilizes poisson; lambdarank
//                    needs libsvm data with qid: columns and optimizes
//                    NDCG@<--ndcg-k>. --metric overrides the validation
//                    metric (logloss|rmse|auc|error|pinball|
//                    poisson-deviance|ndcg|ndcg@<k>) — early stopping
//                    maximizes or minimizes according to the metric.
//                    Out-of-core / cache options: --from-cache F trains
//                    straight from a binary cache (dataset cache or
//                    binned cache, auto-detected) instead of re-parsing
//                    text; --mmap backs the large payload with a file
//                    mapping instead of heap copies (training then
//                    reads the binned cache through the kernel's
//                    default paging).
//                    --save-cache F writes the loaded dataset as a
//                    page-aligned (mmap-ready) cache; --save-binned F
//                    writes the post-quantile binned artifact.
//   harp_cli predict --data test.csv --model in.model [--output preds.txt]
//                    [--raw] [--threads N]
//                    Batch inference via the flat block-wise Predictor.
//                    Default: bins the input with the model's cuts and
//                    traverses on 1-byte bin comparisons; --raw skips
//                    binning and compares raw float features (same
//                    predictions — use it when predicting few rows or
//                    when binning cost matters). Reports rows/sec
//                    throughput on stderr.
//   harp_cli eval    --data test.csv --model in.model
//   harp_cli inspect --model in.model [--top 10]
//   harp_cli dist-train
//                    (--data train.csv [--format csv|libsvm] |
//                     --synth ROWS,FEATURES,DENSITY,SKEW,SEED)
//                    [--workers N] [--rank R --world W --port P]
//                    [--compress dense|sparse] [--trees 20]
//                    [--tree-size 6] [--k 8] [--threads 1]
//                    [--model out.model] [any other train flag]
//                    Sharded training over the collective layer; it takes
//                    train's training flags (--mode DP|MP|SYNC, --objective,
//                    --alpha, --subtraction-off, --subsample, --quantize,
//                    ...)
//                    with the defaults shown, and --threads sizes each
//                    worker's pool. --mode ASYNC is refused. Default:
//                    N in-process workers (threads). With --rank/--world/
//                    --port, this process is ONE rank of a multi-process
//                    run over loopback TCP (rank 0 must be listening on
//                    --port; launch all W ranks with identical data and
//                    params). Every rank trains the bitwise-identical
//                    model and saves it to --model, so model files from
//                    different ranks/backends/encodings can be compared
//                    with cmp(1). --compress sparse ships compressed
//                    SparseHistogram frames (with 8-byte quantized cells
//                    under --quantize); dense is the f64 oracle. --synth
//                    generates the sparse LibSVM-like synthetic in every
//                    process deterministically (no file needed).
//   harp_cli serve   --data test.csv --model in.model [--threads N]
//                    [--reloads 0] [--output preds.txt]
//                    Serving smoke: replays every row as a single-row
//                    Submit() against a ModelServer (an idle worker takes
//                    the open batch at once; rows that arrive while every
//                    worker is busy coalesce into blocks), hot-swapping
//                    the model --reloads times mid-stream, then verifies each
//                    served margin bit-exactly against the batch
//                    Predictor and reports latency percentiles.
//
// Every command refuses a flag it does not read and a value that does not
// parse (a non-number for a numeric flag, an unknown mode or encoding):
// it prints the offending flag and exits with status 2.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "common/timer.h"
#include "distributed/socket_transport.h"
#include "harpgbdt.h"

namespace {

using namespace harp;

// A flag the command does not read, or a value that does not parse.
// main() prints it and exits with status 2.
struct FlagError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void BadValue(const std::string& key, const std::string& value,
                           const char* want) {
  throw FlagError("bad --" + key + " '" + value + "' (want " + want + ")");
}

struct Args {
  std::string command;
  std::map<std::string, std::string> values;
  std::map<std::string, bool> flags;

  std::string Get(const std::string& key, const std::string& dflt) const {
    auto it = values.find(key);
    return it != values.end() ? it->second : dflt;
  }
  // Numeric getters take the whole value or throw FlagError: "3x", "" and
  // out-of-range numbers are refused rather than truncated.
  template <typename T>
  T GetNumber(const std::string& key, T dflt, const char* want) const {
    auto it = values.find(key);
    if (it == values.end()) return dflt;
    const std::string& text = it->second;
    const char* end = text.data() + text.size();
    T v{};
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || stop != end) BadValue(key, text, want);
    return v;
  }
  double GetDouble(const std::string& key, double dflt) const {
    return GetNumber(key, dflt, "a number");
  }
  int GetInt(const std::string& key, int dflt) const {
    return GetNumber(key, dflt, "an integer");
  }
  bool Has(const std::string& key) const { return flags.count(key) > 0; }
};

// The flags each command reads, as " name name ... " lists. Switches take
// no value; every other flag takes one.
constexpr char kSwitches[] =
    " header zero-based membuf-off subtraction-off raw quantize mmap ";
constexpr char kLoadFlags[] =
    " data format label-column header zero-based threads ";
constexpr char kTrainFlags[] =
    " trees tree-size eta lambda gamma min-child-weight k subsample"
    " colsample membuf-off subtraction-off quantize simd grow"
    " mode objective alpha max-delta-step ndcg-k metric model ";

// Empty for an unknown command.
std::string CommandFlags(const std::string& command) {
  const std::string load = kLoadFlags;
  if (command == "train") {
    return load + kTrainFlags +
           " from-cache mmap save-cache save-binned valid early-stopping ";
  }
  if (command == "dist-train") {
    return load + kTrainFlags + " synth workers rank world port compress ";
  }
  if (command == "predict") return load + " model output raw ";
  if (command == "eval") return load + " model ndcg-k ";
  if (command == "inspect") return " model top ";
  if (command == "serve") return load + " model reloads output ";
  return "";
}

bool InList(const std::string& list, const std::string& name) {
  return list.find(" " + name + " ") != std::string::npos;
}

int Usage() {
  std::fprintf(stderr,
               "usage: harp_cli <train|predict|eval|inspect|serve|"
               "dist-train> [options]\n"
               "  dist-train: (--data F | --synth R,F,DENS,SKEW,SEED)\n"
               "           [--workers N | --rank R --world W --port P]\n"
               "           [--compress dense|sparse] [--model F]\n"
               "           [train's training flags, e.g. --mode SYNC\n"
               "           --subtraction-off --quantize --objective O]\n"
               "  predict: --data F --model F [--output F] [--raw]\n"
               "           [--threads N]  (--raw predicts on raw floats\n"
               "           instead of binning first; both report rows/sec)\n"
               "  serve:   --data F --model F [--threads N]\n"
               "           [--reloads 0] [--output F]\n"
               "           (single-row Submit replay with verification)\n"
               "see the header comment of examples/harp_cli.cpp\n");
  return 2;
}

// Returns false for a missing or unknown command; throws FlagError for a
// flag the command does not read or one missing its value.
bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  const std::string allowed = CommandFlags(args->command);
  if (allowed.empty()) return false;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw FlagError("unexpected argument '" + arg + "'");
    }
    arg = arg.substr(2);
    if (!InList(allowed, arg)) throw FlagError("unknown flag --" + arg);
    if (InList(kSwitches, arg)) {
      args->flags[arg] = true;
    } else {
      if (i + 1 >= argc) throw FlagError("--" + arg + " needs a value");
      args->values[arg] = argv[++i];
    }
  }
  return true;
}

bool LoadData(const Args& args, const std::string& path, Dataset* out,
              IngestStats* ingest = nullptr) {
  std::string error;
  const std::string format = args.Get("format", "csv");
  // --threads governs parsing too; the readers spin up a transient pool
  // when the file is large enough for more than one chunk.
  const int threads = args.GetInt("threads", 0);
  ThreadPool pool(threads > 0 ? threads : ThreadPool::DefaultThreads());
  bool ok = false;
  if (format == "csv") {
    CsvOptions options;
    options.label_column = args.GetInt("label-column", 0);
    options.has_header = args.Has("header");
    ok = ReadCsv(path, options, out, &error, ingest, &pool);
  } else if (format == "libsvm") {
    LibsvmOptions options;
    options.zero_based = args.Has("zero-based");
    ok = ReadLibsvm(path, options, out, &error, ingest, &pool);
  } else {
    error = "unknown format " + format;
  }
  if (!ok) std::fprintf(stderr, "failed to load %s: %s\n", path.c_str(),
                        error.c_str());
  return ok;
}

// Reads every training flag into `p`. Flags that are absent keep the value
// `p` already holds, so each command sets its own defaults first. Throws
// FlagError on a bad value.
void ParseTrainParams(const Args& args, TrainParams* p) {
  p->num_trees = args.GetInt("trees", p->num_trees);
  p->tree_size = args.GetInt("tree-size", p->tree_size);
  p->learning_rate = args.GetDouble("eta", p->learning_rate);
  p->reg_lambda = args.GetDouble("lambda", p->reg_lambda);
  p->min_split_loss = args.GetDouble("gamma", p->min_split_loss);
  p->min_child_weight =
      args.GetDouble("min-child-weight", p->min_child_weight);
  p->topk = args.GetInt("k", p->topk);
  p->num_threads = args.GetInt("threads", p->num_threads);
  p->subsample = args.GetDouble("subsample", p->subsample);
  p->colsample_bytree = args.GetDouble("colsample", p->colsample_bytree);
  if (args.Has("membuf-off")) p->use_membuf = false;
  if (args.Has("subtraction-off")) p->use_hist_subtraction = false;
  if (args.Has("quantize")) p->quantize_hist = true;
  p->simd = args.Get("simd", p->simd);
  if (p->simd != "auto" && p->simd != "scalar" && p->simd != "avx2") {
    BadValue("simd", p->simd, "auto|scalar|avx2");
  }
  const auto parse = [&](const char* flag, auto parser, auto* out,
                         const char* want) {
    const auto it = args.values.find(flag);
    if (it != args.values.end() && !parser(it->second, out)) {
      BadValue(flag, it->second, want);
    }
  };
  parse("grow", ParseGrowPolicy, &p->grow_policy, "depthwise|leafwise|topk");
  parse("mode", ParseParallelMode, &p->mode, "DP|MP|SYNC|ASYNC");
  parse("objective", ParseObjectiveKind, &p->objective,
        "logistic|squared|quantile|poisson|lambdarank");
  p->quantile_alpha = args.GetDouble("alpha", p->quantile_alpha);
  p->max_delta_step = args.GetDouble("max-delta-step", p->max_delta_step);
  p->ndcg_k = args.GetInt("ndcg-k", p->ndcg_k);
  p->eval_metric = args.Get("metric", p->eval_metric);
  if (p->quantize_hist && p->mode == ParallelMode::kASYNC) {
    throw FlagError("--quantize is not supported with --mode ASYNC");
  }
  // Values that parse but are out of range (--tree-size 99,
  // --subsample 0) are refused here, before any data is read, instead of
  // CHECK-aborting later in TrainParams::Validate.
  const std::string broken = p->Check();
  if (!broken.empty()) throw FlagError(broken);
}

int CmdTrain(const Args& args) {
  // Flag values are checked before any data is read.
  TrainParams p;
  ParseTrainParams(args, &p);
  Dataset train;
  BinnedMatrix binned;
  std::vector<float> binned_labels;
  bool use_binned = false;  // training input is the binned artifact
  IngestStats ingest;
  const std::string from_cache = args.Get("from-cache", "");
  if (!from_cache.empty()) {
    // Train straight from a binary cache image — no text re-parse. The
    // file kind is sniffed: a binned cache feeds TrainBinned directly
    // (sketch + bin already done), a dataset cache feeds the normal path.
    std::string error;
    CacheReadOptions copts;
    copts.use_mmap = args.Has("mmap");
    CacheReadInfo cinfo;
    const Stopwatch read_watch;
    if (IsBinnedCacheFile(from_cache)) {
      if (!ReadBinnedCache(from_cache, &binned, &binned_labels, &error,
                           copts, &cinfo)) {
        std::fprintf(stderr, "failed to load %s: %s\n", from_cache.c_str(),
                     error.c_str());
        return 1;
      }
      use_binned = true;
      ingest.rows = binned.num_rows();
      ingest.bytes = binned.MemoryBytes() + binned.MappedBytes();
      std::printf("loaded binned cache: %u rows x %u features (%s)\n",
                  binned.num_rows(), binned.num_features(),
                  cinfo.mapped ? "mmap" : "heap");
    } else {
      if (!ReadDatasetCache(from_cache, &train, &error, copts, &cinfo)) {
        std::fprintf(stderr, "failed to load %s: %s\n", from_cache.c_str(),
                     error.c_str());
        return 1;
      }
      ingest.rows = train.num_rows();
      ingest.bytes = train.MemoryBytes() + train.MappedBytes();
      std::printf("loaded %u rows x %u features (S=%.2f, %s)\n",
                  train.num_rows(), train.num_features(),
                  train.Sparseness(), cinfo.mapped ? "mmap" : "heap");
    }
    ingest.read_ns = read_watch.ElapsedNs();
    ingest.mmap_bytes = cinfo.mapped_bytes;
    if (cinfo.mapped) ingest.peak_rss_bytes = PeakRssBytes();
    if (!cinfo.note.empty()) {
      std::fprintf(stderr, "cache note: %s\n", cinfo.note.c_str());
    }
  } else {
    if (!LoadData(args, args.Get("data", ""), &train, &ingest)) return 1;
    std::printf("loaded %u rows x %u features (S=%.2f)\n", train.num_rows(),
                train.num_features(), train.Sparseness());
  }

  const std::vector<float>& train_labels =
      use_binned ? binned_labels : train.labels();
  const bool train_has_groups =
      use_binned ? binned.has_groups() : train.has_groups();
  if (p.objective == ObjectiveKind::kPoisson) {
    for (float y : train_labels) {
      if (y < 0.0f) {
        std::fprintf(stderr,
                     "poisson objective requires non-negative labels\n");
        return 1;
      }
    }
  }
  if (p.objective == ObjectiveKind::kLambdaRank && !train_has_groups) {
    std::fprintf(stderr,
                 "lambdarank requires qid: columns (libsvm format)\n");
    return 1;
  }

  // Cache writers: --save-cache persists the raw dataset page-aligned
  // (mmap-ready); --save-binned persists the post-quantile artifact the
  // out-of-core trainer maps. Both run before training so a cache exists
  // even if a long run is interrupted.
  const std::string save_cache = args.Get("save-cache", "");
  if (!save_cache.empty()) {
    if (use_binned) {
      std::fprintf(stderr,
                   "--save-cache needs raw data (input is a binned cache)\n");
      return 1;
    }
    CacheWriteOptions wopts;
    wopts.page_align = true;
    std::string error;
    if (!WriteDatasetCache(save_cache, train, &error, wopts)) {
      std::fprintf(stderr, "save-cache failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("dataset cache (page-aligned) saved to %s\n",
                save_cache.c_str());
  }
  const std::string save_binned = args.Get("save-binned", "");
  if (!save_binned.empty() && !use_binned) {
    // Sketch + bin here so the written artifact is exactly what training
    // uses; the run then continues on the binned matrix.
    ThreadPool pool(p.num_threads > 0 ? p.num_threads
                                      : ThreadPool::DefaultThreads());
    const Stopwatch sketch_watch;
    QuantileCuts cuts = QuantileCuts::Compute(train, p.max_bins, &pool);
    ingest.sketch_ns += sketch_watch.ElapsedNs();
    const Stopwatch bin_watch;
    binned = BinnedMatrix::Build(train, std::move(cuts), &pool);
    ingest.bin_ns += bin_watch.ElapsedNs();
    binned_labels = train.labels();
    use_binned = true;
    std::string error;
    if (!WriteBinnedCache(save_binned, binned, binned_labels, &error)) {
      std::fprintf(stderr, "save-binned failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("binned cache saved to %s\n", save_binned.c_str());
  }

  Dataset valid;
  EvalSet eval;
  EvalSet* eval_ptr = nullptr;
  if (!args.Get("valid", "").empty()) {
    if (!LoadData(args, args.Get("valid", ""), &valid)) return 1;
    eval.data = &valid;
    eval.early_stopping_rounds = args.GetInt("early-stopping", 0);
    eval_ptr = &eval;
  }

  TrainStats stats;
  GbdtTrainer trainer(p);
  const GbdtModel model =
      use_binned
          ? trainer.TrainBinned(binned, binned_labels, &stats, {}, eval_ptr)
          : trainer.Train(train, &stats, {}, eval_ptr, &ingest);
  std::printf("%s\n", ingest.Summary().c_str());
  std::printf("%s", stats.Report().c_str());
  if (eval_ptr != nullptr && !eval.history.empty()) {
    std::printf("validation %s (%s is better): first=%.5f best=%.5f "
                "(iter %d) last=%.5f\n",
                eval.metric_name.c_str(),
                eval.higher_is_better ? "higher" : "lower",
                eval.history.front(), eval.best_metric, eval.best_iteration,
                eval.history.back());
  }

  const std::string model_path = args.Get("model", "harp.model");
  std::string error;
  if (!SaveModel(model_path, model, &error)) {
    std::fprintf(stderr, "save failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("model (%zu trees, %lld nodes) saved to %s\n",
              model.NumTrees(), static_cast<long long>(model.TotalNodes()),
              model_path.c_str());
  return 0;
}

int CmdPredict(const Args& args) {
  GbdtModel model;
  std::string error;
  if (!LoadModel(args.Get("model", "harp.model"), &model, &error)) {
    std::fprintf(stderr, "load failed: %s\n", error.c_str());
    return 1;
  }
  Dataset data;
  IngestStats ingest;
  if (!LoadData(args, args.Get("data", ""), &data, &ingest)) return 1;

  const int threads = args.GetInt("threads", 0);
  ThreadPool pool(threads > 0 ? threads : ThreadPool::DefaultThreads());

  // Flatten once, then drive the block-wise Predictor; --raw traverses
  // on float features, the default bins first and compares bin bytes.
  const FlatForest flat = model.Flatten();
  const Predictor predictor(flat);
  const Stopwatch watch;
  std::vector<double> margins;
  if (args.Has("raw")) {
    margins = predictor.PredictMargins(data, &pool);
  } else {
    const Stopwatch bin_watch;
    const BinnedMatrix binned = model.BinDataset(data, &pool);
    ingest.bin_ns = bin_watch.ElapsedNs();
    margins = predictor.PredictMargins(binned, &pool);
  }
  const double seconds = watch.ElapsedSec();
  std::fprintf(stderr, "%s\n", ingest.Summary().c_str());
  std::fprintf(stderr,
               "predicted %u rows in %.3fs (%.0f rows/sec, %s path, "
               "%d threads)\n",
               data.num_rows(), seconds,
               static_cast<double>(data.num_rows()) / seconds,
               args.Has("raw") ? "raw" : "binned", pool.num_threads());
  const std::string out_path = args.Get("output", "");
  std::FILE* out = out_path.empty() ? stdout
                                    : std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  for (double m : margins) {
    std::fprintf(out, "%.9g\n", model.Transform(m));
  }
  if (out != stdout) {
    std::fclose(out);
    std::printf("wrote %zu predictions to %s\n", margins.size(),
                out_path.c_str());
  }
  return 0;
}

int CmdEval(const Args& args) {
  GbdtModel model;
  std::string error;
  if (!LoadModel(args.Get("model", "harp.model"), &model, &error)) {
    std::fprintf(stderr, "load failed: %s\n", error.c_str());
    return 1;
  }
  Dataset data;
  if (!LoadData(args, args.Get("data", ""), &data)) return 1;

  ThreadPool pool(ThreadPool::DefaultThreads());
  const std::vector<double> preds = model.Predict(data, &pool);
  switch (model.objective()) {
    case ObjectiveKind::kLogistic:
      std::printf("rows=%u AUC=%.5f logloss=%.5f error=%.5f\n",
                  data.num_rows(), Auc(data.labels(), preds),
                  LogLoss(data.labels(), preds),
                  ErrorRate(data.labels(), preds));
      break;
    case ObjectiveKind::kQuantile:
      std::printf("rows=%u pinball(alpha=%.3f)=%.5f\n", data.num_rows(),
                  model.quantile_alpha(),
                  PinballLoss(data.labels(), preds, model.quantile_alpha()));
      break;
    case ObjectiveKind::kPoisson:
      std::printf("rows=%u poisson-deviance=%.5f RMSE=%.5f\n",
                  data.num_rows(), MeanPoissonDeviance(data.labels(), preds),
                  Rmse(data.labels(), preds));
      break;
    case ObjectiveKind::kLambdaRank: {
      if (!data.has_groups()) {
        std::fprintf(stderr,
                     "eval of a lambdarank model needs qid: columns\n");
        return 1;
      }
      const int k = args.GetInt("ndcg-k", 10);
      std::printf("rows=%u queries=%u NDCG@%d=%.5f\n", data.num_rows(),
                  data.num_groups(), k,
                  NdcgAtK(data.labels(), preds, data.group_ptr(), k));
      break;
    }
    case ObjectiveKind::kSquaredError:
      std::printf("rows=%u RMSE=%.5f\n", data.num_rows(),
                  Rmse(data.labels(), preds));
      break;
  }
  return 0;
}

int CmdInspect(const Args& args) {
  GbdtModel model;
  std::string error;
  if (!LoadModel(args.Get("model", "harp.model"), &model, &error)) {
    std::fprintf(stderr, "load failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("objective: %s\n", ToString(model.objective()).c_str());
  std::printf("trees: %zu, total nodes: %lld\n", model.NumTrees(),
              static_cast<long long>(model.TotalNodes()));
  int max_depth = 0;
  int64_t leaves = 0;
  for (const RegTree& tree : model.trees()) {
    max_depth = std::max(max_depth, tree.MaxDepth());
    leaves += tree.NumLeaves();
  }
  std::printf("max depth: %d, total leaves: %lld\n", max_depth,
              static_cast<long long>(leaves));
  const FeatureImportance importance =
      ComputeImportance(model, model.cuts().num_features());
  std::printf("top features by gain:\n%s",
              FormatImportance(importance,
                               static_cast<size_t>(args.GetInt("top", 10)))
                  .c_str());
  return 0;
}

int CmdServe(const Args& args) {
  GbdtModel model;
  std::string error;
  if (!LoadModel(args.Get("model", "harp.model"), &model, &error)) {
    std::fprintf(stderr, "load failed: %s\n", error.c_str());
    return 1;
  }
  Dataset data;
  if (!LoadData(args, args.Get("data", ""), &data)) return 1;

  ServeConfig config;
  config.num_threads = args.GetInt("threads", 0);
  ModelServer server(model, config);
  const uint32_t width = server.row_width();
  const uint32_t rows = data.num_rows();
  const int reloads = args.GetInt("reloads", 0);

  // Replay every row as an independent single-row request. Rows are
  // densified to the serving width (missing = NaN); tickets are collected
  // and drained afterwards so the admission queue actually coalesces.
  std::vector<float> dense(static_cast<size_t>(rows) * width,
                           kMissingValue);
  for (uint32_t r = 0; r < rows; ++r) {
    float* row = dense.data() + static_cast<size_t>(r) * width;
    data.ForEachInRow(r, [&](uint32_t f, float v) {
      if (f < width) row[f] = v;
    });
  }
  std::vector<ServeTicket> tickets(rows);
  const Stopwatch watch;
  for (uint32_t r = 0; r < rows; ++r) {
    if (reloads > 0 && r > 0 && r % (rows / (reloads + 1) + 1) == 0) {
      server.Reload(model);  // same trees, new snapshot generation
    }
    tickets[r] = server.Submit(
        dense.data() + static_cast<size_t>(r) * width, width);
  }
  server.Flush();
  std::vector<double> served(rows);
  for (uint32_t r = 0; r < rows; ++r) served[r] = tickets[r].Wait();
  const double seconds = watch.ElapsedSec();

  // Bit-exact cross-check against the batch raw-float Predictor.
  const std::vector<double> expect = model.PredictMargins(data);
  uint32_t mismatches = 0;
  for (uint32_t r = 0; r < rows; ++r) {
    if (served[r] != expect[r]) ++mismatches;
  }
  const ServeStats stats = server.Stats();
  server.Shutdown();
  std::fprintf(stderr, "%s\n", stats.Summary().c_str());
  std::fprintf(stderr,
               "served %u rows in %.3fs (%.0f rows/sec), model v%llu, "
               "verify: %u mismatches\n",
               rows, seconds, static_cast<double>(rows) / seconds,
               static_cast<unsigned long long>(stats.model_version),
               mismatches);
  if (mismatches != 0) return 1;

  const std::string out_path = args.Get("output", "");
  if (!out_path.empty()) {
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    for (double m : served) {
      std::fprintf(out, "%.9g\n", model.Transform(m));
    }
    std::fclose(out);
    std::printf("wrote %u predictions to %s\n", rows, out_path.c_str());
  }
  return 0;
}

// --synth ROWS,FEATURES,DENSITY,SKEW,SEED: the sparse LibSVM-like
// synthetic, generated deterministically in every process.
bool ParseSynthSpec(const std::string& text, SyntheticSpec* spec) {
  unsigned rows = 0, features = 0;
  double density = 0.0, skew = 0.0;
  unsigned long long seed = 0;
  if (std::sscanf(text.c_str(), "%u,%u,%lf,%lf,%llu", &rows, &features,
                  &density, &skew, &seed) != 5) {
    return false;
  }
  spec->name = "dist-synth";
  spec->rows = rows;
  spec->features = features;
  spec->density = density;
  spec->density_skew = skew;
  spec->seed = seed;
  spec->mean_distinct = 48.0;
  spec->distinct_cv = 0.5;
  spec->active_features = std::min(16u, features);
  spec->margin_scale = 3.0;
  spec->sparse_storage = density < 0.5;
  return rows > 0 && features > 0 && density > 0.0 && density <= 1.0;
}

void PrintCommStats(const char* prefix, const CommStats& s) {
  std::printf("%s: allreduce %lld calls / %lld B in %.1f ms\n", prefix,
              static_cast<long long>(s.allreduce_calls),
              static_cast<long long>(s.allreduce_bytes),
              NsToMs(s.allreduce_ns));
  if (s.hist_exchanges > 0) {
    const double ratio =
        s.hist_wire_bytes > 0 ? static_cast<double>(s.hist_dense_bytes) /
                                    static_cast<double>(s.hist_wire_bytes)
                              : 0.0;
    std::printf(
        "%s: %lld hist exchanges in %.1f ms (encode %.1f, transport %.1f, "
        "fold %.1f), wire %lld B vs dense %lld B (compression %.2fx)\n",
        prefix, static_cast<long long>(s.hist_exchanges),
        NsToMs(s.hist_exchange_ns), NsToMs(s.hist_encode_ns),
        NsToMs(s.HistTransportNs()), NsToMs(s.hist_fold_ns),
        static_cast<long long>(s.hist_wire_bytes),
        static_cast<long long>(s.hist_dense_bytes), ratio);
  }
}

// One rank's grow-loop phases. build_hist includes the exchange and the
// subtraction; find includes the best-split allreduce.
void PrintRankPhases(const char* prefix, const TrainStats& t) {
  std::printf(
      "%s: build_hist %.1f ms (subtract %.1f), find %.1f ms, apply %.1f ms, "
      "wall %.1f ms\n",
      prefix, NsToMs(t.build_hist_ns), NsToMs(t.subtract_ns),
      NsToMs(t.find_split_ns), NsToMs(t.apply_split_ns), NsToMs(t.wall_ns));
}

int CmdDistTrain(const Args& args) {
  // dist-train's own defaults: smaller trees, and --threads sizes each
  // worker's pool (the workers are the parallelism).
  TrainParams p;
  p.num_trees = 20;
  p.tree_size = 6;
  p.topk = 8;
  p.num_threads = 1;
  ParseTrainParams(args, &p);
  if (p.mode == ParallelMode::kASYNC) {
    throw FlagError("dist-train does not support --mode ASYNC (use DP, MP or "
                    "SYNC)");
  }
  p.comm_compress = args.Get("compress", "dense");
  if (p.comm_compress != "dense" && p.comm_compress != "sparse") {
    BadValue("compress", p.comm_compress, "dense|sparse");
  }
  const int worker_threads = std::max(1, p.num_threads);
  // A socket rank's flags, and the worker count, are checked before any
  // data is loaded.
  const bool socket_rank = args.values.count("rank") > 0;
  const int rank = args.GetInt("rank", 0);
  const int world = args.GetInt("world", 1);
  const int port = args.GetInt("port", 0);
  const int workers = args.GetInt("workers", 2);
  if (!socket_rank && workers < 1) {
    BadValue("workers", args.Get("workers", ""), "an integer >= 1");
  }
  if (socket_rank) {
    if (world < 1) BadValue("world", args.Get("world", ""), "an integer >= 1");
    if (rank < 0 || rank >= world) {
      BadValue("rank", args.Get("rank", ""), "an integer in [0, --world)");
    }
    if (port < 1 || port > 65535) {
      BadValue("port", args.Get("port", ""), "an integer in [1, 65535]");
    }
  }

  Dataset data;
  const std::string synth = args.Get("synth", "");
  if (!synth.empty()) {
    SyntheticSpec spec;
    if (!ParseSynthSpec(synth, &spec)) {
      BadValue("synth", synth, "ROWS,FEATURES,DENSITY,SKEW,SEED");
    }
    ThreadPool pool(ThreadPool::DefaultThreads());
    data = GenerateSynthetic(spec, &pool);
  } else if (!LoadData(args, args.Get("data", ""), &data)) {
    return 1;
  }
  std::printf("loaded %u rows x %u features (S=%.2f)\n", data.num_rows(),
              data.num_features(), data.Sparseness());
  if (p.objective == ObjectiveKind::kLambdaRank && !data.has_groups()) {
    std::fprintf(stderr,
                 "lambdarank requires qid: columns (libsvm format)\n");
    return 1;
  }
  // What the data cannot honour (more workers than rows, say) is refused
  // like a bad flag.
  const std::string shard_error =
      ShardingError(data, p, socket_rank ? world : workers);
  if (!shard_error.empty()) throw FlagError(shard_error);
  const std::string model_path = args.Get("model", "");
  GbdtModel model;

  if (socket_rank) {
    // One rank of a multi-process run over loopback TCP.
    try {
      const auto transport = SocketTransport::Create(rank, world, port);
      Communicator comm(*transport);
      const Stopwatch watch;
      TrainStats stats;
      model =
          DistributedGbdt::TrainShard(data, comm, p, worker_threads, &stats);
      std::printf("rank %d/%d: trained %d trees in %.3fs (%s exchange)\n",
                  rank, world, p.num_trees, watch.ElapsedSec(),
                  p.comm_compress.c_str());
      PrintRankPhases("rank", stats);
      PrintCommStats("rank", comm.stats());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rank %d failed: %s\n", rank, e.what());
      return 1;
    }
  } else {
    DistributedResult result =
        DistributedGbdt::Train(data, workers, p, worker_threads);
    std::printf("workers=%d: trained %d trees in %.3fs (%s exchange)\n",
                result.workers, p.num_trees, result.seconds,
                p.comm_compress.c_str());
    PrintCommStats("total", result.comm);
    for (size_t r = 0; r < result.per_rank.size(); ++r) {
      std::string prefix = "rank " + std::to_string(r);
      PrintRankPhases(prefix.c_str(), result.rank_stats[r]);
      PrintCommStats(prefix.c_str(), result.per_rank[r]);
    }
    model = std::move(result.model);
  }

  if (!model_path.empty()) {
    std::string error;
    if (!SaveModel(model_path, model, &error)) {
      std::fprintf(stderr, "save failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("model (%zu trees) saved to %s\n", model.NumTrees(),
                model_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!ParseArgs(argc, argv, &args)) return Usage();
    if (args.command == "train") return CmdTrain(args);
    if (args.command == "predict") return CmdPredict(args);
    if (args.command == "eval") return CmdEval(args);
    if (args.command == "inspect") return CmdInspect(args);
    if (args.command == "serve") return CmdServe(args);
    return CmdDistTrain(args);
  } catch (const FlagError& e) {
    std::fprintf(stderr, "harp_cli %s: %s\n", args.command.c_str(),
                 e.what());
    return 2;
  }
}
