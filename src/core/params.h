// Training hyper-parameters and the HarpGBDT system parameters (Table IV).
#pragma once

#include <cstdint>
#include <string>

namespace harp {

enum class ObjectiveKind {
  kLogistic,       // binary classification, logloss
  kSquaredError,   // regression
  kQuantile,       // quantile (pinball) regression at quantile_alpha
  kPoisson,        // count regression, log link, Poisson deviance
  kLambdaRank,     // list-wise ranking, NDCG@ndcg_k (needs qid groups)
};

// Tree growth methods (Section IV-B). TopK generalizes both: K=1 is
// leafwise; depthwise is its own policy (level order, same tree as TopK
// with K = all leaves of the level).
enum class GrowPolicy { kDepthwise, kLeafwise, kTopK };

// Parallelism modes (Table II).
enum class ParallelMode {
  kDP,     // data parallelism: per-thread model replicas over row blocks
  kMP,     // model parallelism: tasks over <node_blk x feature_blk> blocks
  kSYNC,   // mixed (DP, MP, DP) chosen per batch by growth phase
  kASYNC,  // node-level tasks + spin mutex, no barriers (Section IV-D)
};

struct TrainParams {
  // --- boosting ---
  int num_trees = 100;
  double learning_rate = 0.1;      // the paper's fixed 0.1
  double reg_lambda = 1.0;         // L2 regularization (lambda)
  double min_split_loss = 1.0;     // gamma
  double min_child_weight = 1.0;   // minimum hessian sum per child
  double base_score = 0.5;         // initial prediction (probability space)
  ObjectiveKind objective = ObjectiveKind::kLogistic;
  // kQuantile: the target quantile (0 < alpha < 1). Persisted with the
  // model so prediction-time reporting knows which quantile it serves.
  double quantile_alpha = 0.5;
  // kPoisson: hessian stabilizer — h = exp(margin + max_delta_step) caps
  // the per-round leaf step at ~max_delta_step in log space.
  double max_delta_step = 0.7;
  // kLambdaRank: NDCG truncation depth, used for both the lambda weights
  // (|delta NDCG@k|) and the default eval metric.
  int ndcg_k = 10;
  // Validation metric name ("logloss", "rmse", "auc", "error", "pinball",
  // "poisson-deviance", "ndcg", "ndcg@<k>"); empty = derived from the
  // objective. See Metric::DefaultName.
  std::string eval_metric;
  int max_bins = 256;

  // --- tree shape ---
  // The paper's tree size D: the tree grows to at most 2^D leaves. For the
  // depthwise policy the depth is also limited to D; leafwise/TopK trees
  // may grow much deeper (the CRITEO discussion: depth > 150).
  int tree_size = 8;
  GrowPolicy grow_policy = GrowPolicy::kTopK;
  int topk = 32;                   // K: candidates popped per step

  // --- parallelism (Table IV) ---
  ParallelMode mode = ParallelMode::kSYNC;
  int num_threads = 0;             // 0 = ThreadPool::DefaultThreads()
  // Row block size for DP task scheduling; 0 = auto (batch_rows / threads).
  int64_t row_blk_size = 0;
  // Candidate nodes grouped per DP replica block / MP cube. 0 = auto: DP
  // groups as many nodes as keep the per-thread replicas (threads x block
  // x TotalBins x cell bytes) within a fixed 1 MiB cache budget, at least
  // one and never more than the batch; MP cubes stay one node wide. The
  // block never changes the model, only the barrier count per batch.
  int node_blk_size = 0;
  // Features per block; 0 = all features in one block (pure DP layout).
  int feature_blk_size = 0;
  // Fused-step scheduler: run each TopK batch (apply / build / reduce /
  // subtract / find) inside ONE persistent parallel region with in-region
  // phase barriers instead of one region launch per phase. Off = the
  // region-per-phase path, kept as the bit-identity oracle (outputs are
  // identical either way). Ignored by ASYNC, which has its own one-region
  // node-task scheduler, and by sharded training (DistributedGbdt): the
  // fused step has no reduce phase yet, and the histogram reduce must sit
  // between the build and the subtract/find phases.
  bool use_fused_step = true;

  // --- memory optimizations (Section IV-E) ---
  bool use_membuf = true;           // (rowid, g, h) node buffers, Fig. 7
  // Parent - sibling trick: only the smaller child of a split is scanned,
  // and the parent's buffer becomes the larger child's in place. Between
  // steps only the candidates the next pop can take keep a histogram (the
  // first min(K, leaves left) in pop order), so live histograms stay at
  // 2K; a popped candidate without one builds both children. On by
  // default for f64 and quantized histograms alike: quantized sums are
  // integers, and f64 sums of float gradients stay exact at these sizes,
  // so models match the direct build byte for byte (DefaultBlocking in
  // tests/test_tree_builder.cpp, HIGGS- and CRITEO-shaped data). ASYNC
  // node tasks always build both children directly.
  bool use_hist_subtraction = true;
  // Quantized histograms (core/quantize.h): per-round fixed-point packing
  // of (g, h) into one int32 and int64 accumulator cells, halving the hot
  // loop's gradient-read and GHSum-write traffic. Off = the f64 accuracy
  // oracle. ASYNC has no quantized path, so Validate refuses the pair.
  // Results change within the quantization error bound, but are
  // deterministic for a fixed config.
  bool quantize_hist = false;
  // Histogram-kernel dispatch level: "auto" (cpuid probe, overridable via
  // the HARP_SIMD env var), "scalar", or "avx2". Named levels that the
  // binary/CPU cannot run fall back to scalar with a warning.
  std::string simd = "auto";

  // --- distributed training (DistributedGbdt) ---
  // Histogram-exchange encoding: "dense" (full f64 buffers, the bit-
  // identity oracle) or "sparse" (SparseHistogram compressed frames —
  // touched-region runs, and 8-byte quantized cells when quantize_hist is
  // on). Both produce bitwise-identical models. Only directly built
  // histograms are exchanged, so use_hist_subtraction halves the child
  // traffic. Single-node training ignores this.
  std::string comm_compress = "dense";

  // --- stochastic boosting (excluded from the paper's controlled timing
  // experiments, Section V-A4, but part of any production GBDT) ---
  double subsample = 1.0;           // row fraction per tree
  double colsample_bytree = 1.0;    // feature fraction per tree

  uint64_t seed = 7;

  // Maximum leaves implied by tree_size.
  int64_t MaxLeaves() const { return int64_t{1} << tree_size; }
  // Depth limit: tree_size for depthwise, effectively unbounded otherwise.
  int MaxDepth() const;
  // Effective K per pop for the configured policy.
  int EffectiveTopK() const;

  // The first rule the values break, as a message naming the field and
  // its value; empty when every value is in range. For callers that refuse
  // bad input cleanly (the CLI exits 2 with it).
  std::string Check() const;
  // CHECK-fails with Check()'s message; returns *this for chaining.
  const TrainParams& Validate() const;
};

// Enum <-> string helpers (model IO, CLI flags in the examples).
std::string ToString(ObjectiveKind kind);
std::string ToString(GrowPolicy policy);
std::string ToString(ParallelMode mode);
bool ParseObjectiveKind(const std::string& text, ObjectiveKind* out);
bool ParseGrowPolicy(const std::string& text, GrowPolicy* out);
bool ParseParallelMode(const std::string& text, ParallelMode* out);

}  // namespace harp
