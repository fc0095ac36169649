#include "core/params.h"

#include <limits>

#include "common/logging.h"

namespace harp {

int TrainParams::MaxDepth() const {
  if (grow_policy == GrowPolicy::kDepthwise) return tree_size;
  // Leafwise / TopK trees are depth-unbounded in the paper; cap at a value
  // no finite leaf budget can exceed (2^tree_size leaves implies fewer than
  // 2^tree_size internal splits on any path).
  return std::numeric_limits<int>::max() - 1;
}

int TrainParams::EffectiveTopK() const {
  switch (grow_policy) {
    case GrowPolicy::kLeafwise:
      return 1;
    case GrowPolicy::kTopK:
      return topk;
    case GrowPolicy::kDepthwise:
      // Depthwise pops whole levels; the value is unused but a sane
      // default keeps instrumentation uniform.
      return topk;
  }
  return 1;
}

const TrainParams& TrainParams::Validate() const {
  HARP_CHECK_GE(num_trees, 1);
  HARP_CHECK_GT(learning_rate, 0.0);
  HARP_CHECK_GE(reg_lambda, 0.0);
  HARP_CHECK_GE(min_split_loss, 0.0);
  HARP_CHECK_GE(min_child_weight, 0.0);
  // base_score lives in probability space for logistic (sigmoid inverse)
  // and in rate space for Poisson (log link); the regression objectives
  // take it as a raw initial margin, so any finite value is legal there.
  if (objective == ObjectiveKind::kLogistic) {
    HARP_CHECK_GT(base_score, 0.0);
    HARP_CHECK_LT(base_score, 1.0);
  } else if (objective == ObjectiveKind::kPoisson) {
    HARP_CHECK_GT(base_score, 0.0);
  }
  HARP_CHECK_GT(quantile_alpha, 0.0);
  HARP_CHECK_LT(quantile_alpha, 1.0);
  HARP_CHECK_GE(max_delta_step, 0.0);
  HARP_CHECK_GE(ndcg_k, 1);
  HARP_CHECK_GE(max_bins, 2);
  HARP_CHECK_LE(max_bins, 256);
  HARP_CHECK_GE(tree_size, 1);
  HARP_CHECK_LE(tree_size, 24);  // 2^24 leaves: beyond any sane setting
  HARP_CHECK_GE(topk, 1);
  HARP_CHECK_GE(num_threads, 0);
  HARP_CHECK_GE(row_blk_size, 0);
  HARP_CHECK_GE(node_blk_size, 0);
  HARP_CHECK_GE(feature_blk_size, 0);
  HARP_CHECK_GT(subsample, 0.0);
  HARP_CHECK_LE(subsample, 1.0);
  HARP_CHECK_GT(colsample_bytree, 0.0);
  HARP_CHECK_LE(colsample_bytree, 1.0);
  HARP_CHECK(simd == "auto" || simd == "scalar" || simd == "avx2")
      << "simd must be auto|scalar|avx2, got '" << simd << "'";
  HARP_CHECK(!(quantize_hist && mode == ParallelMode::kASYNC))
      << "quantize_hist is not supported in ASYNC mode (its serial node "
         "tasks have no quantized path); use DP, MP or SYNC";
  HARP_CHECK(comm_compress == "dense" || comm_compress == "sparse")
      << "comm_compress must be dense|sparse, got '" << comm_compress << "'";
  return *this;
}

std::string ToString(ObjectiveKind kind) {
  switch (kind) {
    case ObjectiveKind::kLogistic: return "logistic";
    case ObjectiveKind::kSquaredError: return "squared";
    case ObjectiveKind::kQuantile: return "quantile";
    case ObjectiveKind::kPoisson: return "poisson";
    case ObjectiveKind::kLambdaRank: return "lambdarank";
  }
  return "?";
}

std::string ToString(GrowPolicy policy) {
  switch (policy) {
    case GrowPolicy::kDepthwise: return "depthwise";
    case GrowPolicy::kLeafwise: return "leafwise";
    case GrowPolicy::kTopK: return "topk";
  }
  return "?";
}

std::string ToString(ParallelMode mode) {
  switch (mode) {
    case ParallelMode::kDP: return "DP";
    case ParallelMode::kMP: return "MP";
    case ParallelMode::kSYNC: return "SYNC";
    case ParallelMode::kASYNC: return "ASYNC";
  }
  return "?";
}

bool ParseObjectiveKind(const std::string& text, ObjectiveKind* out) {
  if (text == "logistic") { *out = ObjectiveKind::kLogistic; return true; }
  if (text == "squared") { *out = ObjectiveKind::kSquaredError; return true; }
  if (text == "quantile") { *out = ObjectiveKind::kQuantile; return true; }
  if (text == "poisson") { *out = ObjectiveKind::kPoisson; return true; }
  if (text == "lambdarank") { *out = ObjectiveKind::kLambdaRank; return true; }
  return false;
}

bool ParseGrowPolicy(const std::string& text, GrowPolicy* out) {
  if (text == "depthwise") { *out = GrowPolicy::kDepthwise; return true; }
  if (text == "leafwise") { *out = GrowPolicy::kLeafwise; return true; }
  if (text == "topk") { *out = GrowPolicy::kTopK; return true; }
  return false;
}

bool ParseParallelMode(const std::string& text, ParallelMode* out) {
  if (text == "DP") { *out = ParallelMode::kDP; return true; }
  if (text == "MP") { *out = ParallelMode::kMP; return true; }
  if (text == "SYNC") { *out = ParallelMode::kSYNC; return true; }
  if (text == "ASYNC") { *out = ParallelMode::kASYNC; return true; }
  return false;
}

}  // namespace harp
