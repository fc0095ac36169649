#include "core/params.h"

#include <limits>
#include <sstream>

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

std::string TrainParams::Check() const {
  std::ostringstream out;
  const auto broken = [&out](const char* rule, const auto& value) {
    out << rule << ", got " << value;
    return out.str();
  };
  // Each rule is written as "refuse unless in range", so NaN is refused.
  if (!(num_trees >= 1)) return broken("num_trees must be >= 1", num_trees);
  if (!(learning_rate > 0.0)) {
    return broken("learning_rate must be > 0", learning_rate);
  }
  if (!(reg_lambda >= 0.0)) {
    return broken("reg_lambda must be >= 0", reg_lambda);
  }
  if (!(min_split_loss >= 0.0)) {
    return broken("min_split_loss must be >= 0", min_split_loss);
  }
  if (!(min_child_weight >= 0.0)) {
    return broken("min_child_weight must be >= 0", min_child_weight);
  }
  // base_score lives in probability space for logistic (sigmoid inverse)
  // and in rate space for Poisson (log link); the regression objectives
  // take it as a raw initial margin, so any finite value is legal there.
  if (objective == ObjectiveKind::kLogistic &&
      !(base_score > 0.0 && base_score < 1.0)) {
    return broken("base_score must be in (0, 1) for the logistic objective",
                  base_score);
  }
  if (objective == ObjectiveKind::kPoisson && !(base_score > 0.0)) {
    return broken("base_score must be > 0 for the poisson objective",
                  base_score);
  }
  if (!(quantile_alpha > 0.0 && quantile_alpha < 1.0)) {
    return broken("quantile_alpha must be in (0, 1)", quantile_alpha);
  }
  if (!(max_delta_step >= 0.0)) {
    return broken("max_delta_step must be >= 0", max_delta_step);
  }
  if (!(ndcg_k >= 1)) return broken("ndcg_k must be >= 1", ndcg_k);
  if (!(max_bins >= 2 && max_bins <= 256)) {
    return broken("max_bins must be in [2, 256]", max_bins);
  }
  // 2^24 leaves: beyond any sane setting.
  if (!(tree_size >= 1 && tree_size <= 24)) {
    return broken("tree_size must be in [1, 24]", tree_size);
  }
  if (!(topk >= 1)) return broken("topk must be >= 1", topk);
  if (!(num_threads >= 0)) {
    return broken("num_threads must be >= 0", num_threads);
  }
  if (!(row_blk_size >= 0)) {
    return broken("row_blk_size must be >= 0", row_blk_size);
  }
  if (!(node_blk_size >= 0)) {
    return broken("node_blk_size must be >= 0", node_blk_size);
  }
  if (!(feature_blk_size >= 0)) {
    return broken("feature_blk_size must be >= 0", feature_blk_size);
  }
  if (!(subsample > 0.0 && subsample <= 1.0)) {
    return broken("subsample must be in (0, 1]", subsample);
  }
  if (!(colsample_bytree > 0.0 && colsample_bytree <= 1.0)) {
    return broken("colsample_bytree must be in (0, 1]", colsample_bytree);
  }
  if (simd != "auto" && simd != "scalar" && simd != "avx2") {
    return broken("simd must be auto|scalar|avx2", "'" + simd + "'");
  }
  if (quantize_hist && mode == ParallelMode::kASYNC) {
    return "quantize_hist is not supported in ASYNC mode (its serial node "
           "tasks have no quantized path); use DP, MP or SYNC";
  }
  if (comm_compress != "dense" && comm_compress != "sparse") {
    return broken("comm_compress must be dense|sparse",
                  "'" + comm_compress + "'");
  }
  return "";
}

const TrainParams& TrainParams::Validate() const {
  const std::string error = Check();
  HARP_CHECK(error.empty()) << error;
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
