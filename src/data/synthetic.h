// Deterministic synthetic dataset generators.
//
// The paper evaluates on HIGGS / AIRLINE / CRITEO / YFCC plus a synthetic
// SYNSET; its performance analysis depends on the *shape* statistics of
// Table III — row count N, feature count M, sparseness S (fraction of
// present entries), and CV (dispersion of per-feature bin counts, a proxy
// for workload imbalance). The generators below reproduce those statistics
// at configurable scale, with a learnable nonlinear label function so
// accuracy/convergence experiments (Figs. 8, 9, 14, 16) are meaningful.
//
// Generation is deterministic AND independent of thread count: every row
// draws from its own PRNG seeded by (spec.seed, row).
#pragma once

#include <cstdint>
#include <string>

#include "data/dataset.h"

namespace harp {

class ThreadPool;

enum class LabelKind {
  kBinaryNonlinear,  // logistic of a nonlinear score (default)
  kBinaryLinear,     // logistic of a linear score
  kRegression,       // continuous target = score + noise
};

struct SyntheticSpec {
  std::string name = "synthetic";
  uint32_t rows = 10000;
  uint32_t features = 32;

  // Fraction of entries that are present; Table III's S.
  double density = 1.0;

  // Dispersion of PER-FEATURE density around `density` (coefficient of
  // variation of a unit-mean log-normal multiplier, clamped to [0, 1]).
  // Real sparse datasets (LibSVM-style CRITEO / YFCC dumps) concentrate
  // their present entries in a few hot features with a long cold tail —
  // exactly the shape that makes the sparse histogram exchange pay off.
  // 0 (default) keeps the uniform density and is draw-for-draw identical
  // to the previous generator.
  double density_skew = 0.0;

  // Per-feature distinct-value counts are drawn log-normally with this mean
  // and coefficient of variation; CV of the resulting bin counts is
  // Table III's CV. distinct counts are clamped to [2, max_distinct].
  double mean_distinct = 128.0;
  double distinct_cv = 0.0;
  uint32_t max_distinct = 4000;

  // When non-empty, overrides the log-normal draw with explicit per-
  // feature cardinalities, cycled across features. Used by the AIRLINE
  // preset: with only 8 features, a random draw cannot reliably hit the
  // target CV, but real airline fields (times, dates, carriers) have
  // known, very uneven cardinalities.
  std::vector<uint32_t> explicit_distinct;

  LabelKind label = LabelKind::kBinaryNonlinear;
  // Larger => more separable classes (higher reachable AUC).
  double margin_scale = 2.0;
  // Number of leading features that influence the label.
  uint32_t active_features = 8;

  // CRITEO pathology (Section V-F): overwrite feature 0 with a noisy copy
  // of the response, making leafwise growth split one branch very deep.
  bool response_encoded_feature = false;

  // Emit CSR storage instead of dense (for low-density fat matrices).
  bool sparse_storage = false;

  uint64_t seed = 42;
};

// Generates the dataset described by `spec`.
Dataset GenerateSynthetic(const SyntheticSpec& spec,
                          ThreadPool* pool = nullptr);

// Query-grouped ranking data (LambdaRank / NDCG experiments). Each query
// draws a topic vector; its documents are the topic plus per-doc noise,
// and relevance grades 0..max_relevance are assigned by the within-query
// quantile of a noisy latent utility of the *doc-specific* part. Grades
// are therefore query-relative — the same absolute feature vector can be
// grade 4 in a weak query and grade 1 in a strong one — which is what
// separates list-wise training from pointwise calibration. Labels are the
// grades; group boundaries land in Dataset::group_ptr(). Deterministic
// and thread-count independent (per-query PRNG streams).
struct RankingSpec {
  std::string name = "ranking";
  uint32_t num_queries = 200;
  uint32_t min_docs = 5;    // per-query document count, drawn uniformly
  uint32_t max_docs = 40;
  uint32_t features = 16;
  uint32_t active_features = 8;  // leading features that carry utility
  int max_relevance = 4;         // grades 0..max_relevance
  double noise = 0.5;            // latent-utility noise scale
  double topic_scale = 0.75;     // per-query feature shift scale
  uint64_t seed = 91;
};

Dataset GenerateRankingSynthetic(const RankingSpec& spec,
                                 ThreadPool* pool = nullptr);

// Presets matched to Table III's shapes. `scale` multiplies the row count
// (scale=1 targets seconds-per-experiment on a laptop; the paper's full
// sizes correspond to scale in the hundreds).
SyntheticSpec SynsetSpec(double scale);   // M=128,  S=1.00, CV~0
SyntheticSpec HiggsSpec(double scale);    // M=28,   S=0.92, CV~0.40
SyntheticSpec AirlineSpec(double scale);  // M=8,    S=1.00, CV~0.89
SyntheticSpec CriteoSpec(double scale);   // M=65,   S=0.96, CV~0.58
SyntheticSpec YfccSpec(double scale);     // M=4096, S=0.31, CV~0.06

}  // namespace harp
