#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/random.h"
#include "parallel/thread_pool.h"

namespace harp {
namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

// Deterministic per-stream seed derivation.
uint64_t DeriveSeed(uint64_t base, uint64_t stream) {
  uint64_t s = base ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
  return SplitMix64Next(s);
}

// Per-feature generation plan drawn once from the spec seed.
struct FeaturePlan {
  std::vector<uint32_t> distinct;  // quantization levels per feature
  std::vector<double> weight;      // label weight (0 for inactive features)
  std::vector<double> shift;       // distribution shift per feature
  std::vector<double> density;     // per-feature presence probability
};

FeaturePlan MakePlan(const SyntheticSpec& spec) {
  FeaturePlan plan;
  plan.distinct.resize(spec.features);
  plan.weight.resize(spec.features, 0.0);
  plan.shift.resize(spec.features, 0.0);
  Rng rng(DeriveSeed(spec.seed, 0x5eed));

  // Log-normal multiplier with unit mean and the requested CV.
  const double cv = std::max(0.0, spec.distinct_cv);
  const double sigma = std::sqrt(std::log(1.0 + cv * cv));
  const double mu = -0.5 * sigma * sigma;

  for (uint32_t f = 0; f < spec.features; ++f) {
    if (!spec.explicit_distinct.empty()) {
      plan.distinct[f] =
          spec.explicit_distinct[f % spec.explicit_distinct.size()];
    } else {
      const double mult = (cv > 0.0)
                              ? std::exp(mu + sigma * rng.Normal())
                              : 1.0;
      const double d = spec.mean_distinct * mult;
      plan.distinct[f] = static_cast<uint32_t>(std::clamp(
          d, 2.0, static_cast<double>(spec.max_distinct)));
    }
    plan.shift[f] = rng.Normal() * 0.5;
  }
  const uint32_t active = std::min(spec.active_features, spec.features);
  for (uint32_t f = 0; f < active; ++f) {
    // Alternate signs so the score is centered; magnitudes in [0.5, 1.5].
    plan.weight[f] = (f % 2 == 0 ? 1.0 : -1.0) * (0.5 + rng.NextDouble());
  }

  // Per-feature density. Skewed draws use a FRESH derived stream so that
  // density_skew == 0 leaves every other draw — and therefore every
  // existing dataset — bit-identical to the pre-knob generator.
  plan.density.assign(spec.features, spec.density);
  if (spec.density_skew > 0.0) {
    Rng skew_rng(DeriveSeed(spec.seed, 0xD51CE));
    const double scv = spec.density_skew;
    const double ssigma = std::sqrt(std::log(1.0 + scv * scv));
    const double smu = -0.5 * ssigma * ssigma;
    for (uint32_t f = 0; f < spec.features; ++f) {
      const double mult = std::exp(smu + ssigma * skew_rng.Normal());
      plan.density[f] = std::clamp(spec.density * mult, 0.0, 1.0);
    }
  }
  return plan;
}

// One row's generated data.
struct RowDraw {
  std::vector<float> values;  // size M, NaN for missing
  float label = 0.0f;
};

void DrawRow(const SyntheticSpec& spec, const FeaturePlan& plan, uint32_t row,
             RowDraw* out) {
  Rng rng(DeriveSeed(spec.seed, row));
  out->values.assign(spec.features, kMissingValue);

  double score = 0.0;
  const uint32_t active = std::min(spec.active_features, spec.features);
  // Latent continuous values of the active features (used by the label even
  // when the stored entry is missing would leak; missing entries contribute
  // nothing, so sparser datasets genuinely carry less signal).
  std::vector<double> latent(active, 0.0);

  for (uint32_t f = 0; f < spec.features; ++f) {
    const double z = rng.Normal() + plan.shift[f];
    const bool present = rng.Bernoulli(plan.density[f]);
    if (present) {
      // Quantize the latent normal into the feature's distinct levels over
      // +/- 4 sigma; occupancy follows the normal density, so bins are
      // realistically uneven.
      const uint32_t levels = plan.distinct[f];
      const double unit = std::clamp((z + 4.0) / 8.0, 0.0, 1.0);
      const uint32_t level = std::min(
          levels - 1, static_cast<uint32_t>(unit * levels));
      out->values[f] = static_cast<float>(level);
      if (f < active) latent[f] = z;
    }
  }

  for (uint32_t f = 0; f < active; ++f) score += plan.weight[f] * latent[f];
  if (spec.label == LabelKind::kBinaryNonlinear && active >= 3) {
    score += 0.8 * latent[0] * latent[1];
    score += 0.6 * std::sin(2.0 * latent[2]);
  }
  score /= std::sqrt(static_cast<double>(std::max(1u, active)));

  double encoded = 0.0;
  if (spec.response_encoded_feature) {
    // Exponentially distributed latent that dominates the label score:
    // highly response-correlated with a heavy tail (see below).
    encoded = rng.Exponential(1.0);
    score = 0.3 * score + 2.0 * (encoded - 1.0);
  }

  if (spec.label == LabelKind::kRegression) {
    out->label = static_cast<float>(spec.margin_scale * score + rng.Normal());
  } else {
    const double p = Sigmoid(spec.margin_scale * score);
    out->label = rng.Bernoulli(p) ? 1.0f : 0.0f;
  }

  if (spec.response_encoded_feature && spec.features > 0) {
    // Store the exponential latent as feature 0: monotone in the class
    // probability with an exponentially thin tail, so gain-greedy
    // (leafwise) growth keeps peeling slices off the tail branch and
    // builds a very deep chain — the CRITEO pathology of Section V-F.
    out->values[0] = static_cast<float>(std::round(encoded * 64.0) / 64.0);
  }
}

}  // namespace

Dataset GenerateSynthetic(const SyntheticSpec& spec, ThreadPool* pool) {
  HARP_CHECK_GT(spec.rows, 0u);
  HARP_CHECK_GT(spec.features, 0u);
  const FeaturePlan plan = MakePlan(spec);

  std::vector<float> labels(spec.rows);

  if (!spec.sparse_storage) {
    std::vector<float> values(
        static_cast<size_t>(spec.rows) * spec.features);
    auto fill = [&](int64_t begin, int64_t end, int) {
      RowDraw draw;
      for (int64_t r = begin; r < end; ++r) {
        DrawRow(spec, plan, static_cast<uint32_t>(r), &draw);
        std::copy(draw.values.begin(), draw.values.end(),
                  values.begin() + static_cast<size_t>(r) * spec.features);
        labels[static_cast<size_t>(r)] = draw.label;
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(spec.rows, fill);
    } else {
      fill(0, spec.rows, 0);
    }
    return Dataset::FromDense(spec.rows, spec.features, std::move(values),
                              std::move(labels));
  }

  // CSR: draw rows (parallel), then concatenate (serial, cheap).
  std::vector<std::vector<Entry>> row_entries(spec.rows);
  auto fill_sparse = [&](int64_t begin, int64_t end, int) {
    RowDraw draw;
    for (int64_t r = begin; r < end; ++r) {
      DrawRow(spec, plan, static_cast<uint32_t>(r), &draw);
      auto& entries = row_entries[static_cast<size_t>(r)];
      for (uint32_t f = 0; f < spec.features; ++f) {
        if (!IsMissing(draw.values[f])) {
          entries.push_back(Entry{f, draw.values[f]});
        }
      }
      labels[static_cast<size_t>(r)] = draw.label;
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(spec.rows, fill_sparse);
  } else {
    fill_sparse(0, spec.rows, 0);
  }

  std::vector<uint32_t> row_ptr(spec.rows + 1, 0);
  for (uint32_t r = 0; r < spec.rows; ++r) {
    row_ptr[r + 1] =
        row_ptr[r] + static_cast<uint32_t>(row_entries[r].size());
  }
  std::vector<Entry> entries;
  entries.reserve(row_ptr.back());
  for (const auto& row : row_entries) {
    entries.insert(entries.end(), row.begin(), row.end());
  }
  return Dataset::FromCsr(spec.rows, spec.features, std::move(row_ptr),
                          std::move(entries), std::move(labels));
}

Dataset GenerateRankingSynthetic(const RankingSpec& spec, ThreadPool* pool) {
  HARP_CHECK_GT(spec.num_queries, 0u);
  HARP_CHECK_GT(spec.features, 0u);
  HARP_CHECK_GE(spec.min_docs, 1u);
  HARP_CHECK_LE(spec.min_docs, spec.max_docs);
  HARP_CHECK_GE(spec.max_relevance, 1);
  const uint32_t active = std::min(spec.active_features, spec.features);
  HARP_CHECK_GE(active, 1u);

  // Utility weights over the active features, drawn once.
  std::vector<double> weight(spec.features, 0.0);
  {
    Rng rng(DeriveSeed(spec.seed, 0x5eed));
    for (uint32_t f = 0; f < active; ++f) {
      weight[f] = (f % 2 == 0 ? 1.0 : -1.0) * (0.5 + rng.NextDouble());
    }
  }

  // Per-query document counts (serial prefix sum -> group boundaries).
  std::vector<uint32_t> group_ptr(spec.num_queries + 1, 0);
  for (uint32_t q = 0; q < spec.num_queries; ++q) {
    Rng rng(DeriveSeed(spec.seed, 0xD0C5000ULL + q));
    const uint32_t docs =
        spec.min_docs +
        static_cast<uint32_t>(rng.NextBelow(spec.max_docs - spec.min_docs + 1));
    group_ptr[q + 1] = group_ptr[q] + docs;
  }
  const uint32_t rows = group_ptr.back();

  std::vector<float> values(static_cast<size_t>(rows) * spec.features);
  std::vector<float> labels(rows);

  auto fill = [&](int64_t begin, int64_t end, int) {
    std::vector<double> latent;
    std::vector<uint32_t> order;
    for (int64_t qi = begin; qi < end; ++qi) {
      const uint32_t q = static_cast<uint32_t>(qi);
      const uint32_t row0 = group_ptr[q];
      const uint32_t n = group_ptr[q + 1] - row0;
      Rng rng(DeriveSeed(spec.seed, q));

      // Query topic: a per-query shift of every feature. It moves the
      // absolute feature values but not the within-query utility order.
      latent.assign(n, 0.0);
      std::vector<double> topic(spec.features);
      for (double& t : topic) t = rng.Normal() * spec.topic_scale;

      for (uint32_t d = 0; d < n; ++d) {
        float* row = values.data() +
                     static_cast<size_t>(row0 + d) * spec.features;
        double utility = 0.0;
        for (uint32_t f = 0; f < spec.features; ++f) {
          const double z = rng.Normal();
          row[f] = static_cast<float>(topic[f] + z);
          if (f < active) utility += weight[f] * z;
        }
        latent[d] = utility + spec.noise * rng.Normal();
      }

      // Grade by within-query quantile of the latent utility: the top
      // docs get max_relevance, the bottom get 0.
      order.resize(n);
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        if (latent[a] != latent[b]) return latent[a] > latent[b];
        return a < b;
      });
      const uint32_t grades = static_cast<uint32_t>(spec.max_relevance) + 1;
      for (uint32_t pos = 0; pos < n; ++pos) {
        const uint32_t bucket = (pos * grades) / n;  // 0 = best docs
        labels[row0 + order[pos]] =
            static_cast<float>(static_cast<uint32_t>(spec.max_relevance) -
                               bucket);
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelForDynamic(spec.num_queries, 8, fill);
  } else {
    fill(0, spec.num_queries, 0);
  }

  Dataset ds = Dataset::FromDense(rows, spec.features, std::move(values),
                                  std::move(labels));
  ds.SetGroupPtr(std::move(group_ptr));
  return ds;
}

SyntheticSpec SynsetSpec(double scale) {
  SyntheticSpec spec;
  spec.name = "SYNSET";
  spec.rows = static_cast<uint32_t>(std::max(1.0, 60000.0 * scale));
  spec.features = 128;
  spec.density = 1.0;
  spec.mean_distinct = 256.0;
  spec.distinct_cv = 0.0;  // even bins: the ideal balanced workload
  spec.active_features = 12;
  spec.seed = 1001;
  return spec;
}

SyntheticSpec HiggsSpec(double scale) {
  SyntheticSpec spec;
  spec.name = "HIGGS";
  spec.rows = static_cast<uint32_t>(std::max(1.0, 80000.0 * scale));
  spec.features = 28;
  spec.density = 0.92;
  spec.mean_distinct = 180.0;
  spec.distinct_cv = 0.40;
  spec.active_features = 10;
  spec.seed = 1002;
  return spec;
}

SyntheticSpec AirlineSpec(double scale) {
  SyntheticSpec spec;
  spec.name = "AIRLINE";
  spec.rows = static_cast<uint32_t>(std::max(1.0, 200000.0 * scale));
  spec.features = 8;  // thin matrix
  spec.density = 1.0;
  // Airline-style cardinalities (departure time, distance, date fields,
  // carrier): mean 81.5, stdev 72.9 -> CV ~0.89, Table III's value.
  spec.explicit_distinct = {220, 160, 120, 60, 40, 31, 12, 9};
  spec.active_features = 6;
  spec.seed = 1003;
  return spec;
}

SyntheticSpec CriteoSpec(double scale) {
  SyntheticSpec spec;
  spec.name = "CRITEO";
  spec.rows = static_cast<uint32_t>(std::max(1.0, 60000.0 * scale));
  spec.features = 65;
  spec.density = 0.96;
  spec.mean_distinct = 120.0;
  spec.distinct_cv = 0.58;
  spec.active_features = 16;
  spec.response_encoded_feature = true;
  spec.seed = 1004;
  return spec;
}

SyntheticSpec YfccSpec(double scale) {
  SyntheticSpec spec;
  spec.name = "YFCC";
  spec.rows = static_cast<uint32_t>(std::max(1.0, 6000.0 * scale));
  spec.features = 4096;  // fat matrix
  spec.density = 0.31;
  spec.mean_distinct = 32.0;
  spec.distinct_cv = 0.06;
  // Few strong features and a wide margin: with only ~30% of entries
  // present on a fat matrix, weaker signals are unlearnable at bench row
  // counts (convergence plots would sit at AUC ~0.5).
  spec.active_features = 16;
  spec.margin_scale = 5.0;
  spec.sparse_storage = true;
  spec.seed = 1005;
  return spec;
}

}  // namespace harp
