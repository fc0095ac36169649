// Model serialization tests: bit-exact roundtrips and malformed input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/gbdt.h"
#include "core/model_io.h"
#include "data/synthetic.h"
#include "predict/flat_forest.h"
#include "predict/predictor.h"

namespace harp {
namespace {

GbdtModel TrainSmallModel(ObjectiveKind objective = ObjectiveKind::kLogistic) {
  SyntheticSpec spec;
  spec.rows = 800;
  spec.features = 6;
  spec.density = 0.85;
  spec.seed = 701;
  if (objective == ObjectiveKind::kSquaredError) {
    spec.label = LabelKind::kRegression;
  }
  const Dataset train = GenerateSynthetic(spec);
  TrainParams p;
  p.num_trees = 5;
  p.tree_size = 4;
  p.num_threads = 2;
  p.objective = objective;
  GbdtTrainer trainer(p);
  return trainer.Train(train);
}

// `text` with the first line starting with `key` (and a space) replaced.
std::string WithLine(const std::string& text, const std::string& key,
                     const std::string& line) {
  const size_t at = text.find("\n" + key + " ");
  EXPECT_NE(at, std::string::npos) << key;
  const size_t begin = at + 1;
  const size_t end = text.find('\n', begin);
  std::string out = text;
  out.replace(begin, end - begin, line);
  return out;
}

// The fields of the first node line: the root of the first tree, which
// must be a split.
std::vector<std::string> RootFields(const std::string& text) {
  const size_t begin = text.find("\nnode ") + 1;
  std::istringstream line(text.substr(begin, text.find('\n', begin) - begin));
  std::vector<std::string> parts;
  for (std::string f; line >> f;) parts.push_back(f);
  EXPECT_EQ(parts.size(), 14u);
  EXPECT_GE(std::stoll(parts[2]), 0) << "root must be a split";
  return parts;
}

// `text` with field `field` of the root node line set to `value`.
std::string WithRootField(const std::string& text, size_t field,
                          int64_t value) {
  std::vector<std::string> parts = RootFields(text);
  parts[field] = std::to_string(value);
  std::string line = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) line += " " + parts[i];
  return WithLine(text, "node", line);
}

int64_t FirstTreeNodes(const std::string& text) {
  const size_t begin = text.find("\ntree ") + 1;
  return std::stoll(
      text.substr(begin + 5, text.find('\n', begin) - begin - 5));
}

// `text` with `extra` node lines appended to the first tree and its node
// count raised to match: the new nodes get ids from the old count up.
std::string WithNodesAppendedToFirstTree(
    const std::string& text, const std::vector<std::string>& extra) {
  const int64_t nodes = FirstTreeNodes(text);
  size_t after = text.find('\n', text.find("\ntree ") + 1) + 1;
  for (int64_t i = 0; i < nodes; ++i) after = text.find('\n', after) + 1;
  std::string added;
  for (const std::string& line : extra) added += line + "\n";
  std::string out = text;
  out.insert(after, added);
  const int64_t total = nodes + static_cast<int64_t>(extra.size());
  return WithLine(out, "tree", "tree " + std::to_string(total));
}

// A node line with the given links: a leaf when `left` < 0, else a split
// on feature 0 at bin 1.
std::string NodeLine(int64_t parent, int64_t left, int64_t right) {
  const bool leaf = left < 0;
  return "node " + std::to_string(parent) + " " + std::to_string(left) + " " +
         std::to_string(right) + " 1 0 " + (leaf ? "0" : "1") +
         " 0x0p+0 0 0x0p+0 0x1p-1 0x0p+0 0x0p+0 0";
}

TEST(ModelIo, SerializeDeserializeRoundtripExact) {
  const GbdtModel model = TrainSmallModel();
  const std::string text = SerializeModel(model);
  GbdtModel loaded;
  std::string error;
  ASSERT_TRUE(DeserializeModel(text, &loaded, &error)) << error;

  ASSERT_EQ(loaded.NumTrees(), model.NumTrees());
  EXPECT_EQ(loaded.objective(), model.objective());
  EXPECT_EQ(loaded.base_margin(), model.base_margin());
  EXPECT_EQ(loaded.cuts().cuts(), model.cuts().cuts());
  EXPECT_EQ(loaded.cuts().cut_ptr(), model.cuts().cut_ptr());
  for (size_t t = 0; t < model.NumTrees(); ++t) {
    const auto& a = model.tree(t).nodes();
    const auto& b = loaded.tree(t).nodes();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].left, b[i].left);
      EXPECT_EQ(a[i].right, b[i].right);
      EXPECT_EQ(a[i].parent, b[i].parent);
      EXPECT_EQ(a[i].split_feature, b[i].split_feature);
      EXPECT_EQ(a[i].split_bin, b[i].split_bin);
      EXPECT_EQ(a[i].split_value, b[i].split_value);  // bit-exact
      EXPECT_EQ(a[i].default_left, b[i].default_left);
      EXPECT_EQ(a[i].leaf_value, b[i].leaf_value);    // bit-exact
      EXPECT_EQ(a[i].sum.g, b[i].sum.g);
      EXPECT_EQ(a[i].num_rows, b[i].num_rows);
    }
  }
}

TEST(ModelIo, ReloadedModelPredictsIdentically) {
  const GbdtModel model = TrainSmallModel();
  SyntheticSpec spec;
  spec.rows = 300;
  spec.features = 6;
  spec.density = 0.85;
  spec.seed = 702;
  const Dataset test = GenerateSynthetic(spec);

  GbdtModel loaded;
  std::string error;
  ASSERT_TRUE(DeserializeModel(SerializeModel(model), &loaded, &error));
  const auto a = model.Predict(test);
  const auto b = loaded.Predict(test);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(ModelIo, RegressionModelRoundtrips) {
  const GbdtModel model = TrainSmallModel(ObjectiveKind::kSquaredError);
  GbdtModel loaded;
  std::string error;
  ASSERT_TRUE(DeserializeModel(SerializeModel(model), &loaded, &error));
  EXPECT_EQ(loaded.objective(), ObjectiveKind::kSquaredError);
}

TEST(ModelIo, FileRoundtrip) {
  const GbdtModel model = TrainSmallModel();
  const std::string path = "/tmp/harp_model_io_test.model";
  std::string error;
  ASSERT_TRUE(SaveModel(path, model, &error)) << error;
  GbdtModel loaded;
  ASSERT_TRUE(LoadModel(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.NumTrees(), model.NumTrees());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadModel(path, &loaded, &error));
}

TEST(ModelIo, SaveLoadFlattenPredictsIdentically) {
  // save -> load -> FlatForest round-trip: the flat inference layout
  // built from a reloaded model must reproduce the original model's
  // predictions bit for bit on both input kinds.
  const GbdtModel model = TrainSmallModel();
  SyntheticSpec spec;
  spec.rows = 400;
  spec.features = 6;
  spec.density = 0.85;
  spec.seed = 703;
  const Dataset test = GenerateSynthetic(spec);
  const BinnedMatrix binned = model.BinDataset(test);

  const std::string path = "/tmp/harp_model_io_flat_test.model";
  std::string error;
  ASSERT_TRUE(SaveModel(path, model, &error)) << error;
  GbdtModel loaded;
  ASSERT_TRUE(LoadModel(path, &loaded, &error)) << error;
  std::remove(path.c_str());

  const FlatForest flat = loaded.Flatten();
  ASSERT_EQ(flat.num_trees(), model.NumTrees());
  EXPECT_EQ(flat.num_nodes(), model.TotalNodes());
  const Predictor predictor(flat);
  EXPECT_EQ(predictor.PredictMargins(binned),
            Predictor(*model.FlatSnapshot()).PredictMargins(binned));
  EXPECT_EQ(predictor.PredictMargins(test), model.PredictMargins(test));
}

GbdtModel TrainQuantileModel(double alpha) {
  SyntheticSpec spec;
  spec.rows = 800;
  spec.features = 6;
  spec.label = LabelKind::kRegression;
  spec.seed = 709;
  const Dataset train = GenerateSynthetic(spec);
  TrainParams p;
  p.num_trees = 5;
  p.tree_size = 4;
  p.num_threads = 2;
  p.objective = ObjectiveKind::kQuantile;
  p.quantile_alpha = alpha;
  p.base_score = 0.0;
  return GbdtTrainer(p).Train(train);
}

TEST(ModelIo, QuantileAlphaRoundtripsBitExact) {
  const GbdtModel model = TrainQuantileModel(0.85);
  EXPECT_EQ(model.quantile_alpha(), 0.85);
  const std::string text = SerializeModel(model);
  EXPECT_NE(text.find("quantile_alpha"), std::string::npos);
  GbdtModel loaded;
  std::string error;
  ASSERT_TRUE(DeserializeModel(text, &loaded, &error)) << error;
  EXPECT_EQ(loaded.objective(), ObjectiveKind::kQuantile);
  EXPECT_EQ(loaded.quantile_alpha(), 0.85);  // hex float: bit-exact
  // Stable fixed point with the extra line present.
  EXPECT_EQ(SerializeModel(loaded), text);
}

TEST(ModelIo, QuantileSaveLoadPredictRoundtrip) {
  const GbdtModel model = TrainQuantileModel(0.3);
  SyntheticSpec spec;
  spec.rows = 300;
  spec.features = 6;
  spec.label = LabelKind::kRegression;
  spec.seed = 710;
  const Dataset test = GenerateSynthetic(spec);
  const std::string path = "/tmp/harp_model_io_quantile_test.model";
  std::string error;
  ASSERT_TRUE(SaveModel(path, model, &error)) << error;
  GbdtModel loaded;
  ASSERT_TRUE(LoadModel(path, &loaded, &error)) << error;
  std::remove(path.c_str());
  EXPECT_EQ(loaded.quantile_alpha(), 0.3);
  // Quantile Transform is the identity: served predictions must equal
  // raw margins, bit for bit, through the save -> load round trip.
  const auto a = model.Predict(test);
  const auto b = loaded.Predict(test);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(ModelIo, NonQuantileSerializationsOmitAlphaLine) {
  // Backward compatibility hinges on only quantile models emitting the
  // optional line: every other objective's files stay byte-identical to
  // the pre-alpha format.
  EXPECT_EQ(SerializeModel(TrainSmallModel()).find("quantile_alpha"),
            std::string::npos);
  EXPECT_EQ(SerializeModel(TrainSmallModel(ObjectiveKind::kSquaredError))
                .find("quantile_alpha"),
            std::string::npos);
}

TEST(ModelIo, QuantileModelWithoutAlphaLineLoadsWithDefault) {
  // A file written before alpha persistence: strip the line; the loader
  // must fall back to alpha = 0.5 rather than reject the model.
  std::string text = SerializeModel(TrainQuantileModel(0.85));
  const size_t pos = text.find("quantile_alpha");
  ASSERT_NE(pos, std::string::npos);
  const size_t eol = text.find('\n', pos);
  text.erase(pos, eol - pos + 1);
  GbdtModel loaded;
  std::string error;
  ASSERT_TRUE(DeserializeModel(text, &loaded, &error)) << error;
  EXPECT_EQ(loaded.objective(), ObjectiveKind::kQuantile);
  EXPECT_EQ(loaded.quantile_alpha(), 0.5);
}

TEST(ModelIo, RejectsCorruptQuantileAlphaLine) {
  const std::string text = SerializeModel(TrainQuantileModel(0.85));
  const size_t pos = text.find("quantile_alpha ");
  ASSERT_NE(pos, std::string::npos);
  const size_t eol = text.find('\n', pos);
  GbdtModel out;
  std::string error;
  for (const char* bad :
       {"quantile_alpha", "quantile_alpha xyz", "quantile_alpha 0x0p+0",
        "quantile_alpha 0x1p+0", "quantile_alpha 1 2"}) {
    std::string corrupted = text;
    corrupted.replace(pos, eol - pos, bad);
    EXPECT_FALSE(DeserializeModel(corrupted, &out, &error)) << bad;
  }
}

TEST(ModelIo, RejectsMalformedInput) {
  GbdtModel out;
  std::string error;
  EXPECT_FALSE(DeserializeModel("", &out, &error));
  EXPECT_FALSE(DeserializeModel("not a model\n", &out, &error));
  EXPECT_FALSE(DeserializeModel("harpgbdt-model v1\n", &out, &error));
  EXPECT_FALSE(DeserializeModel(
      "harpgbdt-model v1\nobjective nope\n", &out, &error));
}

// A negative feature count used to slip past the cut_ptr size check (the
// expected size wrapped around to 1) and read cut_ptr.back() of an empty
// vector; max_bins outside [2, 256] cannot describe one-byte bin ids.
TEST(ModelIo, RejectsOutOfRangeCutsLine) {
  const std::string text = SerializeModel(TrainSmallModel());
  const size_t cuts = text.find("\ncuts ");
  ASSERT_NE(cuts, std::string::npos);
  const size_t cut_ptr_end = text.find('\n', text.find("\ncut_ptr", cuts) + 1);
  ASSERT_NE(cut_ptr_end, std::string::npos);
  GbdtModel out;
  for (const char* bad : {"cuts -1 256\ncut_ptr", "cuts 3 1\ncut_ptr 0 0 0 0",
                          "cuts 3 999\ncut_ptr 0 0 0 0"}) {
    std::string corrupted = text;
    corrupted.replace(cuts + 1, cut_ptr_end - cuts - 1, bad);
    std::string error;
    EXPECT_FALSE(DeserializeModel(corrupted, &out, &error)) << bad;
    EXPECT_EQ(error, "bad cuts line") << bad;
  }
}

// A split on a feature the cuts do not cover would index past them in
// binned prediction and importance; the loader refuses it.
TEST(ModelIo, RejectsSplitFeatureOutsideCuts) {
  const GbdtModel model = TrainSmallModel();
  const uint32_t num_features = model.cuts().num_features();
  ASSERT_GT(num_features, 0u);
  const std::string text = SerializeModel(model);
  for (const int64_t bad : {static_cast<int64_t>(num_features),
                            static_cast<int64_t>(num_features) + 7,
                            int64_t{-1}}) {
    GbdtModel out;
    std::string error;
    EXPECT_FALSE(DeserializeModel(WithRootField(text, 5, bad), &out, &error))
        << bad;
    EXPECT_EQ(error, "bad split feature") << bad;
  }
}

// A cut_ptr that does not start at 0, decreases, or gives a feature more
// than max_bins - 1 cuts makes NumCuts wrap or exceed the one-byte bin
// range: binned prediction then reads past the cut values.
TEST(ModelIo, RejectsMalformedCutPtr) {
  const GbdtModel model = TrainSmallModel();
  const QuantileCuts& cuts = model.cuts();
  const std::vector<uint32_t>& ptr = cuts.cut_ptr();
  ASSERT_EQ(ptr.size(), 7u);
  const std::string text = SerializeModel(model);
  auto line = [](const std::vector<uint32_t>& values) {
    std::string out = "cut_ptr";
    for (uint32_t v : values) out += " " + std::to_string(v);
    return out;
  };
  // Every variant keeps cut_ptr.back(), so the cut_values line still
  // has the declared length.
  std::vector<uint32_t> shifted = ptr;
  shifted[0] = 1;
  std::vector<uint32_t> decreasing(ptr.size(), ptr.back());
  decreasing[0] = 0;
  decreasing[1] = ptr.back() + 6;
  uint32_t widest = 0;
  for (uint32_t f = 0; f < cuts.num_features(); ++f) {
    widest = std::max(widest, cuts.NumCuts(f));
  }
  ASSERT_GE(widest, 2u);
  // max_bins = the widest feature's cut count leaves it one cut too many.
  const std::string narrow = WithLine(
      text, "cuts",
      "cuts " + std::to_string(cuts.num_features()) + " " +
          std::to_string(widest));
  for (const std::string& bad :
       {WithLine(text, "cut_ptr", line(shifted)),
        WithLine(text, "cut_ptr", line(decreasing)), narrow}) {
    GbdtModel out;
    std::string error;
    EXPECT_FALSE(DeserializeModel(bad, &out, &error));
    EXPECT_EQ(error, "bad cut_ptr line");
  }
}

// A node count beyond the lines left in the file is refused before the
// tree is sized by it.
TEST(ModelIo, RejectsTreeLargerThanFile) {
  const std::string text = SerializeModel(TrainSmallModel());
  const size_t begin = text.find("\ntree ") + 1;
  const size_t end = text.find('\n', begin);
  const int64_t nodes = std::stoll(text.substr(begin + 5, end - begin - 5));
  const int64_t lines_after =
      std::count(text.begin() + static_cast<std::ptrdiff_t>(end), text.end(),
                 '\n');
  for (const int64_t bad : {int64_t{99999999999999}, lines_after + 1}) {
    ASSERT_GT(bad, nodes);
    GbdtModel out;
    std::string error;
    EXPECT_FALSE(DeserializeModel(
        WithLine(text, "tree", "tree " + std::to_string(bad)), &out, &error))
        << bad;
    EXPECT_EQ(error, "bad tree line") << bad;
  }
}

// A split bin past its feature's last cut sends every present binned
// value left while the raw threshold still splits them: binned and raw
// predictions would disagree.
TEST(ModelIo, RejectsSplitBinOutsideCuts) {
  const GbdtModel model = TrainSmallModel();
  const std::string text = SerializeModel(model);
  const uint32_t feature =
      static_cast<uint32_t>(std::stoul(RootFields(text)[5]));
  const int64_t num_cuts = model.cuts().NumCuts(feature);
  for (const int64_t bad : {num_cuts + 1, int64_t{300}}) {
    GbdtModel out;
    std::string error;
    EXPECT_FALSE(DeserializeModel(WithRootField(text, 6, bad), &out, &error))
        << bad;
    EXPECT_EQ(error, "bad split bin") << bad;
  }
  // The last cut's bin is still a split.
  GbdtModel out;
  std::string error;
  EXPECT_TRUE(DeserializeModel(WithRootField(text, 6, num_cuts), &out, &error))
      << error;
}

// A split whose right child is negative used to be indexed by it while
// the tree was checked; the loader refuses it.
TEST(ModelIo, RejectsNegativeRightChild) {
  const std::string text = SerializeModel(TrainSmallModel());
  for (const int64_t bad : {int64_t{-1}, int64_t{-7}}) {
    GbdtModel out;
    std::string error;
    EXPECT_FALSE(DeserializeModel(WithRootField(text, 3, bad), &out, &error))
        << bad;
    EXPECT_EQ(error, "invalid tree structure") << bad;
  }
}

// Nodes no walk from the root reaches: one orphan leaf, and two splits
// that are each other's parent and left child (a cycle whose links are
// otherwise consistent). Flattening such a tree used to CHECK-abort.
TEST(ModelIo, RejectsUnreachableNodes) {
  const std::string text = SerializeModel(TrainSmallModel());
  const int64_t n = FirstTreeNodes(text);
  const std::string orphan_leaf =
      WithNodesAppendedToFirstTree(text, {NodeLine(-1, -1, -1)});
  // n and n+1 form the cycle; n+2 and n+3 are their right leaves.
  const std::string cycle = WithNodesAppendedToFirstTree(
      text, {NodeLine(n + 1, n + 1, n + 2), NodeLine(n, n, n + 3),
             NodeLine(n, -1, -1), NodeLine(n + 1, -1, -1)});
  for (const std::string& bad : {orphan_leaf, cycle}) {
    GbdtModel out;
    std::string error;
    EXPECT_FALSE(DeserializeModel(bad, &out, &error));
    EXPECT_EQ(error, "invalid tree structure");
  }
  // The helper itself keeps a well-formed file loadable.
  GbdtModel out;
  std::string error;
  EXPECT_TRUE(DeserializeModel(WithNodesAppendedToFirstTree(text, {}), &out,
                               &error))
      << error;
}

// A NaN cut or cuts out of order within a feature would bin rows
// differently from the trainer's cuts; a repeated value, which computed
// cuts can hold, still loads.
TEST(ModelIo, RejectsNanAndUnorderedCutValues) {
  const GbdtModel model = TrainSmallModel();
  const QuantileCuts& cuts = model.cuts();
  uint32_t feature = 0;
  while (cuts.NumCuts(feature) < 2) ++feature;
  const uint32_t first = cuts.cut_ptr()[feature];
  const std::string text = SerializeModel(model);
  auto with_cuts = [&](const std::vector<float>& values) {
    std::string line = "cut_values";
    for (const float v : values) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%a", static_cast<double>(v));
      line += std::string(" ") + buf;
    }
    return WithLine(text, "cut_values", line);
  };
  std::vector<float> nan_cut = cuts.cuts();
  nan_cut[first + 1] = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> swapped = cuts.cuts();
  std::swap(swapped[first], swapped[first + 1]);
  for (const std::string& bad : {with_cuts(nan_cut), with_cuts(swapped)}) {
    GbdtModel out;
    std::string error;
    EXPECT_FALSE(DeserializeModel(bad, &out, &error));
    EXPECT_EQ(error, "bad cut values");
  }
  // Training data holding "inf" puts an infinite last cut in the model
  // file, so infinities load as long as they keep the order.
  std::vector<float> repeated = cuts.cuts();
  repeated[first + 1] = repeated[first];
  std::vector<float> infinite = cuts.cuts();
  infinite[cuts.cut_ptr()[feature + 1] - 1] =
      std::numeric_limits<float>::infinity();
  for (const std::string& good : {with_cuts(repeated), with_cuts(infinite)}) {
    GbdtModel out;
    std::string error;
    EXPECT_TRUE(DeserializeModel(good, &out, &error)) << error;
  }
  // Unchanged values re-serialize to the same line.
  EXPECT_EQ(with_cuts(cuts.cuts()), text);
}

TEST(ModelIo, RejectsTruncatedModel) {
  const GbdtModel model = TrainSmallModel();
  const std::string text = SerializeModel(model);
  GbdtModel out;
  std::string error;
  // Chop the serialization at several points; each must fail cleanly.
  for (double frac : {0.1, 0.3, 0.6, 0.9}) {
    const std::string truncated =
        text.substr(0, static_cast<size_t>(text.size() * frac));
    EXPECT_FALSE(DeserializeModel(truncated, &out, &error)) << frac;
  }
}

TEST(ModelIo, RejectsCorruptNodeLine) {
  const GbdtModel model = TrainSmallModel();
  std::string text = SerializeModel(model);
  const size_t pos = text.find("\nnode ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 6, "\nnode X");
  GbdtModel out;
  std::string error;
  EXPECT_FALSE(DeserializeModel(text, &out, &error));
}

TEST(ModelIo, SerializationIsStable) {
  const GbdtModel model = TrainSmallModel();
  const std::string a = SerializeModel(model);
  GbdtModel loaded;
  std::string error;
  ASSERT_TRUE(DeserializeModel(a, &loaded, &error));
  // Serialize(Deserialize(x)) == x: stable fixed point.
  EXPECT_EQ(SerializeModel(loaded), a);
}

}  // namespace
}  // namespace harp
