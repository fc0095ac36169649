// Model serialization tests: bit-exact roundtrips and malformed input.
#include <gtest/gtest.h>

#include <cstdio>
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
            model.PredictMarginsBinned(binned));
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
  // The first split node of the first tree is its root.
  const size_t node = text.find("\nnode ");
  ASSERT_NE(node, std::string::npos);
  const size_t end = text.find('\n', node + 1);
  const std::string root = text.substr(node + 1, end - node - 1);
  std::istringstream fields(root);
  std::vector<std::string> parts;
  for (std::string f; fields >> f;) parts.push_back(f);
  ASSERT_EQ(parts.size(), 14u);
  ASSERT_GE(std::stoll(parts[2]), 0) << "root must be a split: " << root;
  for (const int64_t bad : {static_cast<int64_t>(num_features),
                            static_cast<int64_t>(num_features) + 7,
                            int64_t{-1}}) {
    parts[5] = std::to_string(bad);
    std::string line = parts[0];
    for (size_t i = 1; i < parts.size(); ++i) line += " " + parts[i];
    std::string corrupted = text;
    corrupted.replace(node + 1, root.size(), line);
    GbdtModel out;
    std::string error;
    EXPECT_FALSE(DeserializeModel(corrupted, &out, &error)) << bad;
    EXPECT_EQ(error, "bad split feature") << bad;
  }
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
