#include "core/model_io.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace harp {
namespace {

constexpr const char* kHeader = "harpgbdt-model v1";

void AppendLine(std::string* out, const std::string& line) {
  out->append(line);
  out->push_back('\n');
}

// Hex-float formatting for exact roundtrips.
std::string F(double v) { return StrFormat("%a", v); }
std::string F(float v) { return StrFormat("%a", static_cast<double>(v)); }

bool ParseHex(std::string_view text, double* out) {
  return ParseDouble(text, out);  // strtod accepts %a output
}

}  // namespace

std::string SerializeModel(const GbdtModel& model) {
  std::string out;
  AppendLine(&out, kHeader);
  AppendLine(&out, "objective " + ToString(model.objective()));
  // Only quantile models carry a knob the transform consumer needs; other
  // objectives keep the pre-existing byte layout.
  if (model.objective() == ObjectiveKind::kQuantile) {
    AppendLine(&out, "quantile_alpha " + F(model.quantile_alpha()));
  }
  AppendLine(&out, "base_margin " + F(model.base_margin()));

  const QuantileCuts& cuts = model.cuts();
  AppendLine(&out, StrFormat("cuts %u %d", cuts.num_features(),
                             cuts.max_bins()));
  {
    std::string line = "cut_ptr";
    for (uint32_t v : cuts.cut_ptr()) line += StrFormat(" %u", v);
    AppendLine(&out, line);
  }
  {
    std::string line = "cut_values";
    for (float v : cuts.cuts()) line += " " + F(v);
    AppendLine(&out, line);
  }

  AppendLine(&out, StrFormat("trees %zu", model.NumTrees()));
  for (const RegTree& tree : model.trees()) {
    AppendLine(&out, StrFormat("tree %d", tree.num_nodes()));
    for (const TreeNode& n : tree.nodes()) {
      AppendLine(&out,
                 StrFormat("node %d %d %d %d %u %u %s %d %s %s %s %s %u",
                           n.parent, n.left, n.right, n.depth,
                           n.split_feature, n.split_bin,
                           F(n.split_value).c_str(), n.default_left ? 1 : 0,
                           F(n.gain).c_str(), F(n.leaf_value).c_str(),
                           F(n.sum.g).c_str(), F(n.sum.h).c_str(),
                           n.num_rows));
    }
  }
  return out;
}

bool DeserializeModel(const std::string& text, GbdtModel* out,
                      std::string* error) {
  std::istringstream stream(text);
  std::string line;
  auto next_line = [&](const char* what) -> bool {
    if (!std::getline(stream, line)) {
      *error = std::string("unexpected end of input, expected ") + what;
      return false;
    }
    return true;
  };

  if (!next_line("header") || Trim(line) != kHeader) {
    *error = "bad header";
    return false;
  }

  GbdtModel model;
  if (!next_line("objective")) return false;
  {
    const auto parts = SplitWhitespace(line);
    ObjectiveKind kind;
    if (parts.size() != 2 || parts[0] != "objective" ||
        !ParseObjectiveKind(std::string(parts[1]), &kind)) {
      *error = "bad objective line";
      return false;
    }
    model.set_objective(kind);
  }
  if (!next_line("base_margin")) return false;
  // Optional quantile_alpha line (written by quantile models; absent in
  // older files and for every other objective).
  {
    const auto parts = SplitWhitespace(line);
    if (!parts.empty() && parts[0] == "quantile_alpha") {
      double alpha = 0.0;
      if (parts.size() != 2 || !ParseHex(parts[1], &alpha) || alpha <= 0.0 ||
          alpha >= 1.0) {
        *error = "bad quantile_alpha line";
        return false;
      }
      model.set_quantile_alpha(alpha);
      if (!next_line("base_margin")) return false;
    }
  }
  {
    const auto parts = SplitWhitespace(line);
    double margin = 0.0;
    if (parts.size() != 2 || parts[0] != "base_margin" ||
        !ParseHex(parts[1], &margin)) {
      *error = "bad base_margin line";
      return false;
    }
    model.set_base_margin(margin);
  }

  // Cuts.
  if (!next_line("cuts")) return false;
  int64_t num_features = 0;
  int64_t max_bins = 0;
  {
    const auto parts = SplitWhitespace(line);
    if (parts.size() != 3 || parts[0] != "cuts" ||
        !ParseInt(parts[1], &num_features) || !ParseInt(parts[2], &max_bins) ||
        num_features < 0 || max_bins < 2 || max_bins > 256) {
      *error = "bad cuts line";
      return false;
    }
  }
  std::vector<uint32_t> cut_ptr;
  if (!next_line("cut_ptr")) return false;
  {
    const auto parts = SplitWhitespace(line);
    if (parts.empty() || parts[0] != "cut_ptr" ||
        parts.size() != static_cast<size_t>(num_features) + 2) {
      *error = "bad cut_ptr line";
      return false;
    }
    for (size_t i = 1; i < parts.size(); ++i) {
      int64_t v = 0;
      if (!ParseInt(parts[i], &v)) {
        *error = "bad cut_ptr value";
        return false;
      }
      cut_ptr.push_back(static_cast<uint32_t>(v));
    }
  }
  std::vector<float> cut_values;
  if (!next_line("cut_values")) return false;
  {
    const auto parts = SplitWhitespace(line);
    if (parts.empty() || parts[0] != "cut_values" ||
        parts.size() != static_cast<size_t>(cut_ptr.back()) + 1) {
      *error = "bad cut_values line";
      return false;
    }
    for (size_t i = 1; i < parts.size(); ++i) {
      double v = 0.0;
      if (!ParseHex(parts[i], &v)) {
        *error = "bad cut value";
        return false;
      }
      cut_values.push_back(static_cast<float>(v));
    }
  }
  model.set_cuts(QuantileCuts::FromRaw(std::move(cut_values),
                                       std::move(cut_ptr),
                                       static_cast<int>(max_bins)));

  // Trees.
  if (!next_line("trees")) return false;
  int64_t num_trees = 0;
  {
    const auto parts = SplitWhitespace(line);
    if (parts.size() != 2 || parts[0] != "trees" ||
        !ParseInt(parts[1], &num_trees)) {
      *error = "bad trees line";
      return false;
    }
  }
  for (int64_t t = 0; t < num_trees; ++t) {
    if (!next_line("tree")) return false;
    int64_t num_nodes = 0;
    {
      const auto parts = SplitWhitespace(line);
      if (parts.size() != 2 || parts[0] != "tree" ||
          !ParseInt(parts[1], &num_nodes) || num_nodes < 1) {
        *error = "bad tree line";
        return false;
      }
    }
    RegTree tree;
    tree.mutable_nodes().resize(static_cast<size_t>(num_nodes));
    for (int64_t i = 0; i < num_nodes; ++i) {
      if (!next_line("node")) return false;
      const auto parts = SplitWhitespace(line);
      if (parts.size() != 14 || parts[0] != "node") {
        *error = StrFormat("bad node line: '%s'", line.c_str());
        return false;
      }
      int64_t ints[6];
      for (int k = 0; k < 6; ++k) {
        if (!ParseInt(parts[static_cast<size_t>(k) + 1], &ints[k])) {
          *error = "bad node int field";
          return false;
        }
      }
      double split_value = 0.0;
      int64_t default_left = 0;
      double gain = 0.0;
      double leaf_value = 0.0;
      double sum_g = 0.0;
      double sum_h = 0.0;
      int64_t num_rows = 0;
      if (!ParseHex(parts[7], &split_value) ||
          !ParseInt(parts[8], &default_left) || !ParseHex(parts[9], &gain) ||
          !ParseHex(parts[10], &leaf_value) || !ParseHex(parts[11], &sum_g) ||
          !ParseHex(parts[12], &sum_h) || !ParseInt(parts[13], &num_rows)) {
        *error = "bad node float field";
        return false;
      }
      TreeNode& n = tree.mutable_nodes()[static_cast<size_t>(i)];
      n.parent = static_cast<int32_t>(ints[0]);
      n.left = static_cast<int32_t>(ints[1]);
      n.right = static_cast<int32_t>(ints[2]);
      n.depth = static_cast<int32_t>(ints[3]);
      n.split_feature = static_cast<uint32_t>(ints[4]);
      n.split_bin = static_cast<uint32_t>(ints[5]);
      n.split_value = static_cast<float>(split_value);
      n.default_left = default_left != 0;
      n.gain = gain;
      n.leaf_value = leaf_value;
      n.sum.g = sum_g;
      n.sum.h = sum_h;
      n.num_rows = static_cast<uint32_t>(num_rows);
      // With cuts, every split must name a feature they cover: binned
      // prediction and importance index by it.
      if (!n.IsLeaf() && num_features > 0 &&
          (ints[4] < 0 || ints[4] >= num_features)) {
        *error = "bad split feature";
        return false;
      }
    }
    if (!tree.CheckValid()) {
      *error = "invalid tree structure";
      return false;
    }
    model.AddTree(std::move(tree));
  }
  *out = std::move(model);
  return true;
}

bool SaveModel(const std::string& path, const GbdtModel& model,
               std::string* error) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    *error = "cannot open " + path;
    return false;
  }
  const std::string text = SerializeModel(model);
  file.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!file.good()) {
    *error = "write failed for " + path;
    return false;
  }
  return true;
}

bool LoadModel(const std::string& path, GbdtModel* out, std::string* error) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return DeserializeModel(buffer.str(), out, error);
}

}  // namespace harp
