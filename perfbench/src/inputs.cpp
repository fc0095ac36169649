#include "inputs.h"

#include <algorithm>
#include <charconv>
#include <fstream>

namespace perfbench {

namespace {

// splitmix64: a small, well-mixed generator for the row draws.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void AppendFloat(std::string* out, float value) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, res.ptr);
}

// Text is built in slices and appended to the file so the writer never
// holds more than one slice of it.
class TextFile {
 public:
  explicit TextFile(const std::string& path)
      : out_(path, std::ios::binary | std::ios::trunc) {}
  std::string& buffer() { return buffer_; }
  void MaybeFlush() {
    if (buffer_.size() >= (1u << 22)) Flush();
  }
  bool Close() {
    Flush();
    out_.close();
    return static_cast<bool>(out_);
  }

 private:
  void Flush() {
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
  std::ofstream out_;
  std::string buffer_;
};

}  // namespace

harp::SyntheticSpec HiggsShape(uint32_t rows) {
  harp::SyntheticSpec spec = harp::HiggsSpec(1.0);
  spec.rows = rows;
  return spec;
}

harp::SyntheticSpec CriteoShape(uint32_t rows) {
  harp::SyntheticSpec spec = harp::CriteoSpec(1.0);
  spec.rows = rows;
  return spec;
}

harp::SyntheticSpec SparseShape(uint32_t rows) {
  harp::SyntheticSpec spec;
  spec.name = "SPARSE2000";
  spec.rows = rows;
  spec.features = 2000;
  spec.density = 0.05;
  spec.density_skew = 1.0;
  spec.mean_distinct = 48.0;
  spec.distinct_cv = 0.5;
  spec.active_features = 16;
  spec.margin_scale = 3.0;
  spec.sparse_storage = true;
  spec.seed = 977;
  return spec;
}

harp::Dataset Resample(const harp::Dataset& pool, uint32_t rows,
                       uint64_t seed) {
  uint64_t state = seed;
  std::vector<uint32_t> picks(rows);
  for (uint32_t& pick : picks) {
    pick = static_cast<uint32_t>(NextRandom(&state) % pool.num_rows());
  }
  const uint32_t width = pool.num_features();
  std::vector<float> labels(rows);
  for (uint32_t r = 0; r < rows; ++r) labels[r] = pool.labels()[picks[r]];
  if (pool.layout() == harp::Dataset::Layout::kDense) {
    std::vector<float> values(static_cast<size_t>(rows) * width);
    for (uint32_t r = 0; r < rows; ++r) {
      std::copy_n(pool.dense_data() + static_cast<size_t>(picks[r]) * width,
                  width, values.begin() + static_cast<ptrdiff_t>(r) * width);
    }
    return harp::Dataset::FromDense(rows, width, std::move(values),
                                    std::move(labels));
  }
  std::vector<uint32_t> row_ptr(1, 0);
  std::vector<harp::Entry> entries;
  for (const uint32_t pick : picks) {
    const auto begin = pool.entries().begin() + pool.row_ptr()[pick];
    const auto end = pool.entries().begin() + pool.row_ptr()[pick + 1];
    entries.insert(entries.end(), begin, end);
    row_ptr.push_back(static_cast<uint32_t>(entries.size()));
  }
  return harp::Dataset::FromCsr(rows, width, std::move(row_ptr),
                                std::move(entries), std::move(labels));
}

bool WriteCsv(const std::string& path, const harp::Dataset& data) {
  TextFile file(path);
  std::string& text = file.buffer();
  for (uint32_t r = 0; r < data.num_rows(); ++r) {
    AppendFloat(&text, data.labels()[r]);
    for (uint32_t f = 0; f < data.num_features(); ++f) {
      text.push_back(',');
      const float value = data.At(r, f);
      if (!harp::IsMissing(value)) AppendFloat(&text, value);
    }
    text.push_back('\n');
    file.MaybeFlush();
  }
  return file.Close();
}

bool WriteLibsvm(const std::string& path, const harp::Dataset& data) {
  TextFile file(path);
  std::string& text = file.buffer();
  for (uint32_t r = 0; r < data.num_rows(); ++r) {
    AppendFloat(&text, data.labels()[r]);
    data.ForEachInRow(r, [&](uint32_t feature, float value) {
      char buf[16];
      text.push_back(' ');
      const auto res = std::to_chars(buf, buf + sizeof(buf), feature + 1);
      text.append(buf, res.ptr);
      text.push_back(':');
      AppendFloat(&text, value);
    });
    text.push_back('\n');
    file.MaybeFlush();
  }
  return file.Close();
}

std::vector<float> DenseRows(const harp::Dataset& data, uint32_t rows) {
  rows = std::min(rows, data.num_rows());
  const uint32_t width = data.num_features();
  std::vector<float> out(static_cast<size_t>(rows) * width,
                         harp::kMissingValue);
  for (uint32_t r = 0; r < rows; ++r) {
    data.ForEachInRow(r, [&](uint32_t feature, float value) {
      out[static_cast<size_t>(r) * width + feature] = value;
    });
  }
  return out;
}

}  // namespace perfbench
