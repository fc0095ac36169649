#include "common.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>

namespace perfbench {

bool Result::Op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  return ok;
}

void Samples::SetMedians(Result* result) const {
  for (const auto& [name, values] : values_) {
    result->Set(name, Median(values));
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

bool ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return !in.bad();
}

int64_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<int64_t>(in.tellg()) : -1;
}

bool WriteDoubles(const std::string& path, const std::vector<double>& values) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(double)));
  return static_cast<bool>(out);
}

bool ReadDoubles(const std::string& path, std::vector<double>* values) {
  std::string bytes;
  if (!ReadFileBytes(path, &bytes) || bytes.size() % sizeof(double) != 0) {
    return false;
  }
  values->resize(bytes.size() / sizeof(double));
  std::memcpy(values->data(), bytes.data(), bytes.size());
  return true;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace perfbench
