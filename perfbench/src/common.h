// Shared plumbing for the end-to-end benchmark: command-line arguments,
// the run result (operations attempted/failed plus named metrics), and
// small file and statistics helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/timer.h"
#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::string phase;     // "setup" writes inputs + references, "run" measures
  std::string work_dir;  // holds the generated inputs and references
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Outcome of one phase: every layer call and output check is an attempted
// operation; calls that return an error and wrong outputs are failures.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;  // first failure messages, for stderr

  // Counts one operation; returns `ok`.
  bool Op(bool ok, const std::string& what);
  // Counts one call that has no error result.
  void Call() { ++attempted; }
  void Set(const std::string& name, double value) { metrics[name] = value; }
};

// Per-iteration samples of named values, reported as medians.
class Samples {
 public:
  void Add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  // Sets the median of every sampled name on `result`.
  void SetMedians(Result* result) const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

double Median(std::vector<double> values);

// Opens a span around one call into a library layer and stores the call's
// wall time in *ns when the scope ends (whether or not tracing is on).
class LayerCall {
 public:
  LayerCall(Tracer& tracer, const char* name, int64_t* ns)
      : scope_(tracer, name), ns_(ns), start_ns_(harp::NowNs()) {}
  ~LayerCall() { *ns_ = harp::NowNs() - start_ns_; }
  LayerCall(const LayerCall&) = delete;
  LayerCall& operator=(const LayerCall&) = delete;

 private:
  Tracer::Scope scope_;
  int64_t* ns_;
  int64_t start_ns_;
};

bool ReadFileBytes(const std::string& path, std::string* out);
int64_t FileSize(const std::string& path);
bool WriteDoubles(const std::string& path, const std::vector<double>& values);
bool ReadDoubles(const std::string& path, std::vector<double>* values);
// Bitwise equality (NaN payloads and signed zeros included).
bool SameBits(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace perfbench
