// Spans the benchmark records around each call it makes into a library
// layer. Nothing inside the library is instrumented: a span covers one
// public call (ReadCsv, TrainBinned, SaveModel, ...) made from this
// benchmark, and a layer's self time is its spans' duration minus the part
// covered by child spans.
//
// A span's layer is the prefix of its name before the first '.', e.g.
// "data.read_csv" belongs to layer "data". Spans nest per thread; a span
// opened with no open parent on its thread is a root (one benchmark
// iteration, one serve ladder pass), and self times are aggregated per
// root so they can be reported as a median over iterations.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;  // string literal: "<layer>.<call>"
    int64_t start_ns;
    int64_t end_ns;
    int32_t id;
    int32_t parent;  // -1 for a root
    int32_t root;
    uint32_t thread;
  };

  // Spans are recorded only while enabled; a disabled scope costs one
  // relaxed load.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when tracing was off at open
    const char* name_ = nullptr;
    int64_t start_ns_ = 0;
    int32_t id_ = -1;
    int32_t parent_ = -1;
    int32_t root_ = -1;
  };

  // Self time of every span, grouped by the name of its root span and by
  // layer: root name -> layer -> self ns under each root of that name (one
  // entry per root, zero where the layer did not run under it).
  using SelfTimes =
      std::map<std::string, std::map<std::string, std::vector<double>>>;
  SelfTimes SelfNsByRoot() const;

  // Number of spans recorded so far under roots named `root_name`, the
  // roots included.
  size_t SpansUnder(const std::string& root_name) const;

  // Writes every span as Chrome trace_event JSON (opens in Perfetto or
  // chrome://tracing). Returns false if the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

  // Measured cost of one recorded span (open + close), in ns.
  static double MeasureSpanCostNs();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<int32_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
