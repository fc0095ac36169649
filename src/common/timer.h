// Monotonic stopwatch used by all instrumentation.
//
// All durations in the library are carried as int64 nanoseconds; convert to
// seconds only at reporting boundaries so accumulation stays exact.
#pragma once

#include <chrono>
#include <cstdint>

namespace harp {

// Current monotonic time in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToSec(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Simple stopwatch: constructed running, Elapsed*() reads without stopping.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(NowNs()) {}

  int64_t ElapsedNs() const { return NowNs() - start_ns_; }
  double ElapsedSec() const { return NsToSec(ElapsedNs()); }

 private:
  int64_t start_ns_;
};

}  // namespace harp
