// Open-loop serving stage: one generator thread sends single-row
// ModelServer::SubmitWithCallback requests on a fixed schedule at each rate
// of a ladder, whether or not earlier requests have completed, so a stall
// shows up as queueing for every request due behind it.
//
// Latency is timed from each request's due time, not from when the
// generator got round to sending it; the generator's own lateness is
// reported separately. The server runs 2 dispatch threads. The ladder runs
// in passes; a rate meets the limit when the median over passes of its
// due-time p99 is under 2 ms, no served margin came back wrong, and the
// backlog grew in at most half of the passes (grew = at the end of the step
// more requests were outstanding than the rate clears within the limit).
//
// The caller runs the passes one at a time and may do other work between
// them: the server idles and the reloader pauses between passes, so the
// passes, and the work between them, spread over the whole measured window
// and a burst of outside load reaches only some of each.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/model.h"

namespace perfbench {

struct LadderConfig {
  std::vector<double> rates;  // requests per second, ascending
  size_t middle = 0;          // index of the rate latency is reported at
  int64_t step_ns = 0;        // length of one rate step
  // Hot-swap cadence while a pass runs: every reload_every_ns a reloader
  // thread loads the next file of reload_paths and publishes it; 0
  // disables reloads.
  int64_t reload_every_ns = 0;
  std::vector<std::string> reload_paths;
};

struct LadderOutcome {
  double p50_us = 0.0;   // due-time latency at the middle rate
  double p99_us = 0.0;
  double max_rps = 0.0;  // achieved rate at the highest rate meeting the
                         // limit, all lower rates meeting it too
  double generator_lag_us = 0.0;  // p99 generator lateness, middle rate
  double queue_p50_us = 0.0;
  double queue_p99_us = 0.0;
  double service_p50_us = 0.0;
  double service_p99_us = 0.0;
  double batch_fill = 0.0;
  double deadline_seal_frac = 0.0;
  double reload_ns = 0.0;  // median LoadModel + Reload
  int64_t snapshots_unfreed = 0;
  int passes = 0;
};

// Serves `rows` (num_rows dense rows of `width` floats, which must outlive
// the ladder; request i of a step sends row i % num_rows) starting from
// `initial`. Snapshot version v serves model (v - 1) % references.size(),
// whose batch-Predictor margins for every row are references[...]; each
// served margin must equal the margin of a version live between its submit
// and its completion, bit for bit.
class Ladder {
 public:
  // Starts the server and runs an unmeasured warm-up step at the lowest
  // rate: first batches pay allocation and page faults no later request
  // sees.
  Ladder(const harp::GbdtModel& initial, const float* rows, uint32_t num_rows,
         uint32_t width, std::vector<const std::vector<double>*> references,
         LadderConfig config, Tracer& tracer, Result* result);
  ~Ladder();
  Ladder(const Ladder&) = delete;
  Ladder& operator=(const Ladder&) = delete;

  // One step at every rate, ascending, with the reloader running.
  void Pass();
  // Shuts the server down and reports over the passes run so far.
  LadderOutcome Finish();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace perfbench
