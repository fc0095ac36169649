// The four workloads. Each has a set-up phase, which writes its inputs and
// reference outputs into Args::work_dir, and a run phase, which measures
// and checks every output against those references.
//
//   pipeline_dense  CSV text -> cuts -> bins -> trees (SYNC) -> model file
//                   -> load -> bin -> predict, then serve the model
//   retrain_cached  mmap'd binned cache -> trees (DP, quantized,
//                   subtraction) -> model file -> predict, then serve
//   dist_sparse     LibSVM text -> DistributedGbdt (2 workers x 2 threads,
//                   sparse quantized exchange) -> model file -> predict,
//                   then serve
//   serve_open      model trained in set-up; open-loop serving ladder with
//                   a steady LoadModel + Reload cadence alongside
#pragma once

#include "common.h"

namespace perfbench {

// Both return false for an unknown workload name.
bool RunSetup(const Args& args, Tracer& tracer, Result* result);
bool RunMeasure(const Args& args, Tracer& tracer, Result* result);

}  // namespace perfbench
