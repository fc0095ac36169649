// harp_e2e: one phase of one workload of the end-to-end benchmark.
//
//   harp_e2e --workload <name> --phase setup|run --work-dir <dir>
//            [--seed N] [--seconds S] [--trace 0|1]
//
// "setup" generates the workload's inputs from the seed and writes its
// reference outputs; "run" measures for --seconds and checks every output
// against those references. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 only when every operation succeeded and every output was
// correct. perfbench/run.py drives the phases; see perfbench/README.md.
#include <sys/prctl.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "common/mmap_util.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--phase") {
      args->phase = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else {
      return false;
    }
    if (end != nullptr && (end == value.c_str() || *end != '\0')) return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty() &&
         (args->phase == "setup" || args->phase == "run") &&
         args->seconds > 0;
}

void PrintResult(const perfbench::Result& result) {
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "harp_e2e: FAILED: %s\n", error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.failed == 0 ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    if (!std::isfinite(value)) continue;
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: harp_e2e --workload W --phase setup|run --work-dir D "
                 "[--seed N] [--seconds S] [--trace 0|1]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "harp_e2e: cannot create %s: %s\n",
                 args.work_dir.c_str(), ec.message().c_str());
    return 2;
  }

  // Timed waits (the server's batch deadline, the reloader's cadence) wake
  // on time rather than up to 50 us late, whenever other timers on the CPU
  // happen to fire: with the default slack, serving latency follows the
  // machine's other activity. Threads inherit the slack from their creator.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  perfbench::Tracer tracer;
  perfbench::Result result;
  const int64_t start = harp::NowNs();
  const bool known = args.phase == "setup"
                         ? perfbench::RunSetup(args, tracer, &result)
                         : perfbench::RunMeasure(args, tracer, &result);
  if (!known) {
    std::fprintf(stderr, "harp_e2e: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.phase == "setup") {
    result.Set("setup_s", static_cast<double>(harp::NowNs() - start) * 1e-9);
  } else {
    result.Set("peak_rss_mb",
               static_cast<double>(harp::PeakRssBytes()) / (1024.0 * 1024.0));
  }
  result.Set("failed_ops_frac",
             result.attempted > 0 ? static_cast<double>(result.failed) /
                                        static_cast<double>(result.attempted)
                                  : 0.0);
  PrintResult(result);
  return result.failed == 0 ? 0 : 1;
}
