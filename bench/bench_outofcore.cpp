// Out-of-core training bench: trains a model whose bin matrix exceeds a
// heap budget by mapping the binned cache instead of loading it, and
// verifies the streamed runs are bit-identical to the resident run BEFORE
// any timing is reported.
//
// Protocol (Linux): the parent generates a synthetic dataset, writes the
// page-aligned binned cache, trains resident (heap) for the reference
// model, then fork+execs itself (`--ooc-child`) twice, so each child gets
// a fresh VmHWM (peak RSS resets on exec, not fork):
//
//   streamed  RLIMIT_DATA below the bin-matrix size. On Linux >= 4.7 the
//             limit covers brk plus private writable mappings but NOT the
//             read-only file mapping, so a heap load of the same matrix is
//             impossible while the mapped path trains normally. This run
//             carries the throughput claim: mapping instead of loading
//             should cost little when memory is not scarce.
//   capped    same heap cap plus a memory cgroup (v1 or v2) limiting
//             TOTAL memory — heap and resident mapped pages — with the
//             cache first dropped from the page cache so the child's
//             faults charge its own cgroup and refaults do real IO. This
//             run carries the residency claim: the kernel reclaims clean
//             mapped pages under the limit, so training completes with
//             peak usage pinned at the cap no matter how large the matrix
//             is. Cyclic histogram passes over a matrix bigger than the
//             budget miss on ~every page each pass (LRU's worst case), so
//             throughput here is reclaim-bound and reported honestly, not
//             held to the streamed bar. Skipped when the cgroup fs is not
//             writable.
//
// Knobs: HARP_BENCH_SCALE / HARP_BENCH_THREADS / HARP_BENCH_TREES as
// usual, plus
//   HARP_BENCH_OOC_CAP_MB     memory cap for the children (default
//                             64MB + bins/4 — below the bin matrix at
//                             scale >= 0.75)
//   HARP_BENCH_OOC_CGROUP=0   skip the cgroup-capped run
//   HARP_BENCH_OOC_CAPPED_TREES  boosting rounds for the capped run
//                             (default trees/4: it is reclaim-bound and
//                             each tree costs minutes at full scale; it
//                             gets its own same-length resident reference
//                             so the identity check stays exact)
//
// The identity checks abort the bench; the memory-cap and throughput bars
// (cgroup peak <= cap, streamed >= 0.5x resident) WARN, since both depend
// on machine page-cache and scheduling behaviour at small scales.
#include "bench_common.h"

#include <cinttypes>
#include <cstdlib>
#include <cstring>

#include "common/file_util.h"
#include "common/mmap_util.h"

#if defined(__linux__)
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#define HARP_OOC_CHILD 1
#else
#define HARP_OOC_CHILD 0
#endif

namespace harp::bench {
namespace {

// Fat dense matrix so the bin image dominates the heap working set:
// 1M x 128 = 128MB of bins at scale 1, against ~50MB of per-row training
// state (labels + margins + gradients + positions) plus thread stacks.
SyntheticSpec OocSpec(double scale) {
  SyntheticSpec spec;
  spec.name = "OOC";
  spec.rows = static_cast<uint32_t>(std::max(2000.0, 1000000.0 * scale));
  spec.features = 128;
  spec.mean_distinct = 128.0;
  spec.active_features = 10;
  spec.seed = 411;
  return spec;
}

// Shared by parent and child: identical params are what make the models
// byte-comparable.
TrainParams OocParams(int trees, int threads) {
  TrainParams p;
  p.num_trees = trees;
  p.tree_size = 6;
  p.grow_policy = GrowPolicy::kTopK;
  p.topk = 8;
  p.mode = ParallelMode::kSYNC;
  p.num_threads = threads;
  p.feature_blk_size = 0;
  p.node_blk_size = 4;
  return p;
}

#if HARP_OOC_CHILD
// ---- cgroup memory cap (best effort) ----
//
// RLIMIT_DATA bounds what the child can ALLOCATE, but clean pages of the
// read-only mapping still accumulate in its resident set: evicting them
// is free for the kernel, so it only bothers under memory pressure. A
// memory cgroup provides that pressure — with limit_in_bytes (v1) or
// memory.max (v2) set below the bin matrix, the kernel reclaims clean
// mapped pages as the child touches new ones, and peak usage genuinely
// stays under the cap. Requires a writable cgroup fs (root or delegated);
// silently skipped otherwise.

bool WriteFileRaw(const std::string& path, const std::string& content) {
  const int fd = open(path.c_str(), O_WRONLY);
  if (fd < 0) return false;
  const ssize_t n = write(fd, content.data(), content.size());
  close(fd);
  return n == static_cast<ssize_t>(content.size());
}

std::string ReadFileRaw(const std::string& path) {
  std::string out;
  char buf[256];
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return out;
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) out.append(buf, static_cast<size_t>(n));
  close(fd);
  return out;
}

struct CgroupCap {
  std::string dir;        // empty when unavailable
  std::string peak_file;  // max_usage_in_bytes (v1) / memory.peak (v2)
};

CgroupCap TrySetupCgroup(uint64_t cap_bytes) {
  const std::string name = StrFormat("harp_ooc_%d", getpid());
  const std::string bytes = StrFormat("%llu",
                                      static_cast<unsigned long long>(cap_bytes));
  CgroupCap cg;
  // cgroup v1 memory controller.
  std::string dir = "/sys/fs/cgroup/memory/" + name;
  if (mkdir(dir.c_str(), 0755) == 0) {
    if (WriteFileRaw(dir + "/memory.limit_in_bytes", bytes)) {
      cg.dir = dir;
      cg.peak_file = dir + "/memory.max_usage_in_bytes";
      return cg;
    }
    rmdir(dir.c_str());
  }
  // cgroup v2 unified hierarchy.
  dir = "/sys/fs/cgroup/" + name;
  if (mkdir(dir.c_str(), 0755) == 0) {
    if (WriteFileRaw(dir + "/memory.max", bytes)) {
      cg.dir = dir;
      cg.peak_file = dir + "/memory.peak";
      return cg;
    }
    rmdir(dir.c_str());
  }
  return cg;
}

// Drops the cache file from the page cache, so the pages the child then
// faults in are charged to the CHILD's cgroup (the first toucher pays),
// and refaults after reclaim are honest disk reads.
void DropFromPageCache(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  fsync(fd);
  posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  close(fd);
}
#endif  // HARP_OOC_CHILD

struct ChildResult {
  int64_t wall_ns = 0;
  int64_t trees = 0;
  uint64_t peak_rss = 0;
  uint64_t mapped = 0;
  int64_t minor_faults = 0;
  int64_t major_faults = 0;
};

std::string FormatResult(const ChildResult& r) {
  return StrFormat(
      "wall_ns=%lld\ntrees=%lld\npeak_rss=%llu\nmapped=%llu\n"
      "minor_faults=%lld\nmajor_faults=%lld\n",
      static_cast<long long>(r.wall_ns), static_cast<long long>(r.trees),
      static_cast<unsigned long long>(r.peak_rss),
      static_cast<unsigned long long>(r.mapped),
      static_cast<long long>(r.minor_faults),
      static_cast<long long>(r.major_faults));
}

bool ParseResult(const std::string& text, ChildResult* out) {
  long long wall = 0, trees = 0, minf = 0, majf = 0;
  unsigned long long rss = 0, mapped = 0;
  const int got = std::sscanf(
      text.c_str(),
      "wall_ns=%lld\ntrees=%lld\npeak_rss=%llu\nmapped=%llu\n"
      "minor_faults=%lld\nmajor_faults=%lld",
      &wall, &trees, &rss, &mapped, &minf, &majf);
  if (got != 6) return false;
  out->wall_ns = wall;
  out->trees = trees;
  out->peak_rss = rss;
  out->mapped = mapped;
  out->minor_faults = minf;
  out->major_faults = majf;
  return true;
}

// Trains from the mapped cache and fills `result`; shared by the child
// process and the in-process fallback. Returns false (with a message) if
// the cache could not be mapped.
bool RunMappedTraining(const std::string& cache_path,
                       const std::string& model_path, int trees, int threads,
                       ChildResult* result, std::string* error) {
  BinnedMatrix matrix;
  std::vector<float> labels;
  CacheReadOptions opts;
  opts.use_mmap = true;
  CacheReadInfo info;
  if (!ReadBinnedCache(cache_path, &matrix, &labels, error, opts, &info)) {
    return false;
  }
  if (!info.mapped) {
    *error = "cache did not map: " + info.note;
    return false;
  }
  TrainStats stats;
  GbdtTrainer trainer(OocParams(trees, threads));
  const GbdtModel model = trainer.TrainBinned(matrix, labels, &stats);
  if (!SaveModel(model_path, model, error)) return false;
  result->wall_ns = stats.wall_ns;
  result->trees = stats.trees;
  result->peak_rss = PeakRssBytes();
  result->mapped = stats.mapped_bytes;
  result->minor_faults = stats.minor_faults;
  result->major_faults = stats.major_faults;
  return true;
}

#if HARP_OOC_CHILD
// argv: --ooc-child <cache> <model_out> <result_out> <trees> <threads>
//       <cap_mb> <cgroup_dir|->
int RunChild(int argc, char** argv) {
  if (argc != 9) return 2;
  const std::string cache_path = argv[2];
  const std::string model_path = argv[3];
  const std::string result_path = argv[4];
  const int trees = std::atoi(argv[5]);
  const int threads = std::atoi(argv[6]);
  const long cap_mb = std::atol(argv[7]);
  const std::string cgroup_dir = argv[8];

  // Join the memory cgroup before touching anything sizable ("0" = self).
  if (cgroup_dir != "-" &&
      !WriteFileRaw(cgroup_dir + "/cgroup.procs", "0")) {
    std::fprintf(stderr, "child: cannot join cgroup %s\n",
                 cgroup_dir.c_str());
    return 2;
  }

  if (cap_mb > 0) {
    struct rlimit lim;
    lim.rlim_cur = static_cast<rlim_t>(cap_mb) << 20;
    lim.rlim_max = lim.rlim_cur;
    if (setrlimit(RLIMIT_DATA, &lim) != 0) {
      std::fprintf(stderr, "child: setrlimit(RLIMIT_DATA) failed\n");
      return 2;
    }
  }

  ChildResult result;
  std::string error;
  if (!RunMappedTraining(cache_path, model_path, trees, threads, &result,
                         &error)) {
    std::fprintf(stderr, "child: %s\n", error.c_str());
    return 3;
  }
  if (!WriteStringToFile(result_path, FormatResult(result), &error)) {
    std::fprintf(stderr, "child: %s\n", error.c_str());
    return 4;
  }
  return 0;
}

// Fork+execs the child and parses its result file. `cgroup_dir` is "-"
// for the rlimit-only run.
bool SpawnChild(const std::string& cache_path, const std::string& model_path,
                const std::string& result_path, int trees, int threads,
                long cap_mb, const std::string& cgroup_dir,
                ChildResult* out, std::string* error) {
  std::remove(result_path.c_str());
  const pid_t pid = fork();
  if (pid == 0) {
    const std::string trees_s = StrFormat("%d", trees);
    const std::string threads_s = StrFormat("%d", threads);
    const std::string cap_s = StrFormat("%ld", cap_mb);
    // exec (not just fork) so the child's VmHWM starts from zero.
    execl("/proc/self/exe", "bench_outofcore", "--ooc-child",
          cache_path.c_str(), model_path.c_str(), result_path.c_str(),
          trees_s.c_str(), threads_s.c_str(), cap_s.c_str(),
          cgroup_dir.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  int status = 0;
  if (pid <= 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    *error = StrFormat("child did not complete (status %d)", status);
    return false;
  }
  std::string text;
  if (!ReadFileToString(result_path, &text, error) ||
      !ParseResult(text, out)) {
    *error = "unreadable child result";
    return false;
  }
  return true;
}
#endif  // HARP_OOC_CHILD

// Byte-compares two serialized models; exits the bench on mismatch so a
// fast wrong model can never produce a timing row.
bool ModelsIdentical(const std::string& path_a, const std::string& path_b,
                     const char* what) {
  std::string bytes_a, bytes_b, error;
  if (!ReadFileToString(path_a, &bytes_a, &error) ||
      !ReadFileToString(path_b, &bytes_b, &error) || bytes_a != bytes_b) {
    std::fprintf(stderr,
                 "FAIL: %s model differs from resident model (%zu vs %zu "
                 "bytes)\n",
                 what, bytes_a.size(), bytes_b.size());
    return false;
  }
  std::printf("identity: %s model == resident model (%zu bytes)\n", what,
              bytes_a.size());
  return true;
}

int RunBench() {
  const double scale = Scale();
  const int threads = Threads();
  const int trees = Trees();
  const SyntheticSpec spec = OocSpec(scale);

  PrintTitle("OUT-OF-CORE", "mmap-backed bin matrix under a memory cap",
             "streamed training matches resident output bit-for-bit at "
             ">= 0.5x throughput");

  ThreadPool pool(threads);
  const Dataset data = GenerateSynthetic(spec, &pool);
  const BinnedMatrix matrix = BinnedMatrix::Build(
      data, QuantileCuts::Compute(data, 256, &pool), &pool);
  const uint64_t bins_bytes =
      static_cast<uint64_t>(matrix.num_rows()) * matrix.num_features();

  const std::string cache_path =
      StrFormat("/tmp/harp_ooc_%u.cache", spec.rows);
  const std::string model_ref = cache_path + ".model_ref";
  const std::string model_stream = cache_path + ".model_stream";
  const std::string model_capped = cache_path + ".model_capped";
  const std::string result_path = cache_path + ".result";
  std::string error;
  if (!WriteBinnedCache(cache_path, matrix, data.labels(), &error)) {
    std::fprintf(stderr, "FAIL: cache write: %s\n", error.c_str());
    return 1;
  }

  // Resident reference run on the exact same binned matrix. The capped
  // run trains fewer rounds (reclaim-bound, minutes per tree at full
  // scale), so it gets its own reference of the same length — byte
  // comparison requires equal tree counts.
  const int capped_trees =
      GetEnvInt("HARP_BENCH_OOC_CAPPED_TREES", std::max(1, trees / 4));
  TrainStats resident;
  GbdtTrainer trainer(OocParams(trees, threads));
  const GbdtModel ref = trainer.TrainBinned(matrix, data.labels(), &resident);
  if (!SaveModel(model_ref, ref, &error)) {
    std::fprintf(stderr, "FAIL: model save: %s\n", error.c_str());
    return 1;
  }
  const std::string model_ref_capped = cache_path + ".model_ref_capped";
  TrainStats resident_capped;
  {
    GbdtTrainer short_trainer(OocParams(capped_trees, threads));
    const GbdtModel short_ref =
        short_trainer.TrainBinned(matrix, data.labels(), &resident_capped);
    if (!SaveModel(model_ref_capped, short_ref, &error)) {
      std::fprintf(stderr, "FAIL: model save: %s\n", error.c_str());
      return 1;
    }
  }

  // Memory cap: enough for the per-row training state and thread stacks
  // (both count against RLIMIT_DATA) but below the bin matrix, so a heap
  // load of the bins would be impossible.
  const long cap_mb = static_cast<long>(GetEnvInt(
      "HARP_BENCH_OOC_CAP_MB",
      static_cast<int>(64 + bins_bytes / 4 / (1 << 20))));

  ChildResult stream;
  ChildResult capped;
  bool have_stream = false;
  bool have_capped = false;
  uint64_t cgroup_peak = 0;
#if HARP_OOC_CHILD
  // glibc reserves 64MB of virtual space per malloc arena, and RLIMIT_DATA
  // counts the reservation, not the touched pages — with per-thread arenas
  // the child would hit the cap before allocating anything. One arena
  // keeps the child's virtual heap close to its actual usage.
  setenv("MALLOC_ARENA_MAX", "1", 1);

  // Run 1: heap-capped, memory otherwise plentiful. The page cache is warm
  // from writing the cache, as it would be after any ingest — this times
  // the mapped path itself (fault overhead), not the disk.
  if (!SpawnChild(cache_path, model_stream, result_path, trees, threads,
                  cap_mb, "-", &stream, &error)) {
    std::fprintf(stderr, "FAIL: streamed run: %s\n", error.c_str());
    return 1;
  }
  have_stream = true;

  // Run 2: kernel-enforced total-memory cap (heap + resident mapping)
  // when the cgroup fs is writable. Cold page cache: the child's faults
  // then charge its own cgroup and post-reclaim refaults do real IO.
  if (GetEnvInt("HARP_BENCH_OOC_CGROUP", 1) != 0) {
    const CgroupCap cg = TrySetupCgroup(static_cast<uint64_t>(cap_mb) << 20);
    if (!cg.dir.empty()) {
      DropFromPageCache(cache_path);
      const bool ok =
          SpawnChild(cache_path, model_capped, result_path, capped_trees,
                     threads, cap_mb, cg.dir, &capped, &error);
      cgroup_peak = std::strtoull(ReadFileRaw(cg.peak_file).c_str(),
                                  nullptr, 10);
      rmdir(cg.dir.c_str());
      if (!ok) {
        std::fprintf(stderr, "FAIL: cgroup-capped run: %s\n", error.c_str());
        return 1;
      }
      have_capped = true;
    } else {
      std::printf("NOTE: cgroup fs not writable — skipping the "
                  "kernel-capped run (heap cap still enforced above)\n");
    }
  }
#else
  // No fork/rlimit on this platform: run the mapped training in-process.
  // Identity and counters still verify; the memory caps do not apply.
  if (!RunMappedTraining(cache_path, model_stream, trees, threads, &stream,
                         &error)) {
    std::fprintf(stderr, "FAIL: mapped training: %s\n", error.c_str());
    return 1;
  }
#endif

  // Identity gates FIRST, before any timing output.
  if (!ModelsIdentical(model_ref, model_stream, "streamed")) return 1;
  if (have_capped &&
      !ModelsIdentical(model_ref_capped, model_capped, "capped")) {
    return 1;
  }

  const double resident_sec = NsToSec(resident.wall_ns);
  const double resident_capped_sec = NsToSec(resident_capped.wall_ns);
  const double stream_sec = NsToSec(stream.wall_ns);
  const double capped_sec = NsToSec(capped.wall_ns);
  const double rows_trees =
      static_cast<double>(matrix.num_rows()) * trees;
  const double rows_trees_capped =
      static_cast<double>(matrix.num_rows()) * capped_trees;
  auto mrts = [&](double rt, double sec) {
    return StrFormat("%.2fM", rt / std::max(1e-12, sec) / 1e6);
  };

  std::printf("\n%-14s %12s %14s %14s\n", "", "resident", "streamed",
              have_capped ? "cgroup-capped" : "(no cgroup)");
  std::printf("%-14s %12d %14d %14d\n", "trees", trees, trees,
              have_capped ? capped_trees : 0);
  std::printf("%-14s %12s %14s %14s\n", "wall",
              HumanDuration(resident_sec).c_str(),
              HumanDuration(stream_sec).c_str(),
              have_capped ? HumanDuration(capped_sec).c_str() : "-");
  std::printf("%-14s %12s %14s %14s\n", "rows*trees/s",
              mrts(rows_trees, resident_sec).c_str(),
              mrts(rows_trees, stream_sec).c_str(),
              have_capped ? mrts(rows_trees_capped, capped_sec).c_str()
                          : "-");
  std::printf("%-14s %12s %14s %14s\n", "peak RSS", "-",
              HumanBytes(static_cast<double>(stream.peak_rss)).c_str(),
              have_capped
                  ? HumanBytes(static_cast<double>(capped.peak_rss)).c_str()
                  : "-");
  const ChildResult& detail = have_capped ? capped : stream;
  std::printf("bins=%s cap=%ldMB faults=%lld minor/%lld major\n",
              HumanBytes(static_cast<double>(bins_bytes)).c_str(), cap_mb,
              static_cast<long long>(detail.minor_faults),
              static_cast<long long>(detail.major_faults));

  const uint64_t cap_bytes = static_cast<uint64_t>(cap_mb) << 20;
  if (bins_bytes > cap_bytes) {
    std::printf("cap check: bin matrix (%s) exceeds the %ldMB cap — a "
                "resident load could not fit\n",
                HumanBytes(static_cast<double>(bins_bytes)).c_str(), cap_mb);
  } else {
    std::printf("NOTE: bin matrix fits under the cap at this scale; run "
                "with HARP_BENCH_SCALE>=0.75 for the paper-style capped "
                "configuration\n");
  }
  if (have_capped) {
    // The cgroup's own accounting is the enforced bound: VmHWM also
    // counts resident pages the cgroup never charged — shared library
    // text, and clean page-cache pages of the cache file another process
    // (or the parent) faulted first, which the kernel reclaims from
    // whoever is charged, not from this child.
    if (cgroup_peak > cap_bytes) {
      std::printf("WARN: capped run exceeded the limit (cgroup peak %s of "
                  "%ldMB)\n",
                  HumanBytes(static_cast<double>(cgroup_peak)).c_str(),
                  cap_mb);
    } else {
      std::printf("rss check: kernel-accounted peak %s stayed within the "
                  "%ldMB cgroup cap\n",
                  HumanBytes(static_cast<double>(cgroup_peak)).c_str(),
                  cap_mb);
    }
    if (capped.peak_rss > cap_bytes + (8u << 20)) {
      std::printf("NOTE: VmHWM %s exceeds the cap — the excess is pages "
                  "charged to other cgroups (shared text, page-cache pages "
                  "of the cache file faulted first by another process); "
                  "the child's own charge stayed capped above\n",
                  HumanBytes(static_cast<double>(capped.peak_rss)).c_str());
    }
  } else if (have_stream) {
    std::printf("NOTE: streamed peak RSS %s — without a cgroup only the "
                "heap is capped, and the kernel keeps clean mapped pages "
                "resident while memory is plentiful\n",
                HumanBytes(static_cast<double>(stream.peak_rss)).c_str());
  }
  const double stream_x =
      stream_sec > 0.0 ? resident_sec / stream_sec : 0.0;
  if (stream_x > 0.0 && stream_x < 0.5) {
    std::printf("WARN: streamed throughput %.2fx resident (< 0.5x bar)\n",
                stream_x);
  } else if (stream_x > 0.0) {
    std::printf("throughput: streamed runs at %.2fx resident\n", stream_x);
  }
  if (have_capped && capped_sec > 0.0) {
    std::printf("throughput: cgroup-capped runs at %.2fx its %d-tree "
                "resident reference (reclaim-bound: every pass over a "
                "matrix larger than the budget refaults it)\n",
                resident_capped_sec / capped_sec, capped_trees);
  }

  ReportResult("outofcore", "resident", trees,
               static_cast<double>(resident.wall_ns) / std::max(1, trees),
               rows_trees / std::max(1e-12, resident_sec));
  ReportResult("outofcore", StrFormat("mmap_cap%ldMB", cap_mb), trees,
               static_cast<double>(stream.wall_ns) / std::max(1, trees),
               rows_trees / std::max(1e-12, stream_sec));
  if (have_capped) {
    ReportResult("outofcore", StrFormat("mmap_cgroup%ldMB", cap_mb),
                 capped_trees,
                 static_cast<double>(capped.wall_ns) /
                     std::max(1, capped_trees),
                 rows_trees_capped / std::max(1e-12, capped_sec));
  }
  (void)have_stream;
  return 0;
}

}  // namespace
}  // namespace harp::bench

int main(int argc, char** argv) {
#if HARP_OOC_CHILD
  if (argc > 1 && std::strcmp(argv[1], "--ooc-child") == 0) {
    return harp::bench::RunChild(argc, argv);
  }
#else
  (void)argc;
  (void)argv;
#endif
  return harp::bench::RunBench();
}
