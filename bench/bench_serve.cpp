// Online serving — ModelServer (admission coalescing + snapshot hot
// swap) vs one-row-per-Predict, under closed- and open-loop load.
//
// The serving tentpole claims three things, and this bench checks all of
// them before and while timing:
//   1. Identity: every served margin is bit-identical to the batch
//      Predictor on the same rows — including requests that straddle a
//      mid-load hot swap, where each result must match the generation
//      that served it (the batch records its snapshot version).
//   2. Throughput: coalescing single-row submits into kRowBlock blocks
//      recovers the block path's cache amortization that one-row-per-
//      Predict forfeits (>= 3x rows/sec at high concurrency is the PR
//      bar; reported as PASS/WARN because CI machines are heavily
//      oversubscribed).
//   3. Bounded tails: an open-loop generator at a fraction of peak
//      reports p50/p99/p999 sojourn times from the server's log-bucketed
//      LatencyRecorders.
//
// Knobs: HARP_BENCH_SERVE_TREES (ensemble size, default 64) plus the
// usual HARP_BENCH_SCALE / HARP_BENCH_THREADS.
#include <atomic>
#include <thread>

#include "bench_common.h"
#include "common/logging.h"

namespace {

using namespace harp;
using namespace harp::bench;

// Rows of `dataset` densified to `width` floats (NaN = missing), the
// wire format a serving client would send.
std::vector<float> DenseRows(const Dataset& dataset, uint32_t width) {
  std::vector<float> out(
      static_cast<size_t>(dataset.num_rows()) * width, kMissingValue);
  for (uint32_t r = 0; r < dataset.num_rows(); ++r) {
    float* row = out.data() + static_cast<size_t>(r) * width;
    dataset.ForEachInRow(r, [&](uint32_t f, float v) {
      if (f < width) row[f] = v;
    });
  }
  return out;
}

void CheckIdentical(const std::vector<double>& served,
                    const std::vector<double>& expect, const char* what) {
  HARP_CHECK_EQ(served.size(), expect.size());
  for (size_t i = 0; i < served.size(); ++i) {
    HARP_CHECK(served[i] == expect[i])
        << what << ": served margin differs at row " << i;
  }
}

// Serves every test row once through `server` and returns the margins.
std::vector<double> ServeAll(ModelServer& server,
                             const std::vector<float>& rows,
                             uint32_t num_rows) {
  const uint32_t width = server.row_width();
  std::vector<ServeTicket> tickets(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    tickets[r] =
        server.Submit(rows.data() + static_cast<size_t>(r) * width, width);
  }
  server.Flush();
  std::vector<double> out(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) out[r] = tickets[r].Wait();
  return out;
}

struct LoadResult {
  double rows_per_sec = 0.0;
  int64_t requests = 0;
};

// Closed-loop "naive server" baseline: `clients` threads, each request
// is an independent one-row PredictMargins call (the API shape a server
// without an admission queue would use).
LoadResult DirectLoad(const Predictor& predictor,
                      const std::vector<Dataset>& one_row,
                      const std::vector<double>& expect, int clients,
                      int64_t total_requests) {
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> threads;
  const int64_t per_client = total_requests / clients;
  const Stopwatch watch;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const size_t n = one_row.size();
      for (int64_t i = 0; i < per_client; ++i) {
        const size_t r = (static_cast<size_t>(c) * 7919 +
                          static_cast<size_t>(i)) % n;
        const std::vector<double> m = predictor.PredictMargins(one_row[r]);
        if (m[0] != expect[r]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = watch.ElapsedSec();
  HARP_CHECK_EQ(mismatches.load(), 0) << "direct baseline mismatch";
  LoadResult result;
  result.requests = per_client * clients;
  result.rows_per_sec = static_cast<double>(result.requests) / seconds;
  return result;
}

// Closed-loop coalesced load: `clients` threads keep a window of
// outstanding tickets against `server`, verifying every result bitwise.
LoadResult ServeLoad(ModelServer& server, const std::vector<float>& rows,
                     const std::vector<double>& expect, int clients,
                     int64_t total_requests, int window) {
  const uint32_t width = server.row_width();
  const size_t n = expect.size();
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> threads;
  const int64_t per_client = total_requests / clients;
  const Stopwatch watch;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::pair<ServeTicket, size_t>> inflight;
      inflight.reserve(static_cast<size_t>(window));
      size_t head = 0;
      auto drain_one = [&] {
        auto& [ticket, row] = inflight[head];
        if (ticket.Wait() != expect[row]) mismatches.fetch_add(1);
        ++head;
        if (head == inflight.size()) {
          inflight.clear();
          head = 0;
        }
      };
      for (int64_t i = 0; i < per_client; ++i) {
        const size_t r = (static_cast<size_t>(c) * 104729 +
                          static_cast<size_t>(i)) % n;
        if (inflight.size() - head >= static_cast<size_t>(window)) {
          drain_one();
        }
        inflight.emplace_back(
            server.Submit(rows.data() + r * width, width), r);
      }
      server.Flush();  // seal the tail rows without waiting for a worker
      while (head < inflight.size()) drain_one();
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = watch.ElapsedSec();
  HARP_CHECK_EQ(mismatches.load(), 0) << "coalesced serve mismatch";
  LoadResult result;
  result.requests = per_client * clients;
  result.rows_per_sec = static_cast<double>(result.requests) / seconds;
  return result;
}

}  // namespace

int main() {
  PrintTitle("Serve", "online serving: coalescing + hot swap vs naive",
             "admission-queue coalescing into kRowBlock blocks recovers "
             "batch-path throughput for single-row traffic (>= 3x vs "
             "one-row-per-Predict at high concurrency is the PR bar)");

  Prepared data = Prepare(HiggsSpec(0.25 * Scale()), /*test_fraction=*/0.3);
  TrainParams params = HarpParams(8, ParallelMode::kSYNC);
  params.num_trees = GetEnvInt("HARP_BENCH_SERVE_TREES", 64);
  const GbdtModel model_a =
      GbdtTrainer(params).TrainBinned(data.matrix, data.train.labels());
  TrainParams params_b = params;
  params_b.num_trees = std::max(1, params.num_trees / 2);
  const GbdtModel model_b =
      GbdtTrainer(params_b).TrainBinned(data.matrix, data.train.labels());

  ThreadPool pool(Threads());
  const Dataset& test = data.test;
  const uint32_t num_rows = test.num_rows();
  const std::vector<double> expect_a = model_a.PredictMargins(test, &pool);
  const std::vector<double> expect_b = model_b.PredictMargins(test, &pool);

  ServeConfig config;
  config.num_threads = Threads();
  const uint32_t width = [&] {
    ModelServer probe(model_a, config);
    return probe.row_width();
  }();
  const std::vector<float> rows = DenseRows(test, width);
  std::printf("model A: %zu trees, model B: %zu trees; %u test rows x "
              "%u features, block=%u\n\n",
              model_a.NumTrees(), model_b.NumTrees(), num_rows, width,
              static_cast<unsigned>(config.block_rows));

  // ---- phase 1: identity, including across a hot swap ----------------
  {
    ModelServer server(model_a, config);
    CheckIdentical(ServeAll(server, rows, num_rows), expect_a,
                   "initial model");
    server.Reload(model_b);
    CheckIdentical(ServeAll(server, rows, num_rows), expect_b,
                   "reloaded model");
    HARP_CHECK_EQ(server.ModelVersion(), 2u);
    server.Shutdown();
    std::printf("identity: %u rows bit-identical on v1 and on v2 after "
                "hot swap\n\n", num_rows);
  }

  // ---- phase 2: closed-loop throughput vs one-row-per-Predict --------
  const std::shared_ptr<const FlatForest> flat = model_a.FlatSnapshot();
  const Predictor predictor(*flat);
  std::vector<Dataset> one_row;
  one_row.reserve(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    one_row.push_back(test.Slice(r, r + 1));
  }
  const int64_t total_requests =
      std::max<int64_t>(4096, static_cast<int64_t>(num_rows) * 4);

  std::printf("%-12s %16s %16s %9s %10s %10s %10s\n", "closed loop",
              "direct rows/s", "serve rows/s", "speedup", "p50 us",
              "p99 us", "p999 us");
  double best_serve = 0.0;
  double speedup_high_c = 0.0;
  for (int clients : {1, 4, 16}) {
    const LoadResult direct =
        DirectLoad(predictor, one_row, expect_a, clients, total_requests);
    ModelServer server(model_a, config);
    const LoadResult served = ServeLoad(server, rows, expect_a, clients,
                                        total_requests, /*window=*/256);
    const ServeStats stats = server.Stats();
    server.Shutdown();
    const double speedup = served.rows_per_sec / direct.rows_per_sec;
    speedup_high_c = speedup;  // last iteration = highest concurrency
    best_serve = std::max(best_serve, served.rows_per_sec);
    std::printf("clients=%-4d %14.0f/s %14.0f/s %8.2fx %10.1f %10.1f "
                "%10.1f\n",
                clients, direct.rows_per_sec, served.rows_per_sec, speedup,
                stats.request_ns.PercentileNs(0.50) * 1e-3,
                stats.request_ns.PercentileNs(0.99) * 1e-3,
                stats.request_ns.PercentileNs(0.999) * 1e-3);
    ReportResult("serve", StrFormat("direct_c%d", clients),
                 direct.requests, 1e9 / direct.rows_per_sec,
                 direct.rows_per_sec);
    ReportResult("serve", StrFormat("coalesced_c%d", clients),
                 served.requests, 1e9 / served.rows_per_sec,
                 served.rows_per_sec);
  }
  std::printf("high-concurrency speedup %.2fx vs one-row-per-Predict: "
              "%s\n\n", speedup_high_c,
              speedup_high_c >= 3.0
                  ? "PASS"
                  : "WARN (below 3x bar; expected on oversubscribed "
                    "CI hosts)");

  // ---- phase 3: open-loop latency at a fraction of peak --------------
  {
    ModelServer server(model_a, config);
    const double target_rate = std::max(1000.0, 0.5 * best_serve);
    const int64_t requests =
        std::min<int64_t>(total_requests,
                          static_cast<int64_t>(target_rate));  // ~1s cap
    const int64_t interval_ns =
        static_cast<int64_t>(1e9 / target_rate);
    std::atomic<int64_t> done{0};
    std::atomic<int64_t> mismatches{0};
    const Stopwatch watch;
    const int64_t start = NowNs();
    for (int64_t i = 0; i < requests; ++i) {
      const size_t r = static_cast<size_t>(i) % num_rows;
      const double want = expect_a[r];
      server.SubmitWithCallback(
          rows.data() + r * width, width,
          [want, &done, &mismatches](double margin) {
            if (margin != want) mismatches.fetch_add(1);
            done.fetch_add(1, std::memory_order_release);
          });
      // Open loop: arrivals follow the schedule, not the completions.
      const int64_t next = start + (i + 1) * interval_ns;
      while (NowNs() < next) {
        const int64_t gap = next - NowNs();
        if (gap > 200 * 1000) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(gap - 100 * 1000));
        } else {
          std::this_thread::yield();
        }
      }
    }
    server.Flush();
    while (done.load(std::memory_order_acquire) < requests) {
      std::this_thread::yield();
    }
    const double seconds = watch.ElapsedSec();
    HARP_CHECK_EQ(mismatches.load(), 0) << "open-loop mismatch";
    const ServeStats stats = server.Stats();
    server.Shutdown();
    const double achieved =
        static_cast<double>(requests) / seconds;
    std::printf("open loop: target %.0f rows/s, achieved %.0f rows/s "
                "(%lld requests)\n", target_rate, achieved,
                static_cast<long long>(requests));
    std::printf("  %s\n  %s\n  %s\n",
                stats.request_ns.Summary("request sojourn").c_str(),
                stats.queue_ns.Summary("admission wait ").c_str(),
                stats.service_ns.Summary("batch service ").c_str());
    std::printf("  batches: %.1f rows avg fill, seals full=%lld "
                "idle=%lld\n\n", stats.avg_batch_fill,
                static_cast<long long>(stats.full_seals),
                static_cast<long long>(stats.deadline_seals));
    ReportResult("serve", "openloop", requests, 1e9 / achieved, achieved);
    ReportResult("serve", "openloop_p99_us", requests,
                 stats.request_ns.PercentileNs(0.99),
                 stats.request_ns.PercentileNs(0.99) * 1e-3);
  }

  // ---- phase 4: hot swap under load, per-generation identity ---------
  {
    ModelServer server(model_a, config);
    std::atomic<bool> stop_swapper{false};
    std::thread swapper([&] {
      int flips = 0;
      while (!stop_swapper.load(std::memory_order_acquire)) {
        server.Reload(++flips % 2 == 1 ? model_b : model_a);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    const int clients = 2;
    std::atomic<int64_t> mismatches{0};
    std::vector<std::thread> threads;
    const int64_t per_client = total_requests / (2 * clients);
    const Stopwatch watch;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (int64_t i = 0; i < per_client; ++i) {
          const size_t r = (static_cast<size_t>(c) * 7919 +
                            static_cast<size_t>(i)) % num_rows;
          ServeTicket ticket =
              server.Submit(rows.data() + r * width, width);
          const double margin = ticket.Wait();
          // Odd generations are A, even are B (swapper alternates).
          const uint64_t version = ticket.batch().served_version;
          const double want =
              version % 2 == 1 ? expect_a[r] : expect_b[r];
          if (margin != want) mismatches.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    const double seconds = watch.ElapsedSec();
    stop_swapper.store(true, std::memory_order_release);
    swapper.join();
    HARP_CHECK_EQ(mismatches.load(), 0)
        << "hot-swap phase served a torn or wrong-generation margin";
    const int64_t requests = per_client * clients;
    server.Shutdown();
    const ServeStats stats = server.Stats();
    std::printf("hot swap: %lld rows served across %lld reloads, all "
                "bit-identical to their generation; snapshots "
                "retired=%lld freed=%lld\n",
                static_cast<long long>(requests),
                static_cast<long long>(stats.reloads),
                static_cast<long long>(stats.snapshots_retired),
                static_cast<long long>(stats.snapshots_freed));
    HARP_CHECK_EQ(stats.snapshots_retired, stats.snapshots_freed)
        << "snapshot generations leaked past shutdown";
    ReportResult("serve", "hotswap", requests,
                 seconds * 1e9 / static_cast<double>(requests),
                 static_cast<double>(requests) / seconds);
  }

  std::printf("\nall served margins verified bit-identical to the batch "
              "Predictor (incl. across hot swaps) before reporting.\n");
  return 0;
}
