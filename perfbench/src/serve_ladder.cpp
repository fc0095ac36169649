#include "serve_ladder.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/stats.h"
#include "core/model_io.h"
#include "serve/model_server.h"

namespace perfbench {

namespace {

constexpr int kDispatchThreads = 2;
constexpr int64_t kLatencyLimitNs = 2'000'000;

inline void CpuRelax() {
#if defined(__x86_64__)
  _mm_pause();
#endif
}

// Request state of one rate step, sized once for the largest step and
// reused, so the generator allocates nothing while it runs. The server
// fires callbacks one at a time in submission order, so `latency` has one
// writer at a time; the generator reads it only after `completed` reaches
// the number sent.
struct StepState {
  StepState(harp::ModelServer& s, size_t capacity)
      : server(s), due_ns(capacity), margin(capacity),
        version_at_submit(capacity), version_at_done(capacity) {}

  void Reset() {
    latency.Reset();
    completed.store(0, std::memory_order_relaxed);
  }

  void Complete(size_t i, double value) {
    latency.Record(harp::NowNs() - due_ns[i]);
    margin[i] = value;
    version_at_done[i] = server.ModelVersion();
    completed.fetch_add(1, std::memory_order_release);
  }

  harp::ModelServer& server;
  std::vector<int64_t> due_ns;
  std::vector<double> margin;
  std::vector<uint64_t> version_at_submit;
  std::vector<uint64_t> version_at_done;
  harp::LatencyRecorder latency;
  std::atomic<int64_t> completed{0};
};

struct StepOutcome {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double lag_p99_ns = 0.0;
  double achieved_rps = 0.0;
  bool backlog = false;  // more outstanding at the end than the limit clears
  int wrong = 0;         // margins that matched no live version
};

// The k-th successful reload (k from 0) loads reload_paths[k % n] and
// becomes snapshot version k + 2.
class Reloader {
 public:
  Reloader(harp::ModelServer& server, const LadderConfig& config,
           Tracer& tracer, std::mutex& result_mutex, Result* result)
      : server_(server),
        config_(config),
        tracer_(tracer),
        result_mutex_(result_mutex),
        result_(result) {}
  ~Reloader() { Stop(); }
  Reloader(const Reloader&) = delete;
  Reloader& operator=(const Reloader&) = delete;

  void Start() {
    if (config_.reload_every_ns <= 0 || config_.reload_paths.empty()) return;
    stop_ = false;
    thread_ = std::thread([this] { Loop(); });
  }

  // Joins the reloader; its samples are readable afterwards. Start() may
  // run it again; the reload sequence carries on where it stopped.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> reload_ns;  // LoadModel + Reload, per reload

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!wake_.wait_for(lock,
                           std::chrono::nanoseconds(config_.reload_every_ns),
                           [this] { return stop_; })) {
      lock.unlock();
      ReloadOnce();
      lock.lock();
    }
  }

  void ReloadOnce() {
    const std::string& path =
        config_.reload_paths[reload_ns.size() % config_.reload_paths.size()];
    Tracer::Scope swap(tracer_, "serve.hot_swap");
    const int64_t start = harp::NowNs();
    harp::GbdtModel model;
    std::string error;
    int64_t load = 0;
    bool ok = false;
    {
      LayerCall call(tracer_, "model_io.load", &load);
      ok = harp::LoadModel(path, &model, &error);
    }
    std::lock_guard<std::mutex> lock(result_mutex_);
    if (!result_->Op(ok, "reload LoadModel " + path + ": " + error)) return;
    int64_t publish = 0;
    {
      LayerCall call(tracer_, "serve.reload", &publish);
      server_.Reload(model);
    }
    reload_ns.push_back(static_cast<double>(harp::NowNs() - start));
  }

  harp::ModelServer& server_;
  const LadderConfig& config_;
  Tracer& tracer_;
  std::mutex& result_mutex_;  // shared with the generator's checks
  Result* result_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread thread_;  // last: joined before the members it uses go
};

bool MatchesLiveVersion(
    double margin, uint32_t row, uint64_t lo, uint64_t hi,
    const std::vector<const std::vector<double>*>& references) {
  for (uint64_t v = std::max<uint64_t>(lo, 1); v <= hi; ++v) {
    const double expected = (*references[(v - 1) % references.size()])[row];
    if (std::memcmp(&margin, &expected, sizeof(double)) == 0) return true;
  }
  return false;
}

size_t StepRequests(double rate, const LadderConfig& config) {
  return static_cast<size_t>(std::max(
      1.0, std::round(rate * static_cast<double>(config.step_ns) * 1e-9)));
}

StepOutcome RunStep(StepState& state, const float* rows, uint32_t num_rows,
                    uint32_t width, double rate, const LadderConfig& config,
                    const std::vector<const std::vector<double>*>& references,
                    std::mutex& result_mutex, Result* result) {
  const size_t n = StepRequests(rate, config);
  state.Reset();
  harp::LatencyRecorder lag;
  const double interval_ns = 1e9 / rate;
  const int64_t start = harp::NowNs() + 100'000;
  for (size_t i = 0; i < n; ++i) {
    const int64_t due =
        start + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
    state.due_ns[i] = due;
    int64_t now = harp::NowNs();
    while (now < due) {
      CpuRelax();
      now = harp::NowNs();
    }
    lag.Record(now - due);
    state.version_at_submit[i] = state.server.ModelVersion();
    state.server.SubmitWithCallback(
        rows + static_cast<size_t>(i % num_rows) * width, width,
        [&state, i](double margin) { state.Complete(i, margin); });
  }
  const int64_t last_submit = harp::NowNs();
  const int64_t outstanding =
      static_cast<int64_t>(n) - state.completed.load(std::memory_order_acquire);
  const bool backlog =
      static_cast<double>(outstanding) >
      std::max(1.0, rate * static_cast<double>(kLatencyLimitNs) * 1e-9);
  // Every accepted row is served, and the callbacks reference `state`, so
  // the step waits for all of them.
  while (state.completed.load(std::memory_order_acquire) <
         static_cast<int64_t>(n)) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  int wrong = 0;
  {
    std::lock_guard<std::mutex> lock(result_mutex);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t row = static_cast<uint32_t>(i % num_rows);
      // The version is published just before the pointer swap, so a batch
      // may still be served by the version before the one seen at submit.
      const uint64_t lo = state.version_at_submit[i] - 1;
      const bool ok = MatchesLiveVersion(state.margin[i], row, lo,
                                         state.version_at_done[i], references);
      if (!result->Op(ok, "served margin differs from batch Predictor")) {
        ++wrong;
      }
    }
  }

  StepOutcome out;
  out.p50_ns = state.latency.PercentileNs(0.50);
  out.p99_ns = state.latency.PercentileNs(0.99);
  out.lag_p99_ns = lag.PercentileNs(0.99);
  out.achieved_rps = static_cast<double>(n) * 1e9 /
                     (static_cast<double>(last_submit - start) + interval_ns);
  out.backlog = backlog;
  out.wrong = wrong;
  return out;
}

}  // namespace

struct Ladder::State {
  State(const float* rows, uint32_t num_rows, uint32_t width,
        std::vector<const std::vector<double>*> references,
        LadderConfig config, Tracer& tracer, Result* result)
      : rows(rows),
        num_rows(num_rows),
        width(width),
        references(std::move(references)),
        config(std::move(config)),
        tracer(tracer),
        result(result),
        p50(this->config.rates.size()),
        p99(this->config.rates.size()),
        lag(this->config.rates.size()),
        achieved(this->config.rates.size()),
        backlogs(this->config.rates.size(), 0),
        wrong(this->config.rates.size(), 0) {}

  StepOutcome Step(double rate) {
    return RunStep(*step, rows, num_rows, width, rate, config, references,
                   result_mutex, result);
  }

  const float* rows;
  uint32_t num_rows;
  uint32_t width;
  std::vector<const std::vector<double>*> references;
  LadderConfig config;
  Tracer& tracer;
  Result* result;
  std::mutex result_mutex;  // the generator's checks vs the reloader
  std::unique_ptr<harp::ModelServer> server;
  std::unique_ptr<StepState> step;
  std::unique_ptr<Reloader> reloader;
  // Per rate, one sample per pass.
  std::vector<std::vector<double>> p50, p99, lag, achieved;
  std::vector<int> backlogs, wrong;
  int passes = 0;
  bool serving = false;  // the server started with the requests' width
};

Ladder::Ladder(const harp::GbdtModel& initial, const float* rows,
               uint32_t num_rows, uint32_t width,
               std::vector<const std::vector<double>*> references,
               LadderConfig config, Tracer& tracer, Result* result)
    : state_(std::make_unique<State>(rows, num_rows, width,
                                     std::move(references), std::move(config),
                                     tracer, result)) {
  State& s = *state_;
  harp::ServeConfig serve_config;
  serve_config.num_threads = kDispatchThreads;
  int64_t start_ns = 0;
  {
    LayerCall call(tracer, "serve.start", &start_ns);
    s.server = std::make_unique<harp::ModelServer>(initial, serve_config);
  }
  s.serving = result->Op(s.server->row_width() == width,
                         "server row width differs from request width");
  if (!s.serving) return;
  s.step = std::make_unique<StepState>(
      *s.server, StepRequests(s.config.rates.back(), s.config));
  s.reloader = std::make_unique<Reloader>(*s.server, s.config, tracer,
                                          s.result_mutex, result);
  Tracer::Scope warm(tracer, "bench.serve_warmup");
  s.Step(s.config.rates.front());  // checked, not timed
}

Ladder::~Ladder() = default;

void Ladder::Pass() {
  State& s = *state_;
  if (!s.serving) return;
  Tracer::Scope pass(s.tracer, "bench.serve_pass");
  s.reloader->Start();
  for (size_t k = 0; k < s.config.rates.size(); ++k) {
    Tracer::Scope step(s.tracer, "bench.serve_step");
    const StepOutcome o = s.Step(s.config.rates[k]);
    s.p50[k].push_back(o.p50_ns);
    s.p99[k].push_back(o.p99_ns);
    s.lag[k].push_back(o.lag_p99_ns);
    s.achieved[k].push_back(o.achieved_rps);
    s.backlogs[k] += o.backlog ? 1 : 0;
    s.wrong[k] += o.wrong;
  }
  s.reloader->Stop();
  ++s.passes;
}

LadderOutcome Ladder::Finish() {
  State& s = *state_;
  LadderOutcome out;
  if (!s.serving || !s.result->Op(s.passes > 0, "no serving pass ran")) {
    return out;
  }
  out.passes = s.passes;
  // A rate meets the limit when its median p99 over passes is under the
  // limit, the backlog grew in at most half of the passes, and no margin
  // came back wrong; the median over passes keeps one stalled pass on a
  // shared machine from deciding the verdict.
  const LadderConfig& config = s.config;
  for (size_t k = 0; k < config.rates.size(); ++k) {
    const bool met =
        Median(s.p99[k]) < static_cast<double>(kLatencyLimitNs) &&
        2 * s.backlogs[k] <= out.passes && s.wrong[k] == 0;
    std::fprintf(stderr,
                 "serve rate %.0f/s: p50 %.1fus p99 %.1fus lag_p99 %.1fus "
                 "backlog %d/%d passes, wrong %d -> %s\n",
                 config.rates[k], Median(s.p50[k]) * 1e-3,
                 Median(s.p99[k]) * 1e-3, Median(s.lag[k]) * 1e-3,
                 s.backlogs[k], out.passes, s.wrong[k], met ? "met" : "missed");
    if (!met) break;
    out.max_rps = Median(s.achieved[k]);
  }
  out.p50_us = Median(s.p50[config.middle]) * 1e-3;
  out.p99_us = Median(s.p99[config.middle]) * 1e-3;
  out.generator_lag_us = Median(s.lag[config.middle]) * 1e-3;

  int64_t shutdown_ns = 0;
  {
    LayerCall call(s.tracer, "serve.shutdown", &shutdown_ns);
    s.server->Shutdown();
  }
  const harp::ServeStats stats = s.server->Stats();
  out.snapshots_unfreed = stats.snapshots_retired - stats.snapshots_freed;
  s.result->Op(out.snapshots_unfreed == 0,
               "snapshots left unfreed after shutdown");

  out.queue_p50_us = stats.queue_ns.PercentileNs(0.50) * 1e-3;
  out.queue_p99_us = stats.queue_ns.PercentileNs(0.99) * 1e-3;
  out.service_p50_us = stats.service_ns.PercentileNs(0.50) * 1e-3;
  out.service_p99_us = stats.service_ns.PercentileNs(0.99) * 1e-3;
  out.batch_fill = stats.avg_batch_fill;
  const int64_t seals =
      stats.full_seals + stats.deadline_seals + stats.forced_seals;
  out.deadline_seal_frac =
      seals > 0 ? static_cast<double>(stats.deadline_seals) /
                      static_cast<double>(seals)
                : 0.0;
  out.reload_ns = Median(s.reloader->reload_ns);
  return out;
}

}  // namespace perfbench
