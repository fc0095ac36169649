// ModelServer: low-latency online inference over a hot-swappable model.
//
//   Submit(row) ──► AdmissionQueue ──► WaitPop ──► dispatch workers
//                   (coalesce into      (full, or    (num_threads plain
//                    block_rows          open and     std::threads)
//                    blocks)             a worker          │
//                                        is idle)          ▼
//                                            copy the model shared_ptr
//                                            AccumulateMarginsDense
//                                            MarkDone → tickets/callbacks
//
// Threading model. The server starts `num_threads` worker threads that
// loop on AdmissionQueue::WaitPop. An idle worker takes the open batch
// as soon as it holds a row (an idle seal); rows arriving while every
// worker is busy coalesce until one is free. With nothing to serve a
// worker parks on the queue's condition variable (no spin, no timed
// wake), so an idle server takes no CPU from jobs beside it. Each
// worker serves whole batches serially; parallelism comes from many
// batches being in flight, which matches the latency goal (a batch never
// pays a fan-out barrier) and keeps per-batch work on one core's cache.
//
// Hot swap. The served generation is an immutable ModelSnapshot behind a
// shared_ptr under one mutex. A worker copies the pointer once per batch
// (up to block_rows rows), so the lock is taken once per batch, never per
// row. Reload() swaps the pointer, and with it the version, under the
// same lock; in-flight batches finish on the snapshot they copied, and
// the old generation is freed when its last copy drops. A batch records
// which version served it (served_version), so callers can verify
// bit-identity against the right generation across a swap.
//
// Bad input fails only itself. A Submit of the wrong width is refused
// (invalid ticket, or false for the callback flavor) and counted in
// rows_rejected; a Reload of a model that needs more features than
// row_width() returns false and keeps the old generation serving.
//
// Completion. Ticket waiters are released the moment their batch's
// margins are written (MarkDone), independently across batches.
// Callbacks additionally honor global submission order: batches retire
// through a sequence gate, so callback i never fires before callback j
// when row j was admitted first — the property a streaming client needs
// to pipeline responses without reordering buffers.
//
// Shutdown. Force-seal the open batch, stop admission, let the workers
// drain the ready queue (every accepted row is served) and join them.
// Submit must not race with Shutdown — callers stop their traffic first
// (checked).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/stats.h"
#include "predict/flat_forest.h"
#include "predict/predictor.h"
#include "serve/admission_queue.h"

namespace harp {

class GbdtModel;

// One immutable served generation: the flat ensemble, its predictor
// (tree-group plan precomputed), and a version for observability.
class ModelSnapshot {
 public:
  ModelSnapshot(std::shared_ptr<const FlatForest> forest, uint64_t version)
      : forest_(std::move(forest)),
        predictor_(*forest_),
        version_(version) {}

  ModelSnapshot(const ModelSnapshot&) = delete;
  ModelSnapshot& operator=(const ModelSnapshot&) = delete;

  const FlatForest& forest() const { return *forest_; }
  const Predictor& predictor() const { return predictor_; }
  uint64_t version() const { return version_; }

 private:
  std::shared_ptr<const FlatForest> forest_;
  Predictor predictor_;
  uint64_t version_;
};

struct ServeConfig {
  // Coalescing target: rows per dispatched batch (the Predictor's cache
  // block is the natural unit).
  uint32_t block_rows = Predictor::kRowBlock;
  // Dispatch worker threads; 0 = ThreadPool::DefaultThreads().
  int num_threads = 0;
};

// Aggregated server observability snapshot (Stats()).
struct ServeStats {
  int64_t rows_submitted = 0;
  int64_t rows_rejected = 0;  // wrong-width or callback-less submits
  int64_t rows_served = 0;
  int64_t batches_served = 0;
  int64_t full_seals = 0;
  int64_t deadline_seals = 0;  // taken by an idle worker before it filled
  int64_t forced_seals = 0;
  int64_t reloads = 0;
  int64_t snapshots_retired = 0;  // generations swapped out by Reload
  int64_t snapshots_freed = 0;    // generations whose last copy dropped
  uint64_t model_version = 0;
  double avg_batch_fill = 0.0;  // rows served / batches served

  LatencyRecorder request_ns;  // per row: submit -> margins done
  LatencyRecorder queue_ns;    // per row: submit -> batch dispatched
  LatencyRecorder service_ns;  // per batch: dispatch -> margins done

  // Multi-line human-readable report (IngestStats-style).
  std::string Summary() const;
};

class ModelServer {
 public:
  // Snapshots `model` (via its cached FlatSnapshot) and starts the
  // dispatch workers. `model` itself is not retained; Reload() accepts
  // any model whose referenced features fit the server's row width.
  explicit ModelServer(const GbdtModel& model, ServeConfig config = {});
  ~ModelServer();

  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;

  // Width every submitted row must have: the model's feature count (or
  // the flat forest's referenced-feature minimum for cut-less models).
  uint32_t row_width() const { return row_width_; }

  // Enqueues one dense row (`num_features` == row_width(); NaN =
  // missing). Returns a ticket; ticket.Wait() blocks until the row's raw
  // margin is computed. A row of the wrong width is refused with an
  // invalid ticket (valid() == false). Thread-safe.
  ServeTicket Submit(const float* row, uint32_t num_features);

  // Callback flavor: `done(margin)` fires after the batch completes,
  // in global submission order across all batches. Returns false, and
  // never calls `done`, for a row of the wrong width or a null `done`.
  bool SubmitWithCallback(const float* row, uint32_t num_features,
                          std::function<void(double)> done);

  // Hot-swaps the served model. In-flight batches keep the snapshot they
  // copied; the old generation is freed once the last of them drops it.
  // Returns false with `error` set, keeping the old generation serving,
  // when `model` references features beyond row_width(). Thread-safe;
  // cheap when the model's flat cache is warm.
  bool Reload(const GbdtModel& model, std::string* error = nullptr);

  // Version currently being handed to new batches (1 = initial model,
  // +1 per successful Reload).
  uint64_t ModelVersion() const;

  // Force-seals the open batch without waiting for an idle worker (test
  // hooks, drains).
  void Flush();

  // Stops admission, serves every accepted row, joins all threads.
  // Idempotent; the destructor calls it.
  void Shutdown();

  ServeStats Stats() const;

  const ServeConfig& config() const { return config_; }

 private:
  struct alignas(kCacheLineBytes) WorkerStats {
    mutable std::mutex mutex;
    LatencyRecorder request_ns;
    LatencyRecorder queue_ns;
    LatencyRecorder service_ns;
    int64_t rows = 0;
    int64_t batches = 0;
  };

  std::shared_ptr<const ModelSnapshot> MakeSnapshot(
      std::shared_ptr<const FlatForest> forest, uint64_t version);
  std::shared_ptr<const ModelSnapshot> Current() const;
  void WorkerLoop(int thread_id);
  void ProcessBatch(int thread_id, std::shared_ptr<RequestBatch> batch);
  // Sequence-gated retirement: fires callbacks in batch-seq order.
  void RetireBatch(std::shared_ptr<RequestBatch> batch);

  ServeConfig config_;
  uint32_t row_width_ = 0;

  // Declared before model_: the snapshot deleter counts into it, and the
  // last snapshot is freed when model_ is destroyed.
  std::atomic<int64_t> snapshots_freed_{0};
  mutable std::mutex model_mutex_;
  std::shared_ptr<const ModelSnapshot> model_;  // guarded by model_mutex_
  // model_'s version, stored after each swap: ModelVersion() reads it
  // without the lock a worker takes once per batch.
  std::atomic<uint64_t> version_{1};
  std::atomic<int64_t> reloads_{0};
  std::atomic<int64_t> rows_rejected_{0};

  std::unique_ptr<AdmissionQueue> queue_;
  std::unique_ptr<WorkerStats[]> worker_stats_;

  // Callback ordering gate.
  std::mutex retire_mutex_;
  uint64_t next_retire_seq_ = 0;
  bool retiring_ = false;
  std::map<uint64_t, std::shared_ptr<RequestBatch>> pending_retire_;

  // Last: the workers use every member above.
  std::vector<std::thread> workers_;
  bool shutdown_done_ = false;
};

}  // namespace harp
