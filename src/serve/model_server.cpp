#include "serve/model_server.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/model.h"
#include "parallel/thread_pool.h"

namespace harp {

std::string ServeStats::Summary() const {
  std::string out;
  out += StrFormat(
      "serve: %lld rows in %lld batches (fill %.1f/%u-row blocks), "
      "seals full=%lld idle=%lld forced=%lld, %lld rows rejected\n",
      static_cast<long long>(rows_served),
      static_cast<long long>(batches_served), avg_batch_fill,
      static_cast<unsigned>(Predictor::kRowBlock),
      static_cast<long long>(full_seals),
      static_cast<long long>(deadline_seals),
      static_cast<long long>(forced_seals),
      static_cast<long long>(rows_rejected));
  out += StrFormat(
      "serve: model v%llu, %lld reloads, snapshots retired=%lld "
      "freed=%lld\n",
      static_cast<unsigned long long>(model_version),
      static_cast<long long>(reloads),
      static_cast<long long>(snapshots_retired),
      static_cast<long long>(snapshots_freed));
  out += request_ns.Summary("serve: request") + "\n";
  out += queue_ns.Summary("serve: queued ") + "\n";
  out += service_ns.Summary("serve: service");
  return out;
}

ModelServer::ModelServer(const GbdtModel& model, ServeConfig config)
    : config_(config) {
  HARP_CHECK_GE(config_.block_rows, 1u);

  const std::shared_ptr<const FlatForest> flat = model.FlatSnapshot();
  row_width_ = std::max<uint32_t>(
      {1u, model.cuts().num_features(), flat->min_features()});
  model_ = MakeSnapshot(flat, /*version=*/1);

  const int threads = config_.num_threads > 0
                          ? config_.num_threads
                          : ThreadPool::DefaultThreads();
  queue_ = std::make_unique<AdmissionQueue>(config_.block_rows, row_width_);
  worker_stats_ = std::make_unique<WorkerStats[]>(static_cast<size_t>(threads));
  workers_.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers_.emplace_back([this, t] { WorkerLoop(t); });
  }
}

ModelServer::~ModelServer() { Shutdown(); }

std::shared_ptr<const ModelSnapshot> ModelServer::MakeSnapshot(
    std::shared_ptr<const FlatForest> forest, uint64_t version) {
  return std::shared_ptr<const ModelSnapshot>(
      new ModelSnapshot(std::move(forest), version),
      [this](const ModelSnapshot* snapshot) {
        delete snapshot;
        snapshots_freed_.fetch_add(1, std::memory_order_relaxed);
      });
}

std::shared_ptr<const ModelSnapshot> ModelServer::Current() const {
  std::lock_guard<std::mutex> lock(model_mutex_);
  return model_;
}

uint64_t ModelServer::ModelVersion() const {
  return version_.load(std::memory_order_acquire);
}

ServeTicket ModelServer::Submit(const float* row, uint32_t num_features) {
  if (num_features != row_width_) {
    rows_rejected_.fetch_add(1, std::memory_order_relaxed);
    return ServeTicket();
  }
  return queue_->Submit(row, nullptr);
}

bool ModelServer::SubmitWithCallback(const float* row, uint32_t num_features,
                                     std::function<void(double)> done) {
  if (num_features != row_width_ || done == nullptr) {
    rows_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  queue_->Submit(row, std::move(done));
  return true;
}

bool ModelServer::Reload(const GbdtModel& model, std::string* error) {
  const std::shared_ptr<const FlatForest> flat = model.FlatSnapshot();
  if (flat->min_features() > row_width_) {
    if (error != nullptr) {
      *error = StrFormat(
          "reloaded model references %u features, beyond the serving row "
          "width %u",
          flat->min_features(), row_width_);
    }
    return false;
  }
  std::shared_ptr<const ModelSnapshot> retired;
  {
    // Building the snapshot under the lock keeps versions in publish
    // order across concurrent reloads; it only plans tree groups.
    std::lock_guard<std::mutex> lock(model_mutex_);
    retired = std::exchange(model_, MakeSnapshot(flat, model_->version() + 1));
    version_.store(model_->version(), std::memory_order_release);
  }
  reloads_.fetch_add(1, std::memory_order_relaxed);
  return true;  // `retired` drops here, outside the model lock
}

void ModelServer::Flush() { queue_->SealOpen(); }

void ModelServer::Shutdown() {
  if (shutdown_done_) return;
  shutdown_done_ = true;
  // Seal any straggler rows, then let the workers drain the ready queue
  // and exit. Queue::Stop checks nothing was left unsealed.
  queue_->SealOpen();
  queue_->Stop();
  for (std::thread& worker : workers_) worker.join();
}

void ModelServer::WorkerLoop(int thread_id) {
  std::shared_ptr<RequestBatch> batch;
  while (queue_->WaitPop(&batch)) {
    ProcessBatch(thread_id, std::move(batch));
    batch.reset();
  }
}

void ModelServer::ProcessBatch(int thread_id,
                               std::shared_ptr<RequestBatch> batch) {
  {
    const std::shared_ptr<const ModelSnapshot> snapshot = Current();
    const FlatForest& forest = snapshot->forest();
    batch->served_version = snapshot->version();
    const uint32_t rows = batch->size();
    double* margins = batch->margins();
    std::fill_n(margins, rows, forest.base_margin());
    snapshot->predictor().AccumulateMarginsDense(
        batch->rows(), rows, batch->num_features(), margins,
        /*tree_begin=*/0, /*tree_end=*/forest.num_trees());
  }  // drop the snapshot copy before waking waiters
  batch->done_ns = NowNs();

  // Account BEFORE signalling completion: a client that has watched its
  // last ticket resolve must find those rows in Stats() already.
  WorkerStats& stats = worker_stats_[static_cast<size_t>(thread_id)];
  {
    std::lock_guard<std::mutex> lock(stats.mutex);
    ++stats.batches;
    stats.rows += batch->size();
    stats.service_ns.Record(batch->done_ns - batch->dispatch_ns);
    for (uint32_t i = 0; i < batch->size(); ++i) {
      stats.request_ns.Record(batch->done_ns - batch->submit_ns(i));
      stats.queue_ns.Record(batch->dispatch_ns - batch->submit_ns(i));
    }
  }

  batch->MarkDone();
  RetireBatch(std::move(batch));
}

void ModelServer::RetireBatch(std::shared_ptr<RequestBatch> batch) {
  // Single-drainer sequence gate: whoever arrives while nobody is
  // draining takes over and fires callbacks for every consecutive ready
  // seq, strictly in order. Other workers deposit and leave — they never
  // fire callbacks concurrently, which is what makes the order global.
  {
    std::lock_guard<std::mutex> lock(retire_mutex_);
    pending_retire_.emplace(batch->seq(), std::move(batch));
    if (retiring_) return;
    retiring_ = true;
  }
  for (;;) {
    std::shared_ptr<RequestBatch> ready;
    {
      std::lock_guard<std::mutex> lock(retire_mutex_);
      auto it = pending_retire_.find(next_retire_seq_);
      if (it == pending_retire_.end()) {
        retiring_ = false;
        return;
      }
      ready = std::move(it->second);
      pending_retire_.erase(it);
      ++next_retire_seq_;
    }
    auto& callbacks = ready->callbacks();
    for (uint32_t i = 0; i < callbacks.size(); ++i) {
      if (callbacks[i]) callbacks[i](ready->margin(i));
    }
  }
}

ServeStats ModelServer::Stats() const {
  ServeStats out;
  const AdmissionCounters admission = queue_->GetCounters();
  out.rows_submitted = admission.submitted;
  out.rows_rejected = rows_rejected_.load(std::memory_order_relaxed);
  out.full_seals = admission.full_seals;
  out.deadline_seals = admission.deadline_seals;
  out.forced_seals = admission.forced_seals;
  out.reloads = reloads_.load(std::memory_order_relaxed);
  out.snapshots_retired = out.reloads;
  out.snapshots_freed = snapshots_freed_.load(std::memory_order_relaxed);
  out.model_version = ModelVersion();
  for (size_t t = 0; t < workers_.size(); ++t) {
    const WorkerStats& stats = worker_stats_[t];
    std::lock_guard<std::mutex> lock(stats.mutex);
    out.rows_served += stats.rows;
    out.batches_served += stats.batches;
    out.request_ns.Merge(stats.request_ns);
    out.queue_ns.Merge(stats.queue_ns);
    out.service_ns.Merge(stats.service_ns);
  }
  out.avg_batch_fill =
      out.batches_served > 0
          ? static_cast<double>(out.rows_served) /
                static_cast<double>(out.batches_served)
          : 0.0;
  return out;
}

}  // namespace harp
