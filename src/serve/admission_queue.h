// Admission queue: coalesces concurrent single-row Submit() calls into
// Predictor-sized row blocks.
//
// The flat Predictor amortizes its costs (tree-group planning, cache-
// resident node walks, interleaved lanes) over blocks of kRowBlock rows;
// serving traffic arrives one row at a time. The queue bridges the two:
// submitters copy their row into the currently open batch under the
// queue mutex, and a batch is sealed — handed to the dispatch side —
// when it fills or when a flush deadline expires, whichever comes first.
// Full seals happen inline on the submitting thread; deadline seals are
// made by an idle dispatch worker inside WaitPop(), which sleeps until
// the open batch's deadline when there is nothing sealed to serve. That
// is the adaptive flush policy: under load batches fill in well under the
// deadline and latency is dominated by service time, while a trickle of
// traffic still gets out within ~deadline instead of waiting for 255
// neighbours.
//
//   Submit ─► open batch ─┬─ fills (inline) ───────────► ready deque ─► WaitPop
//                         ├─ SealOpen (Flush/Shutdown) ─► ready deque
//                         └─ deadline passed ────────────────────────► WaitPop
//
// One mutex and one condition variable guard both the open batch and the
// ready deque; a submit notifies when it opens or fills a batch.
//
// Completion flows backwards through the batch itself: dispatch workers
// write per-row margins into the batch and call MarkDone(); submitters
// hold a ServeTicket (shared ownership of the batch + their row index)
// and either block on Wait() or get their callback fired by the server.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace harp {

// One coalesced block of submitted rows moving through the serve
// pipeline as a unit. Rows are stored densely (size * num_features
// floats, row-major) so dispatch can hand the buffer straight to
// Predictor::AccumulateMarginsDense.
class RequestBatch {
 public:
  RequestBatch(uint64_t seq, uint32_t capacity, uint32_t num_features);

  RequestBatch(const RequestBatch&) = delete;
  RequestBatch& operator=(const RequestBatch&) = delete;

  uint64_t seq() const { return seq_; }
  uint32_t capacity() const { return capacity_; }
  uint32_t num_features() const { return num_features_; }
  uint32_t size() const { return size_; }

  const float* row(uint32_t i) const {
    return rows_.data() + static_cast<size_t>(i) * num_features_;
  }
  float* rows() { return rows_.data(); }
  double* margins() { return margins_.data(); }
  double margin(uint32_t i) const { return margins_[i]; }
  int64_t submit_ns(uint32_t i) const { return submit_ns_[i]; }

  // Timeline + provenance, written by the pipeline stages.
  int64_t first_submit_ns = 0;  // admission: first row landed
  int64_t dispatch_ns = 0;      // worker: popped for processing
  int64_t done_ns = 0;          // worker: margins complete
  bool deadline_seal = false;   // sealed by flush deadline, not by filling
  uint64_t served_version = 0;  // model snapshot version that served it

  // Completion latch. MarkDone() publishes the margins written before it;
  // Wait()/TryWait() on the other side synchronize with that write.
  void MarkDone();
  void WaitDone();
  bool done() const { return done_.load(std::memory_order_acquire); }

 private:
  friend class AdmissionQueue;

  const uint64_t seq_;
  const uint32_t capacity_;
  const uint32_t num_features_;
  uint32_t size_ = 0;

  std::vector<float> rows_;
  std::vector<double> margins_;
  std::vector<int64_t> submit_ns_;
  // Allocated lazily on the first callback submission (ticket-only
  // traffic never touches it).
  std::vector<std::function<void(double)>> callbacks_;
  bool has_callbacks_ = false;

  std::atomic<bool> done_{false};
  std::mutex done_mutex_;
  std::condition_variable done_cv_;

 public:
  bool has_callbacks() const { return has_callbacks_; }
  // Valid only when has_callbacks(); entries may be empty (ticket rows).
  std::vector<std::function<void(double)>>& callbacks() { return callbacks_; }
};

// Handle a submitter keeps for one row: shared ownership of the batch
// plus the row's slot in it. Wait() blocks until the batch is served and
// returns the row's raw margin.
class ServeTicket {
 public:
  ServeTicket() = default;
  ServeTicket(std::shared_ptr<RequestBatch> batch, uint32_t index)
      : batch_(std::move(batch)), index_(index) {}

  bool valid() const { return batch_ != nullptr; }
  bool ready() const { return batch_ != nullptr && batch_->done(); }

  // Blocks until the batch completes; returns this row's margin.
  double Wait() {
    batch_->WaitDone();
    return batch_->margin(index_);
  }

  uint32_t index() const { return index_; }
  const RequestBatch& batch() const { return *batch_; }

 private:
  std::shared_ptr<RequestBatch> batch_;
  uint32_t index_ = 0;
};

// Counters the queue maintains (snapshot-readable while running).
struct AdmissionCounters {
  int64_t submitted = 0;       // rows accepted
  int64_t batches = 0;         // batches sealed
  int64_t full_seals = 0;      // sealed because the block filled
  int64_t deadline_seals = 0;  // sealed by the flush deadline
  int64_t forced_seals = 0;    // sealed by Flush()/shutdown drain
};

class AdmissionQueue {
 public:
  AdmissionQueue(uint32_t block_rows, uint32_t num_features);

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  uint32_t block_rows() const { return block_rows_; }
  uint32_t num_features() const { return num_features_; }

  // Copies `row` (num_features() floats) into the open batch, sealing it
  // inline if it fills. `callback`, when non-null, is fired by the server
  // after the batch completes (in global submission order); pass nullptr
  // to consume the result through the returned ticket instead.
  // Must not be called after Stop().
  ServeTicket Submit(const float* row, std::function<void(double)> callback);

  // Seals the open batch, if any, as a forced seal (Flush and the
  // shutdown drain).
  void SealOpen();

  // Dispatch side: takes the oldest sealed batch; with none sealed, seals
  // the open batch once its first row has waited `deadline_ns` (a
  // deadline seal) and takes it; otherwise sleeps until that deadline or
  // a notify. Returns false only after Stop() once the ready queue has
  // drained — every sealed batch is always handed to some worker.
  bool WaitPop(int64_t deadline_ns, std::shared_ptr<RequestBatch>* out);

  // Stops admission (further Submit calls are a programming error) and
  // wakes dispatch waiters so they can drain and exit. Does NOT seal the
  // open batch — callers SealOpen() first so no row is dropped.
  void Stop();

  AdmissionCounters GetCounters() const;

 private:
  const uint32_t block_rows_;
  const uint32_t num_features_;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::shared_ptr<RequestBatch> open_;
  std::deque<std::shared_ptr<RequestBatch>> ready_;  // in seal order
  uint64_t next_seq_ = 0;
  bool stopped_ = false;
  AdmissionCounters counters_;
};

}  // namespace harp
