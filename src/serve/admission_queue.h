// Admission queue: coalesces concurrent single-row Submit() calls into
// Predictor-sized row blocks.
//
// The flat Predictor amortizes its costs (tree-group planning, cache-
// resident node walks, interleaved lanes) over blocks of kRowBlock rows;
// serving traffic arrives one row at a time. The queue bridges the two:
// submitters copy their row into the currently open batch under the
// queue mutex, and a batch is sealed — handed to the dispatch side —
// when it fills (inline, on the submitting thread) or as soon as a worker
// is free: WaitPop() takes the open batch at once when nothing sealed is
// waiting (an idle seal). So a lone request never waits for company, and
// rows batch only while every worker is busy: they pile up in the open
// batch and the next worker back takes them all (Clipper's adaptive
// batching). There is no timer and no knob.
//
//   Submit ─► open batch ─┬─ fills (inline) ───────────► ready deque ─► WaitPop
//                         ├─ SealOpen (Flush/Shutdown) ─► ready deque
//                         └─ a worker is idle ───────────────────────► WaitPop
//
// One mutex and one condition variable guard both the open batch and the
// ready deque; a submit notifies when it opens or fills a batch, and an
// idle worker with nothing to take parks in an untimed wait.
//
// A batch is sized to the rows it admitted, never to block_rows: a submit
// appends its row and timestamp, and WaitPop allocates size() margins
// uninitialized for the worker to fill. Most batches hold one row, and
// zeroing block_rows x width floats for each (2 MB at 2000 features,
// under the lock) would cost more than serving it.
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
  const float* rows() const { return rows_.data(); }
  // size() slots, allocated by WaitPop and uninitialized until written.
  double* margins() { return margins_.get(); }
  double margin(uint32_t i) const { return margins_[i]; }
  int64_t submit_ns(uint32_t i) const { return submit_ns_[i]; }

  // Timeline + provenance, written by the pipeline stages.
  int64_t dispatch_ns = 0;      // worker: popped for processing
  int64_t done_ns = 0;          // worker: margins complete
  bool idle_seal = false;       // taken by an idle worker before it filled
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

  // Appended to row by row, so a batch holds only the rows it admitted.
  std::vector<float> rows_;
  std::vector<int64_t> submit_ns_;
  std::unique_ptr<double[]> margins_;
  // Grown to each callback row's slot as it is admitted (ticket-only
  // traffic never touches it); empty entries are ticket rows.
  std::vector<std::function<void(double)>> callbacks_;

  std::atomic<bool> done_{false};
  std::mutex done_mutex_;
  std::condition_variable done_cv_;

 public:
  // One entry per row up to the last callback row; empty = ticket row.
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
  int64_t deadline_seals = 0;  // taken by an idle worker before it filled
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

  // Dispatch side: takes the oldest sealed batch; with none sealed, takes
  // the open batch at once (an idle seal, counted in deadline_seals);
  // with nothing open, parks until a submit or Stop() notifies. Returns
  // false only after Stop() once the ready queue has drained — every
  // sealed batch is always handed to some worker.
  bool WaitPop(std::shared_ptr<RequestBatch>* out);

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
