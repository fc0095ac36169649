#include "serve/admission_queue.h"

#include "common/logging.h"
#include "common/timer.h"

namespace harp {

RequestBatch::RequestBatch(uint64_t seq, uint32_t capacity,
                           uint32_t num_features)
    : seq_(seq), capacity_(capacity), num_features_(num_features) {}

void RequestBatch::MarkDone() {
  if (done_ns == 0) done_ns = NowNs();  // server stamps it pre-accounting
  {
    // The lock pairs with the one in WaitDone: a waiter that misses the
    // atomic fast path cannot park between its predicate check and the
    // notify.
    std::lock_guard<std::mutex> lock(done_mutex_);
    done_.store(true, std::memory_order_release);
  }
  done_cv_.notify_all();
}

void RequestBatch::WaitDone() {
  if (done_.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lock(done_mutex_);
  done_cv_.wait(lock,
                [&] { return done_.load(std::memory_order_acquire); });
}

AdmissionQueue::AdmissionQueue(uint32_t block_rows, uint32_t num_features)
    : block_rows_(block_rows), num_features_(num_features) {
  HARP_CHECK_GE(block_rows_, 1u);
  HARP_CHECK_GE(num_features_, 1u);
}

ServeTicket AdmissionQueue::Submit(const float* row,
                                   std::function<void(double)> callback) {
  const int64_t now = NowNs();
  ServeTicket ticket;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    HARP_CHECK(!stopped_) << "Submit after Stop";
    if (open_ == nullptr) {
      open_ = std::make_shared<RequestBatch>(next_seq_++, block_rows_,
                                             num_features_);
      wake = true;  // an idle worker takes it at once
    }
    RequestBatch& batch = *open_;
    const uint32_t slot = batch.size_++;
    batch.rows_.insert(batch.rows_.end(), row, row + num_features_);
    batch.submit_ns_.push_back(now);
    if (callback) {
      batch.callbacks_.resize(slot + 1);
      batch.callbacks_[slot] = std::move(callback);
    }
    ticket = ServeTicket(open_, slot);
    ++counters_.submitted;
    if (batch.size_ == batch.capacity_) {
      ready_.push_back(std::move(open_));
      ++counters_.full_seals;
      ++counters_.batches;
      wake = true;
    }
  }
  if (wake) wake_.notify_one();
  return ticket;
}

void AdmissionQueue::SealOpen() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (open_ == nullptr) return;
    ready_.push_back(std::move(open_));
    ++counters_.forced_seals;
    ++counters_.batches;
  }
  wake_.notify_one();
}

bool AdmissionQueue::WaitPop(std::shared_ptr<RequestBatch>* out) {
  std::unique_lock<std::mutex> lock(mutex_);
  wake_.wait(lock,
             [&] { return !ready_.empty() || open_ != nullptr || stopped_; });
  if (!ready_.empty()) {
    *out = std::move(ready_.front());
    ready_.pop_front();
  } else if (open_ != nullptr) {
    *out = std::move(open_);
    (*out)->idle_seal = true;
    ++counters_.deadline_seals;
    ++counters_.batches;
  } else {
    return false;  // stopped and drained
  }
  lock.unlock();
  RequestBatch& batch = **out;
  batch.margins_ = std::make_unique_for_overwrite<double[]>(batch.size_);
  batch.dispatch_ns = NowNs();
  return true;
}

void AdmissionQueue::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    HARP_CHECK(open_ == nullptr) << "Stop with unsealed rows; SealOpen first";
    stopped_ = true;
  }
  wake_.notify_all();
}

AdmissionCounters AdmissionQueue::GetCounters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace harp
