#include "serve/batcher.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace artsci::serve {

MicroBatcher::MicroBatcher(BatchPolicy policy) : policy_(policy) {
  ARTSCI_EXPECTS(policy.maxBatch >= 1);
  ARTSCI_EXPECTS(policy.maxQueueDepth >= 1);
}

bool MicroBatcher::enqueue(PendingRequest& r) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || queue_.size() >= policy_.maxQueueDepth) return false;
    r.enqueuedAt = std::chrono::steady_clock::now();
    queue_.push_back(std::move(r));
  }
  cv_.notify_one();
  return true;
}

std::vector<PendingRequest> MicroBatcher::nextBatch(
    std::vector<PendingRequest>* expired) {
  // Spans cover the idle wait too: gaps between batches show up as long
  // next_batch spans in the trace, which is exactly the signal wanted.
  TRACE_SCOPE("serve", "next_batch");
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
  // Sweep expired requests out before forming a batch: a request whose
  // deadline passed while queued must not consume batch slots or engine
  // time — its client has already given up on the answer.
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < queue_.size();) {
    if (queue_[i].deadline <= now) {
      ARTSCI_CHECK_MSG(expired != nullptr,
                       "deadline-carrying request in a batcher polled "
                       "without an expired sink");
      expired->push_back(std::move(queue_[i]));
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  // Hand expired requests back immediately (even with a batch ready): the
  // worker fails their promises and calls again, so timeout responses
  // never wait out a batch execution.
  if (expired != nullptr && !expired->empty()) return {};
  if (queue_.empty()) return {};

  // Pop the head and every request compatible with it (up to maxBatch),
  // preserving queue order for both the batch and the remainder. Key
  // captured up front: the head itself is moved on iteration one.
  const Endpoint keyEndpoint = queue_.front().endpoint;
  const std::size_t keySize = queue_.front().input.size();
  std::vector<PendingRequest> batch;
  batch.reserve(std::min(queue_.size(),
                         static_cast<std::size_t>(policy_.maxBatch)));
  std::deque<PendingRequest> rest;
  for (auto& r : queue_) {
    if (static_cast<long>(batch.size()) < policy_.maxBatch &&
        r.endpoint == keyEndpoint && r.input.size() == keySize) {
      batch.push_back(std::move(r));
    } else {
      rest.push_back(std::move(r));
    }
  }
  queue_.swap(rest);
  return batch;
}

void MicroBatcher::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
}

std::size_t MicroBatcher::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

bool MicroBatcher::stopped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stopping_;
}

}  // namespace artsci::serve
