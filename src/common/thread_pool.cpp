#include "common/thread_pool.hpp"

#include <utility>

namespace artsci {

void Barrier::arriveAndWait() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (error_) std::rethrow_exception(error_);
  const std::uint64_t gen = generation_;
  if (++waiting_ == parties_) {
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] { return generation_ != gen || error_; });
  if (generation_ == gen) std::rethrow_exception(error_);
}

void Barrier::fail(std::exception_ptr error) {
  ARTSCI_EXPECTS(error != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::move(error);
  }
  cv_.notify_all();
}

RankTeam::RankTeam(std::size_t ranks) {
  ARTSCI_EXPECTS(ranks > 0);
  threads_.reserve(ranks);
  for (std::size_t r = 0; r < ranks; ++r)
    threads_.emplace_back([this, r] { serve(r); });
}

RankTeam::~RankTeam() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  start_.notify_all();
  for (auto& t : threads_) t.join();
}

void RankTeam::run(const std::function<void(std::size_t)>& fn) {
  std::unique_lock<std::mutex> lock(mutex_);
  ARTSCI_CHECK_MSG(job_ == nullptr, "RankTeam::run called during a run");
  job_ = &fn;
  pending_ = threads_.size();
  ++generation_;
  start_.notify_all();
  done_.wait(lock, [this] { return pending_ == 0; });
  job_ = nullptr;
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void RankTeam::serve(std::size_t rank) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    start_.wait(lock, [&] { return stopping_ || generation_ != seen; });
    if (stopping_) return;
    seen = generation_;
    const auto& fn = *job_;
    lock.unlock();
    std::exception_ptr error;
    try {
      fn(rank);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !error_) error_ = std::move(error);
    if (--pending_ == 0) done_.notify_one();
  }
}

void runRankTeam(std::size_t ranks,
                 const std::function<void(std::size_t)>& fn) {
  RankTeam(ranks).run(fn);
}

}  // namespace artsci
