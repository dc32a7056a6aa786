#include "common/thread_pool.hpp"

#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

namespace artsci {

ThreadPool::ThreadPool(std::size_t threads) {
  ARTSCI_EXPECTS(threads > 0);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] {
      for (;;) {
        std::function<void()> task;
        {
          std::unique_lock<std::mutex> lock(mutex_);
          cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
          if (stopping_ && tasks_.empty()) return;
          task = std::move(tasks_.front());
          tasks_.pop();
        }
        task();
      }
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void Barrier::arriveAndWait() {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t gen = generation_;
  if (++waiting_ == parties_) {
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] { return generation_ != gen; });
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

bool pinThisThreadToCpuSlot(std::size_t slot) {
#ifdef __linux__
  // Enumerate the CPUs this process is allowed on (respects taskset and
  // container cpusets), then pin to the slot-th one round-robin.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  const int nAllowed = CPU_COUNT(&allowed);
  if (nAllowed <= 0) return false;
  int want = static_cast<int>(slot % static_cast<std::size_t>(nAllowed));
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed) && want-- == 0) {
      cpu = c;
      break;
    }
  }
  if (cpu < 0) return false;
  cpu_set_t target;
  CPU_ZERO(&target);
  CPU_SET(cpu, &target);
  return sched_setaffinity(0, sizeof(target), &target) == 0;
#else
  (void)slot;
  return false;
#endif
}

}  // namespace artsci
