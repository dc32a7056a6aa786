/// \file thread_pool.hpp
/// A fixed-size thread pool plus a rank-team abstraction.
///
/// Two distinct parallel idioms appear in the paper's stack:
///  * data-parallel loops inside one "GPU" (we use OpenMP for those), and
///  * SPMD rank teams (PIConGPU MPI ranks, PyTorch DDP ranks) — modeled
///    here as RankTeam: N threads running the same function with a rank id,
///    with a reusable barrier for collective phases.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace artsci {

/// Fixed-size FIFO thread pool.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; returns a future for its result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ARTSCI_CHECK_MSG(!stopping_, "submit() on stopped ThreadPool");
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  std::size_t size() const { return workers_.size(); }

 private:
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Reusable cyclic barrier for SPMD teams.
class Barrier {
 public:
  explicit Barrier(std::size_t parties) : parties_(parties) {
    ARTSCI_EXPECTS(parties > 0);
  }

  /// Block until all parties arrive; reusable across generations.
  void arriveAndWait();

 private:
  std::size_t parties_;
  std::size_t waiting_ = 0;
  std::uint64_t generation_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// SPMD rank team whose threads start once and live as long as the team.
/// `run(fn)` runs `fn(rank)` on every rank thread at once and returns when
/// all have returned, so a thread's state (its OpenMP pool, its trace
/// ring and label) carries over from one run to the next.
class RankTeam {
 public:
  explicit RankTeam(std::size_t ranks);
  ~RankTeam();

  RankTeam(const RankTeam&) = delete;
  RankTeam& operator=(const RankTeam&) = delete;

  std::size_t size() const { return threads_.size(); }

  /// Run `fn(rank)` on every rank; rethrows the first exception after all
  /// ranks returned. One run at a time: the caller blocks until it ends.
  void run(const std::function<void(std::size_t)>& fn);

 private:
  void serve(std::size_t rank);

  std::mutex mutex_;  ///< guards every member below but threads_
  std::condition_variable start_;
  std::condition_variable done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::uint64_t generation_ = 0;  ///< bumped once per run
  std::size_t pending_ = 0;       ///< ranks still inside the current run
  std::exception_ptr error_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;  ///< last: its threads use the rest
};

/// Run `fn(rank)` on a team of `ranks` threads made for this one call:
/// `RankTeam(ranks).run(fn)`.
void runRankTeam(std::size_t ranks, const std::function<void(std::size_t)>& fn);

/// Pin the calling thread to one CPU of its allowed set: `slot` indexes
/// round-robin into the CPUs the process may run on (cgroup/taskset aware),
/// so slot 0..N-1 spreads N serving workers across distinct cores when the
/// machine has them and degrades to sharing when it doesn't. No-op (returns
/// false) on platforms without sched_setaffinity.
bool pinThisThreadToCpuSlot(std::size_t slot);

}  // namespace artsci
