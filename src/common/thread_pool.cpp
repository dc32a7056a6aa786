#include "common/thread_pool.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"

namespace artsci {
namespace {

/// Claim `rank` and "<name> omp t" for each OpenMP worker of the calling
/// thread. Called at a rank thread's first run, not at construction: the
/// region starts the thread's libgomp pool, whose idle workers spin
/// against the caller's own work, and that pool serves every later
/// parallel region of the thread.
void labelOpenMPWorkers(int rank, const std::string& name) {
#ifdef _OPENMP
#pragma omp parallel
  if (omp_get_thread_num() != 0) {
    auto& rec = obs::TraceRecorder::instance();
    rec.setThreadRank(rank);
    rec.setThreadName(name + " omp " + std::to_string(omp_get_thread_num()));
  }
#else
  (void)rank;
  (void)name;
#endif
}

}  // namespace

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

RankTeam::RankTeam(std::size_t ranks, std::string label)
    : ranks_(ranks), label_(std::move(label)), barrier_(ranks) {
  if (ranks == 1) return;
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
  if (threads_.empty()) {
    try {
      fn(0);
    } catch (...) {
      barrier_.fail(std::current_exception());
      throw;
    }
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  ARTSCI_CHECK_MSG(job_ == nullptr, "RankTeam::run called during a run");
  job_ = &fn;
#ifdef _OPENMP
  // libgomp ICVs do not propagate to other threads: the share is read
  // here, where the caller's setting is visible, and each rank sets it.
  ompThreads_ = std::max(1, omp_get_max_threads() / static_cast<int>(ranks_));
#endif
  pending_ = ranks_;
  ++generation_;
  start_.notify_all();
  done_.wait(lock, [this] { return pending_ == 0; });
  job_ = nullptr;
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void RankTeam::serve(std::size_t rank) {
  const std::string name = label_ + " " + std::to_string(rank);
  auto& rec = obs::TraceRecorder::instance();
  rec.setThreadRank(static_cast<int>(rank));
  rec.setThreadName(name);
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    start_.wait(lock, [&] { return stopping_ || generation_ != seen; });
    if (stopping_) return;
    const bool firstRun = seen == 0;
    seen = generation_;
    const auto& fn = *job_;
#ifdef _OPENMP
    omp_set_num_threads(ompThreads_);
#endif
    lock.unlock();
    if (firstRun) labelOpenMPWorkers(static_cast<int>(rank), name);
    std::exception_ptr error;
    try {
      fn(rank);
    } catch (...) {
      // Release the peers waiting for this rank before the run ends.
      error = std::current_exception();
      barrier_.fail(error);
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
