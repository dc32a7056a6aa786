/// \file thread_pool.hpp
/// Rank teams and their barrier.
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
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace artsci {

/// Reusable cyclic barrier for SPMD teams.
class Barrier {
 public:
  explicit Barrier(std::size_t parties) : parties_(parties) {
    ARTSCI_EXPECTS(parties > 0);
  }

  /// Block until all parties arrive; reusable across generations. Once the
  /// barrier has failed, rethrows the failing party's exception instead.
  void arriveAndWait();

  /// Fail the barrier with `error`: every party waiting now and every later
  /// arrival rethrows it. A party that cannot reach its next arrival calls
  /// this, so that its peers do not wait for it forever.
  void fail(std::exception_ptr error);

 private:
  std::size_t parties_;
  std::size_t waiting_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;
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

}  // namespace artsci
