/// \file thread_pool.hpp
/// Rank teams and their barrier.
///
/// Two distinct parallel idioms appear in the paper's stack:
///  * data-parallel loops inside one "GPU" (we use OpenMP for those), and
///  * SPMD rank teams (PIConGPU MPI ranks, PyTorch DDP ranks) — modeled
///    here as RankTeam: N ranks running the same function with a rank id,
///    with the team's reusable barrier for collective phases.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
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

/// SPMD rank team, the one owner of the rank contract (PIC slabs and
/// trainer replicas alike): `run(fn)` runs `fn(rank)` on every rank at
/// once and returns when all have returned.
///  * One rank runs inline on the calling thread. More ranks run on
///    threads started once and kept as long as the team, so a thread's
///    OpenMP pool and trace ring carry over from one run to the next.
///  * Each rank thread forks OpenMP teams of max(1, caller's team /
///    size()), read on the caller at every run, so that the rank teams
///    together fit the caller's cores.
///  * Each rank thread claims trace rank r and the name "<label> r" as it
///    starts, and its OpenMP workers rank r and "<label> r omp t" at its
///    first run.
///  * A rank that throws fails barrier() before run() rethrows, releasing
///    the peers waiting on it; every later arrival rethrows the same error.
class RankTeam {
 public:
  explicit RankTeam(std::size_t ranks, std::string label = "rank");
  ~RankTeam();

  RankTeam(const RankTeam&) = delete;
  RankTeam& operator=(const RankTeam&) = delete;

  std::size_t size() const { return ranks_; }

  /// The team's cyclic barrier of size() parties, for the ranks' collective
  /// phases.
  Barrier& barrier() { return barrier_; }

  /// Run `fn(rank)` on every rank; rethrows the first exception after all
  /// ranks returned. One run at a time: the caller blocks until it ends.
  void run(const std::function<void(std::size_t)>& fn);

 private:
  void serve(std::size_t rank);

  const std::size_t ranks_;
  const std::string label_;
  Barrier barrier_;
  std::mutex mutex_;  ///< guards every member below but threads_
  std::condition_variable start_;
  std::condition_variable done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  int ompThreads_ = 1;            ///< each rank's OpenMP team, this run
  std::uint64_t generation_ = 0;  ///< bumped once per run
  std::size_t pending_ = 0;       ///< ranks still inside the current run
  std::exception_ptr error_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;  ///< last: its threads use the rest
};

/// Run `fn(rank)` on a team of `ranks` ranks made for this one call:
/// `RankTeam(ranks).run(fn)`.
void runRankTeam(std::size_t ranks, const std::function<void(std::size_t)>& fn);

}  // namespace artsci
