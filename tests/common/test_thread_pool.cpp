#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.hpp"

namespace artsci {
namespace {

TEST(Barrier, SynchronizesPhases) {
  constexpr std::size_t kRanks = 8;
  Barrier barrier(kRanks);
  std::vector<int> phase(kRanks, 0);
  std::atomic<bool> mismatch{false};
  runRankTeam(kRanks, [&](std::size_t rank) {
    for (int p = 0; p < 50; ++p) {
      phase[rank] = p;
      barrier.arriveAndWait();
      // After the barrier every rank must be in the same phase.
      for (std::size_t r = 0; r < kRanks; ++r) {
        if (phase[r] != p) mismatch = true;
      }
      barrier.arriveAndWait();
    }
  });
  EXPECT_FALSE(mismatch.load());
}

TEST(Barrier, FailReleasesWaitingAndLaterParties) {
  // Rank 3 fails instead of arriving: the ranks already waiting and every
  // later arrival rethrow its exception, and the team rethrows it too.
  constexpr std::size_t kRanks = 4;
  Barrier barrier(kRanks);
  std::atomic<int> released{0};
  EXPECT_THROW(runRankTeam(kRanks,
                           [&](std::size_t rank) {
                             try {
                               if (rank == 3)
                                 throw std::runtime_error("rank 3");
                               barrier.arriveAndWait();
                             } catch (const std::runtime_error&) {
                               if (rank != 3) released++;
                               barrier.fail(std::current_exception());
                               throw;
                             }
                           }),
               std::runtime_error);
  EXPECT_EQ(released.load(), 3);
  EXPECT_THROW(barrier.arriveAndWait(), std::runtime_error);
}

TEST(RankTeam, EveryRankRunsExactlyOnce) {
  std::vector<std::atomic<int>> hits(16);
  runRankTeam(16, [&](std::size_t r) { hits[r]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RankTeam, RethrowsWorkerException) {
  EXPECT_THROW(runRankTeam(4,
                           [](std::size_t r) {
                             if (r == 2) throw std::runtime_error("rank 2");
                           }),
               std::runtime_error);
}

TEST(RankTeam, KeepsItsThreadsAcrossRuns) {
  constexpr std::size_t kRanks = 4;
  RankTeam team(kRanks);
  EXPECT_EQ(team.size(), kRanks);
  std::vector<std::thread::id> first(kRanks), later(kRanks);
  team.run([&](std::size_t r) { first[r] = std::this_thread::get_id(); });
  const std::set<std::thread::id> distinct(first.begin(), first.end());
  EXPECT_EQ(distinct.size(), kRanks);
  EXPECT_EQ(distinct.count(std::this_thread::get_id()), 0u);
  for (int run = 0; run < 20; ++run) {
    team.run([&](std::size_t r) { later[r] = std::this_thread::get_id(); });
    EXPECT_EQ(later, first) << "run " << run;
  }
}

TEST(RankTeam, RunsEveryRankOncePerRun) {
  constexpr std::size_t kRanks = 8;
  RankTeam team(kRanks);
  std::vector<std::atomic<int>> hits(kRanks);
  for (int run = 0; run < 100; ++run)
    team.run([&](std::size_t r) { hits[r]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 100);
}

TEST(RankTeam, RanksRunConcurrently) {
  // The barrier opens only once every rank is inside the same run.
  constexpr std::size_t kRanks = 4;
  RankTeam team(kRanks);
  Barrier barrier(kRanks);
  for (int run = 0; run < 10; ++run)
    team.run([&](std::size_t) { barrier.arriveAndWait(); });
}

TEST(RankTeam, RethrowsAndStaysUsable) {
  RankTeam team(4);
  EXPECT_THROW(team.run([](std::size_t r) {
                 if (r == 2) throw std::runtime_error("rank 2");
               }),
               std::runtime_error);
  std::atomic<int> hits{0};
  team.run([&](std::size_t) { hits++; });
  EXPECT_EQ(hits.load(), 4);
}

}  // namespace
}  // namespace artsci
