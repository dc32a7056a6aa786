#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

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

TEST(RankTeam, OneRankRunsOnTheCallingThread) {
  RankTeam team(1);
  EXPECT_EQ(team.size(), 1u);
  std::thread::id ran;
  team.run([&](std::size_t rank) {
    EXPECT_EQ(rank, 0u);
    ran = std::this_thread::get_id();
  });
  EXPECT_EQ(ran, std::this_thread::get_id());
}

TEST(RankTeam, EachRankForksItsShareOfTheCallersOpenMPTeam) {
#ifndef _OPENMP
  GTEST_SKIP() << "built without OpenMP";
#else
  const int saved = omp_get_max_threads();
  for (const std::size_t ranks : {1u, 2u, 3u, 4u}) {
    RankTeam team(ranks);
    // Read on the caller at every run, not once at construction.
    for (const int caller : {1, 4}) {
      omp_set_num_threads(caller);
      std::vector<int> got(ranks, 0);
      team.run([&](std::size_t r) { got[r] = omp_get_max_threads(); });
      const int want = std::max(1, caller / static_cast<int>(ranks));
      EXPECT_EQ(got, std::vector<int>(ranks, want))
          << ranks << " ranks, caller team " << caller;
    }
  }
  omp_set_num_threads(saved);
#endif
}

TEST(RankTeam, ThrowingRankFailsTheTeamsBarrier) {
  // The last rank throws instead of arriving: its peers, waiting on the
  // team's barrier (or arriving after the throw), are released with its
  // error, run() rethrows it, and so does a later run that reaches the
  // barrier — at one rank as at three.
  for (const std::size_t ranks : {1u, 3u}) {
    const std::size_t thrower = ranks - 1;
    RankTeam team(ranks);
    std::atomic<std::size_t> released{0};
    try {
      team.run([&](std::size_t rank) {
        if (rank == thrower)
          throw std::runtime_error("rank " + std::to_string(rank));
        try {
          team.barrier().arriveAndWait();
        } catch (const std::runtime_error& e) {
          if (e.what() == "rank " + std::to_string(thrower)) released++;
          throw;
        }
      });
      ADD_FAILURE() << ranks << " ranks: run() did not rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), "rank " + std::to_string(thrower));
    }
    EXPECT_EQ(released.load(), ranks - 1);
    EXPECT_THROW(team.run([&](std::size_t) { team.barrier().arriveAndWait(); }),
                 std::runtime_error)
        << ranks << " ranks";
  }
}

TEST(RankTeam, LabelsEachRankThreadAndItsOpenMPWorkers) {
  // Rank r's thread and, from its first run on, its OpenMP workers claim
  // trace rank r, which the flushed trace writes as the Chrome "process"
  // (pid) of each.
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(4);  // two threads per rank
#endif
  {
    RankTeam team(2, "labelled team");
    team.run([](std::size_t) {});
  }
  std::ostringstream json;
  obs::TraceRecorder::instance().writeJson(json);
  // One metadata event per line: {"ph": "M", "name": "thread_name",
  // "pid": <rank>, "tid": <n>, "args": {"name": "<label>"}}.
  const auto labelled = [&](int pid, const std::string& name) {
    std::istringstream lines(json.str());
    for (std::string line; std::getline(lines, line);) {
      if (line.find("\"thread_name\", \"pid\": " + std::to_string(pid) +
                    ",") != std::string::npos &&
          line.find("{\"name\": \"" + name + "\"}") != std::string::npos)
        return true;
    }
    return false;
  };
  for (int rank : {0, 1}) {
    const std::string name = "labelled team " + std::to_string(rank);
    EXPECT_TRUE(labelled(rank, name)) << name;
#ifdef _OPENMP
    EXPECT_TRUE(labelled(rank, name + " omp 1")) << name << " omp 1";
#endif
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

}  // namespace
}  // namespace artsci
