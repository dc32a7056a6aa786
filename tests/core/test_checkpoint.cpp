/// Crash-consistent checkpoint/resume (core/checkpoint.hpp). The flagship
/// guarantee under test: a trainer restored from a checkpoint and driven
/// with the same sample stream produces *bit-identical* parameters to the
/// run that never stopped — across OpenMP thread counts, and across a
/// mid-write crash that falls back to the previous intact checkpoint.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/checkpoint.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"

namespace artsci::core {
namespace {

TrainerConfig smallTrainerCfg() {
  TrainerConfig cfg;
  cfg.ranks = 2;
  return cfg;
}

/// Index-keyed sample: the stream is a pure function of the index, so two
/// drives over the same index range feed byte-identical data.
Sample indexedSample(long index) {
  Rng rng(0x5a5aULL + static_cast<std::uint64_t>(index));
  Sample s;
  s.cloud.resize(64 * 6);
  for (auto& v : s.cloud) v = rng.uniform(-1, 1);
  s.spectrum.resize(32);
  for (auto& v : s.spectrum) v = 0.5 + 0.1 * rng.normal();
  s.region = static_cast<int>(index % 3);
  s.step = index;
  return s;
}

/// Push samples [from, from+count) and train after each, mirroring the
/// pipeline's push-then-train cadence.
void drive(InTransitTrainer& t, long from, long count,
           long itersPerPush = 2) {
  for (long i = from; i < from + count; ++i) {
    t.buffer().push(indexedSample(i));
    t.trainIterations(itersPerPush);
  }
}

std::vector<std::vector<ml::Real>> flatParams(const InTransitTrainer& t) {
  std::vector<std::vector<ml::Real>> out;
  for (const auto& p : t.model(0).parameters()) out.push_back(p.data());
  return out;
}

void expectBitIdentical(const std::vector<std::vector<ml::Real>>& a,
                        const std::vector<std::vector<ml::Real>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].size(), b[t].size()) << "tensor " << t;
    for (std::size_t i = 0; i < a[t].size(); ++i)
      ASSERT_EQ(a[t][i], b[t][i]) << "tensor " << t << " value " << i;
  }
}

/// Checkpoint at step 8, continue to step 12 in run A; restore a fresh
/// trainer from the file and replay the same continuation; demand
/// bit-identical parameters. Each rank's OpenMP team is pinned to
/// `threads` (the caller's team, divided among the ranks), proving the
/// guarantee holds for serial and parallel kernels alike.
void expectBitIdenticalResume(int threads) {
  const auto mcfg = ArtificialScientistModel::Config::reduced();
  const auto tcfg = smallTrainerCfg();
#ifdef _OPENMP
  omp_set_num_threads(threads * static_cast<int>(tcfg.ranks));
#else
  if (threads > 1) GTEST_SKIP() << "built without OpenMP";
#endif
  const std::string path = ::testing::TempDir() + "artsci_resume_t" +
                           std::to_string(threads) + ".artsci";

  InTransitTrainer a(mcfg, tcfg);
  drive(a, 0, 8);
  CheckpointMeta meta;
  meta.streamedSteps = 8;
  meta.trainerIterations = a.stats().iterations;
  savePipelineCheckpoint(path, a, meta);
  drive(a, 8, 4);
  const auto wantParams = flatParams(a);

  InTransitTrainer b(mcfg, tcfg);
  const CheckpointMeta got = loadPipelineCheckpoint(path, b);
  EXPECT_EQ(got.streamedSteps, meta.streamedSteps);
  EXPECT_EQ(got.trainerIterations, meta.trainerIterations);
  EXPECT_EQ(b.stats().iterations, meta.trainerIterations);
  drive(b, 8, 4);
  expectBitIdentical(wantParams, flatParams(b));

  std::remove(path.c_str());
#ifdef _OPENMP
  omp_set_num_threads(omp_get_num_procs());
#endif
}

TEST(Checkpoint, ResumeIsBitIdenticalOneThread) {
  expectBitIdenticalResume(1);
}

TEST(Checkpoint, ResumeIsBitIdenticalTwoThreads) {
  expectBitIdenticalResume(2);
}

TEST(Checkpoint, ResumeIsBitIdenticalEightThreads) {
  expectBitIdenticalResume(8);
}

TEST(Checkpoint, MidWriteCrashFallsBackToPreviousIntactCheckpoint) {
  const std::string dir = ::testing::TempDir() + "artsci_ckpt_torn";
  std::filesystem::remove_all(dir);
  const auto mcfg = ArtificialScientistModel::Config::reduced();
  const auto tcfg = smallTrainerCfg();

  InTransitTrainer a(mcfg, tcfg);
  CheckpointManager mgr(dir, /*keep=*/2);
  drive(a, 0, 6);
  const long itersAtFirst = a.stats().iterations;
  mgr.save(a, {6, itersAtFirst});
  const auto paramsAtFirst = flatParams(a);

  drive(a, 6, 3);
  const auto paramsContinued = flatParams(a);
  {
    // The second checkpoint is torn mid-write: the process "crashes"
    // after 256 bytes hit the tmp file, before the rename.
    fault::ScopedPlan plan(fault::Plan::parseSpec("ckpt.write@1:torn=256"));
    EXPECT_THROW(mgr.save(a, {9, a.stats().iterations}),
                 fault::FaultInjectedError);
  }
  // The torn write never renamed, so only the intact checkpoint is
  // visible — the stale .tmp artifact is not a checkpoint.
  ASSERT_EQ(mgr.list().size(), 1u);

  InTransitTrainer b(mcfg, tcfg);
  const auto meta = mgr.loadLatest(b);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->streamedSteps, 6);
  EXPECT_EQ(meta->trainerIterations, itersAtFirst);
  expectBitIdentical(paramsAtFirst, flatParams(b));

  // Resuming from the fallback replays A's continuation bit-for-bit.
  drive(b, 6, 3);
  expectBitIdentical(paramsContinued, flatParams(b));

  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, CorruptNewestFallsBackToOlderAndCountsIt) {
  const std::string dir = ::testing::TempDir() + "artsci_ckpt_corrupt";
  std::filesystem::remove_all(dir);
  const auto mcfg = ArtificialScientistModel::Config::reduced();
  const auto tcfg = smallTrainerCfg();

  InTransitTrainer a(mcfg, tcfg);
  CheckpointManager mgr(dir, 2);
  drive(a, 0, 6);
  mgr.save(a, {6, a.stats().iterations});
  drive(a, 6, 2);
  mgr.save(a, {8, a.stats().iterations});
  auto paths = mgr.list();
  ASSERT_EQ(paths.size(), 2u);

  // Flip one byte in the middle of the newest file (bit rot / partial
  // overwrite): its CRC no longer matches.
  {
    std::fstream f(paths[0],
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(512);
    char byte = 0;
    f.seekg(512);
    f.get(byte);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(512);
    f.put(byte);
  }

  auto& fallbacks = obs::Registry::global().counter("ckpt.load_fallbacks");
  const std::uint64_t before = fallbacks.value();
  InTransitTrainer b(mcfg, tcfg);
  const auto meta = mgr.loadLatest(b);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->streamedSteps, 6);  // newest (step 8) skipped
  EXPECT_EQ(fallbacks.value(), before + 1);

  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, ManagerRotationKeepsTheNewest) {
  const std::string dir = ::testing::TempDir() + "artsci_ckpt_rotate";
  std::filesystem::remove_all(dir);
  const auto mcfg = ArtificialScientistModel::Config::reduced();
  TrainerConfig tcfg;
  tcfg.ranks = 1;
  InTransitTrainer a(mcfg, tcfg);
  drive(a, 0, 5, /*itersPerPush=*/1);

  auto& saved = obs::Registry::global().counter("ckpt.saved");
  const std::uint64_t before = saved.value();
  CheckpointManager mgr(dir, 2);
  mgr.save(a, {2, a.stats().iterations});
  mgr.save(a, {4, a.stats().iterations});
  mgr.save(a, {6, a.stats().iterations});
  EXPECT_EQ(saved.value(), before + 3);

  const auto paths = mgr.list();
  ASSERT_EQ(paths.size(), 2u);  // keep=2 pruned the oldest
  EXPECT_NE(paths[0].find("ckpt-6"), std::string::npos);
  EXPECT_NE(paths[1].find("ckpt-4"), std::string::npos);

  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, ListSkipsANameWhoseStepCountOverflows) {
  // A digit run too long for a long names no checkpoint: list() must
  // neither overflow on it nor rank the real checkpoints against it.
  const std::string dir = ::testing::TempDir() + "artsci_ckpt_overflow";
  std::filesystem::remove_all(dir);
  TrainerConfig tcfg;
  tcfg.ranks = 1;
  InTransitTrainer a(ArtificialScientistModel::Config::reduced(), tcfg);
  CheckpointManager mgr(dir, 2);
  mgr.save(a, {2, 0});
  mgr.save(a, {4, 0});
  std::ofstream(dir + "/ckpt-99999999999999999999.artsci") << "x";

  const auto paths = mgr.list();
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_NE(paths[0].find("ckpt-4"), std::string::npos);
  EXPECT_NE(paths[1].find("ckpt-2"), std::string::npos);

  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, LoadLatestOnEmptyDirectoryIsEmpty) {
  const std::string dir = ::testing::TempDir() + "artsci_ckpt_empty";
  std::filesystem::remove_all(dir);
  CheckpointManager mgr(dir);
  TrainerConfig tcfg;
  tcfg.ranks = 1;
  InTransitTrainer t(ArtificialScientistModel::Config::reduced(), tcfg);
  EXPECT_FALSE(mgr.loadLatest(t).has_value());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace artsci::core
