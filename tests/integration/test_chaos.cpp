/// Tier-2 chaos battery: the full pipeline and the serving stack under
/// seeded, deterministic fault plans (fault/fault.hpp). Each case arms a
/// plan drawn from the failure taxonomy — peer death, generic errors,
/// stalls, torn checkpoint writes, worker crashes — and asserts the
/// robustness contract: no deadlock (bounded wall time), no lost or
/// duplicated reply, degraded runs carry a fault note, checkpoints
/// written before the failure restore deterministically. CI runs this
/// binary under several `ARTSCI_CHAOS_SEED` values and collects the
/// fault-site coverage artifact written when `ARTSCI_CHAOS_COVERAGE`
/// names a path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/net_server.hpp"

namespace artsci {
namespace {

struct ChaosCase {
  std::uint64_t seed;       ///< producer seed AND the case identity
  const char* spec;         ///< fault plan (fault::Plan::parseSpec grammar)
  bool expectDegraded;      ///< plan is fatal to the stream vs recoverable
};

/// Seeded plans spanning the taxonomy: a writer group peer death
/// mid-stream, a recoverable mix (torn checkpoint write + consumer
/// stall), a generic producer failure, a 2.5 s PIC stall during the
/// producer's warm-up — longer than the 2 s step deadline, which must
/// not start before the first streamed step is due — and an error on one
/// trainer rank, whose peer waits in the optimizer collective. train.step
/// fires on each of the 2 ranks at each of the nRep = 2 iterations of a
/// streamed step once the replay buffer is ready (from the 2nd streamed
/// step), so its 13th hit falls after the first checkpoint (3rd step).
const ChaosCase kCases[] = {
    {101, "sst.writer.end_step@4:die", true},
    {202, "ckpt.write@1:torn=128;sst.reader.begin_step@3:delay=20000",
     false},
    {303, "producer.step@6:error", true},
    {404, "pic.step@2:delay=2500000", false},
    {505, "train.step@13:error", true},
};

/// `ARTSCI_CHAOS_SEED` narrows the battery to one case (CI shards the
/// seeds across jobs); unset runs everything.
bool seedSelected(std::uint64_t seed) {
  const char* env = std::getenv("ARTSCI_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return true;
  return std::strtoull(env, nullptr, 10) == seed;
}

/// Site-hit tallies accumulated across cases for the coverage artifact.
std::map<std::string, std::uint64_t>& coverage() {
  static std::map<std::string, std::uint64_t> c;
  return c;
}

void recordCoverage() {
  for (const auto& [site, hits] : fault::Plan::global().siteHits())
    coverage()[site] += hits;
}

/// Small but real pipeline: ~8 streamed steps, 2 DDP ranks, checkpoints
/// every 3 steps, and a 2 s step deadline so a killed peer degrades the
/// run instead of wedging it.
core::PipelineConfig chaosPipelineConfig(std::uint64_t seed,
                                         const std::string& ckptDir) {
  auto cfg = core::PipelineConfig::quickDemo();
  cfg.producer.totalSteps = 16;
  cfg.producer.streamEvery = 2;
  cfg.producer.seed = seed;
  cfg.nRep = 2;
  cfg.queueLimit = 2;
  cfg.stepReportEvery = 0;
  cfg.streamStepTimeoutMicros = 2'000'000;
  cfg.checkpointDir = ckptDir;
  cfg.checkpointEvery = 3;
  return cfg;
}

void expectFiniteModel(const core::InTransitTrainer& t) {
  for (const auto& p : t.model(0).parameters())
    for (ml::Real v : p.data()) ASSERT_TRUE(std::isfinite(v));
}

TEST(Chaos, PipelineSurvivesSeededFaultPlans) {
  for (const ChaosCase& cse : kCases) {
    if (!seedSelected(cse.seed)) continue;
    SCOPED_TRACE(std::string("seed ") + std::to_string(cse.seed) +
                 " plan " + cse.spec);
    const std::string dir = ::testing::TempDir() + "artsci_chaos_" +
                            std::to_string(cse.seed);
    std::filesystem::remove_all(dir);
    auto& injected = obs::Registry::global().counter("fault.injected");
    const std::uint64_t injectedBefore = injected.value();

    const auto cfg = chaosPipelineConfig(cse.seed, dir);
    core::PipelineRun run;
    {
      fault::ScopedPlan plan(fault::Plan::parseSpec(cse.spec));
      const auto t0 = std::chrono::steady_clock::now();
      run = core::runPipeline(cfg);
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
      EXPECT_LT(secs, 120.0) << "chaos run must stay bounded (no deadlock)";
      EXPECT_GE(fault::Plan::global().injectedCount(), 1u)
          << "the plan must actually fire";
      recordCoverage();
    }
    EXPECT_GT(injected.value(), injectedBefore);

    const auto& res = run.result;
    EXPECT_EQ(res.degraded, cse.expectDegraded);
    if (res.degraded) {
      EXPECT_FALSE(res.faultNote.empty());
    }
    // Whatever was streamed before the failure has been trained on, and
    // the model is still numerically sound.
    EXPECT_GT(res.samplesReceived, 0u);
    expectFiniteModel(*run.trainer);

    if (res.checkpointsWritten > 0) {
      // Checkpoints that landed before the failure restore — and restore
      // deterministically: two independent loads are bit-identical.
      core::CheckpointManager mgr(dir, cfg.checkpointKeep);
      core::InTransitTrainer a(cfg.model, cfg.trainer);
      core::InTransitTrainer b(cfg.model, cfg.trainer);
      const auto metaA = mgr.loadLatest(a);
      const auto metaB = mgr.loadLatest(b);
      ASSERT_TRUE(metaA.has_value());
      ASSERT_TRUE(metaB.has_value());
      EXPECT_EQ(metaA->streamedSteps, metaB->streamedSteps);
      EXPECT_GE(metaA->streamedSteps, cfg.checkpointEvery);
      const auto pa = a.model(0).parameters();
      const auto pb = b.model(0).parameters();
      ASSERT_EQ(pa.size(), pb.size());
      for (std::size_t t = 0; t < pa.size(); ++t)
        EXPECT_EQ(pa[t].data(), pb[t].data()) << "tensor " << t;
    }
    std::filesystem::remove_all(dir);
  }
}

core::ArtificialScientistModel::Config chaosServeModelConfig() {
  core::ArtificialScientistModel::Config cfg;
  cfg.encoder.channels = {6, 8, 16};
  cfg.encoder.headHidden = 16;
  cfg.encoder.latentDim = 16;
  cfg.decoder.latentDim = 16;
  cfg.decoder.baseGrid = 2;
  cfg.decoder.channels = {8, 6};
  cfg.inn.dim = 16;
  cfg.inn.blocks = 2;
  cfg.inn.hidden = {12, 12};
  cfg.spectrumDim = 8;
  return cfg;
}

TEST(Chaos, ServeCrashStormEveryRequestAccountedFor) {
  if (!seedSelected(101) && !seedSelected(202) && !seedSelected(303))
    GTEST_SKIP() << "seed filter excludes the serve storm";
  auto registry = std::make_shared<serve::ModelRegistry>();
  {
    Rng rng(17);
    core::ArtificialScientistModel m(chaosServeModelConfig(), rng);
    registry->publish(core::cloneForInference(m));
  }
  serve::NetServerConfig cfg;
  cfg.shards = 2;
  cfg.policy.maxBatch = 4;
  serve::NetServer server(cfg, registry);

  // Two workers die mid-batch while two clients hammer the server with
  // retrying sequential round trips. Contract: every request ends in
  // exactly one outcome — a success or a typed error frame — within a
  // bounded wall; the dead workers restart in place and the full shard
  // set serves again.
  std::atomic<int> ok{0}, typedErrors{0};
  const int clients = 2, perClient = 12;
  {
    fault::ScopedPlan plan(fault::Plan::parseSpec(
        "serve.worker_batch@2:die;serve.worker_batch@6:die"));
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        serve::NetClientOptions opts;
        opts.recvTimeoutMillis = 10'000;
        opts.maxRetries = 2;
        opts.backoffBaseMillis = 1;
        opts.backoffMaxMillis = 8;
        opts.jitterSeed = 0x900 + static_cast<std::uint64_t>(c);
        serve::NetClient client("127.0.0.1", server.port(), opts);
        Rng rng(400 + static_cast<std::uint64_t>(c));
        std::vector<ml::Real> cloud(8 * 6);
        for (auto& v : cloud) v = rng.normal();
        for (int i = 0; i < perClient; ++i) {
          try {
            const serve::NetReply r = client.predictSpectrum(cloud);
            if (r.snapshotVersion == 1u && !r.values.empty()) ++ok;
          } catch (const serve::NetError&) {
            ++typedErrors;  // crashed batch — typed
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    EXPECT_LT(secs, 60.0) << "crash storm must stay bounded";
    EXPECT_GE(fault::Plan::global().injectedCount(), 1u);
    recordCoverage();
  }
  EXPECT_EQ(ok.load() + typedErrors.load(), clients * perClient)
      << "every request needs exactly one outcome";
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(typedErrors.load(), 1) << "the injected crashes must surface";

  // Counted before the crashed batch's replies left the server.
  EXPECT_GE(server.metrics().workerRestarts, 1u);

  // Recovered: a fresh round trip succeeds with the plan disarmed.
  serve::NetClient after("127.0.0.1", server.port());
  Rng rng(19);
  std::vector<ml::Real> cloud(8 * 6);
  for (auto& v : cloud) v = rng.normal();
  EXPECT_EQ(after.predictSpectrum(cloud).snapshotVersion, 1u);
}

/// Last in the file, so it sees every earlier case's tallies: dump the
/// fault-site coverage artifact CI archives.
TEST(Chaos, WriteCoverageArtifact) {
  const char* path = std::getenv("ARTSCI_CHAOS_COVERAGE");
  if (path == nullptr || *path == '\0')
    GTEST_SKIP() << "ARTSCI_CHAOS_COVERAGE not set";
  const char* seedEnv = std::getenv("ARTSCI_CHAOS_SEED");
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << "{\n  \"seed\": \"" << (seedEnv ? seedEnv : "all")
      << "\",\n  \"sites\": {";
  bool first = true;
  for (const auto& [site, hits] : coverage()) {
    out << (first ? "" : ",") << "\n    \"" << site << "\": " << hits;
    first = false;
  }
  out << "\n  },\n  \"registry\": "
      << obs::Registry::global().toJson() << "\n}\n";
}

}  // namespace
}  // namespace artsci
