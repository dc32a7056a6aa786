/// Unit tests for the serving subsystem: micro-batch formation semantics,
/// registry versioning, fused-engine parity with the autograd graph, and
/// server request/response behavior including graceful shutdown.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "core/model.hpp"
#include "fault/fault.hpp"
#include "ml/serialize.hpp"
#include "serve/server.hpp"

namespace artsci::serve {
namespace {

using core::ArtificialScientistModel;

/// CPU-milliseconds model: every dimension shrunk far below reduced().
ArtificialScientistModel::Config tinyConfig() {
  ArtificialScientistModel::Config cfg;
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

std::shared_ptr<const ArtificialScientistModel> tinyModel(
    std::uint64_t seed = 11) {
  Rng rng(seed);
  ArtificialScientistModel m(tinyConfig(), rng);
  return core::cloneForInference(m);
}

std::vector<ml::Real> randomCloud(long points, Rng& rng) {
  std::vector<ml::Real> c(static_cast<std::size_t>(points * 6));
  for (auto& v : c) v = rng.normal();
  return c;
}

PendingRequest makeRequest(Endpoint ep, std::size_t elements, double tag) {
  PendingRequest r;
  r.endpoint = ep;
  r.input.assign(elements, tag);
  return r;
}

// --- MicroBatcher ---------------------------------------------------------

TEST(MicroBatcher, CoalescesUpToMaxBatch) {
  MicroBatcher b({.maxBatch = 4, .maxQueueDepth = 64});
  for (int i = 0; i < 6; ++i) {
    auto r = makeRequest(Endpoint::kPredictSpectrum, 12, i);
    ASSERT_TRUE(b.enqueue(r));
  }
  auto batch = b.nextBatch();
  ASSERT_EQ(batch.size(), 4u);  // capped at maxBatch
  for (int i = 0; i < 4; ++i) EXPECT_EQ(batch[i].input[0], i);  // FIFO
  EXPECT_EQ(b.depth(), 2u);
}

TEST(MicroBatcher, PartialBatchLeavesWithoutWaiting) {
  // Work-conserving: a worker that asks for work takes what is queued
  // now instead of holding a partial batch for more requests to arrive.
  MicroBatcher b({.maxBatch = 32, .maxQueueDepth = 64});
  auto r0 = makeRequest(Endpoint::kPredictSpectrum, 12, 0);
  auto r1 = makeRequest(Endpoint::kPredictSpectrum, 12, 1);
  ASSERT_TRUE(b.enqueue(r0));
  ASSERT_TRUE(b.enqueue(r1));
  const auto t0 = std::chrono::steady_clock::now();
  auto batch = b.nextBatch();
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(b.depth(), 0u);
  EXPECT_LT(waited, std::chrono::milliseconds(50));
}

TEST(MicroBatcher, BatchesOnlyCompatibleRequests) {
  // predict, invert, predict: head-of-line defines the batch key, so the
  // two predicts coalesce and the invert forms its own later batch.
  MicroBatcher b({.maxBatch = 8, .maxQueueDepth = 64});
  auto p0 = makeRequest(Endpoint::kPredictSpectrum, 12, 0);
  auto iv = makeRequest(Endpoint::kInvertSpectrum, 8, 1);
  auto p1 = makeRequest(Endpoint::kPredictSpectrum, 12, 2);
  ASSERT_TRUE(b.enqueue(p0));
  ASSERT_TRUE(b.enqueue(iv));
  ASSERT_TRUE(b.enqueue(p1));
  auto first = b.nextBatch();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].endpoint, Endpoint::kPredictSpectrum);
  EXPECT_EQ(first[0].input[0], 0);
  EXPECT_EQ(first[1].input[0], 2);
  auto second = b.nextBatch();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].endpoint, Endpoint::kInvertSpectrum);
}

TEST(MicroBatcher, DifferentCloudSizesDoNotMix) {
  MicroBatcher b({.maxBatch = 8, .maxQueueDepth = 64});
  auto small = makeRequest(Endpoint::kPredictSpectrum, 12, 0);
  auto large = makeRequest(Endpoint::kPredictSpectrum, 24, 1);
  ASSERT_TRUE(b.enqueue(small));
  ASSERT_TRUE(b.enqueue(large));
  EXPECT_EQ(b.nextBatch().size(), 1u);
  EXPECT_EQ(b.nextBatch().size(), 1u);
}

TEST(MicroBatcher, RejectsWhenQueueFull) {
  MicroBatcher b({.maxBatch = 4, .maxQueueDepth = 2});
  auto r0 = makeRequest(Endpoint::kPredictSpectrum, 12, 0);
  auto r1 = makeRequest(Endpoint::kPredictSpectrum, 12, 1);
  auto r2 = makeRequest(Endpoint::kPredictSpectrum, 12, 2);
  EXPECT_TRUE(b.enqueue(r0));
  EXPECT_TRUE(b.enqueue(r1));
  EXPECT_FALSE(b.enqueue(r2));
  EXPECT_FALSE(r2.input.empty());  // rejected request left intact
}

TEST(MicroBatcher, StopWithDrainFlushesThenSignalsExit) {
  MicroBatcher b({.maxBatch = 32, .maxQueueDepth = 64});
  auto r = makeRequest(Endpoint::kPredictSpectrum, 12, 0);
  ASSERT_TRUE(b.enqueue(r));
  b.stop();
  EXPECT_EQ(b.nextBatch().size(), 1u);  // pending work still served
  EXPECT_TRUE(b.nextBatch().empty());   // then the exit signal
  auto rejected = makeRequest(Endpoint::kPredictSpectrum, 12, 1);
  EXPECT_FALSE(b.enqueue(rejected));
}

// --- ModelRegistry --------------------------------------------------------

TEST(ModelRegistry, VersionsIncreaseAndCurrentTracksLatest) {
  ModelRegistry reg;
  EXPECT_EQ(reg.version(), 0u);
  EXPECT_EQ(reg.current(), nullptr);
  EXPECT_EQ(reg.publish(tinyModel(1), "first"), 1u);
  EXPECT_EQ(reg.publish(tinyModel(2), "second"), 2u);
  auto snap = reg.current();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 2u);
  EXPECT_EQ(snap->tag, "second");
  EXPECT_EQ(reg.version(), 2u);
}

TEST(ModelRegistry, InFlightSnapshotSurvivesRepublish) {
  ModelRegistry reg;
  reg.publish(tinyModel(1));
  auto held = reg.current();
  reg.publish(tinyModel(2));
  EXPECT_EQ(held->version, 1u);  // the old snapshot stays alive and intact
  EXPECT_EQ(reg.current()->version, 2u);
}

TEST(ModelRegistry, PublishCopyIsImmuneToLaterTraining) {
  Rng rng(3);
  ArtificialScientistModel m(tinyConfig(), rng);
  Rng dataRng(5);
  const ml::Tensor probe = ml::Tensor::randn({1, 8, 6}, dataRng);
  const ml::Tensor before = m.predictSpectra(probe);

  ModelRegistry reg;
  reg.publish(core::cloneForInference(m), "pre-training");
  // "Training step": perturb every weight of the source model.
  for (auto& p : m.parameters())
    for (auto& v : p.data()) v += 0.5;

  const ml::Tensor after = reg.current()->model->predictSpectra(probe);
  for (long i = 0; i < before.numel(); ++i)
    EXPECT_EQ(before.at(i), after.at(i));
}

TEST(ModelRegistry, PublishCheckpointRestoresSavedWeights) {
  const std::string path = ::testing::TempDir() + "registry_ckpt.ckpt";
  Rng rng(17);
  ArtificialScientistModel m(tinyConfig(), rng);
  ml::saveParameters(path, m.parameters());

  ModelRegistry reg;
  EXPECT_EQ(publishCheckpoint(reg, tinyConfig(), path), 1u);
  EXPECT_EQ(reg.current()->tag, path);

  Rng dataRng(5);
  const ml::Tensor probe = ml::Tensor::randn({2, 8, 6}, dataRng);
  const ml::Tensor expected = m.predictSpectra(probe);
  const ml::Tensor got = reg.current()->model->predictSpectra(probe);
  for (long i = 0; i < expected.numel(); ++i)
    EXPECT_EQ(expected.at(i), got.at(i));
  std::remove(path.c_str());
}

// --- InferenceEngine ------------------------------------------------------

TEST(InferenceEngine, MatchesGraphPredictSpectra) {
  // The engine runs the graph's fused linear kernel and its coupling
  // arithmetic op for op (both built without FMA contraction outside the
  // kernel clones), so every output bit must agree, from 8 conv rows
  // (1 × 8 points) to 4 096 (32 × 128).
  auto model = tinyModel(31);
  InferenceEngine engine(model);
  Rng rng(7);
  for (long points : {8L, 96L, 128L}) {
    for (long batch : {1L, 3L, 5L, 16L, 32L}) {
      ml::Tensor clouds = ml::Tensor::randn({batch, points, 6}, rng);
      const ml::Tensor expected = model->predictSpectra(clouds);
      std::vector<ml::Real> got(
          static_cast<std::size_t>(batch * engine.spectrumDim()));
      engine.predictSpectra(clouds.data().data(), batch, points, got.data());
      for (long i = 0; i < expected.numel(); ++i)
        ASSERT_EQ(got[static_cast<std::size_t>(i)], expected.at(i))
            << "batch=" << batch << " points=" << points << " flat=" << i;
    }
  }
}

TEST(InferenceEngine, MatchesGraphOnReducedConfigAndOddPointCounts) {
  Rng rng(41);
  ArtificialScientistModel m(ArtificialScientistModel::Config::reduced(), rng);
  auto snap = core::cloneForInference(m);
  InferenceEngine engine(snap);
  const long batch = 3, points = 7;  // off every 4-row block and chunk
  ml::Tensor clouds = ml::Tensor::randn({batch, points, 6}, rng);
  const ml::Tensor expected = snap->predictSpectra(clouds);
  std::vector<ml::Real> got(
      static_cast<std::size_t>(batch * engine.spectrumDim()));
  engine.predictSpectra(clouds.data().data(), batch, points, got.data());
  for (long i = 0; i < expected.numel(); ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i)], expected.at(i)) << "flat=" << i;
}

// --- InferenceServer ------------------------------------------------------

ServerConfig quickServerConfig(long maxBatch = 8) {
  ServerConfig cfg;
  cfg.policy.maxBatch = maxBatch;
  return cfg;
}

TEST(InferenceServer, PredictMatchesDirectModelCall) {
  auto registry = std::make_shared<ModelRegistry>();
  auto model = tinyModel(51);
  registry->publish(model);
  InferenceServer server(quickServerConfig(), registry);

  Rng rng(9);
  const long points = 8;
  auto cloud = randomCloud(points, rng);
  auto fut = server.predictSpectrum(cloud);
  InferenceResult res = fut.get();
  EXPECT_EQ(res.snapshotVersion, 1u);
  EXPECT_GE(res.batchSize, 1);

  ml::Tensor t = ml::Tensor::fromVector({1, points, 6}, cloud);
  const ml::Tensor expected = model->predictSpectra(t);
  ASSERT_EQ(static_cast<long>(res.values.size()), expected.numel());
  for (long i = 0; i < expected.numel(); ++i)
    EXPECT_NEAR(res.values[static_cast<std::size_t>(i)], expected.at(i), 1e-9);
}

TEST(InferenceServer, CoalescesBurstIntoOneBatch) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(52));
  // Batches of up to 8. A large request occupies the worker (its input
  // size differs from the burst's, so it batches alone); an 8-burst
  // queued behind it must leave as a single batch.
  InferenceServer server(quickServerConfig(8), registry);
  Rng rng(10);
  const auto bigCloud = randomCloud(131072, rng);
  const auto cloud = randomCloud(8, rng);
  auto big = server.predictSpectrum(bigCloud);
  std::vector<std::future<InferenceResult>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(server.predictSpectrum(cloud));
  for (auto& f : futs) {
    const InferenceResult r = f.get();
    EXPECT_EQ(r.batchSize, 8);
    EXPECT_EQ(r.snapshotVersion, 1u);
  }
  EXPECT_EQ(big.get().batchSize, 1);
  const auto rep = server.metrics();
  EXPECT_EQ(rep.predict.submitted, 9u);
  EXPECT_EQ(rep.predict.completed, 9u);
  EXPECT_EQ(rep.predict.batches, 2u);
}

TEST(InferenceServer, InvertReturnsPosteriorCloud) {
  auto registry = std::make_shared<ModelRegistry>();
  auto model = tinyModel(53);
  registry->publish(model);
  InferenceServer server(quickServerConfig(), registry);
  const long S = model->config().spectrumDim;
  std::vector<ml::Real> spectrum(static_cast<std::size_t>(S), 0.25);
  InferenceResult res = server.invertSpectrum(spectrum).get();
  EXPECT_EQ(static_cast<long>(res.values.size()), model->cloudPoints() * 6);
  for (ml::Real v : res.values) EXPECT_TRUE(std::isfinite(v));
  EXPECT_EQ(res.snapshotVersion, 1u);
}

TEST(InferenceServer, RejectsMalformedInputs) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(54));
  InferenceServer server(quickServerConfig(), registry);
  EXPECT_THROW(server.predictSpectrum({}).get(), RuntimeError);
  EXPECT_THROW(server.predictSpectrum({1.0, 2.0}).get(), RuntimeError);
  EXPECT_THROW(server.invertSpectrum({}).get(), RuntimeError);
}

TEST(InferenceServer, FailsRequestsWhenNoModelPublished) {
  auto registry = std::make_shared<ModelRegistry>();
  InferenceServer server(quickServerConfig(), registry);
  Rng rng(11);
  auto fut = server.predictSpectrum(randomCloud(8, rng));
  try {
    fut.get();
    FAIL() << "expected RuntimeError";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("no model published"),
              std::string::npos);
  }
}

TEST(InferenceServer, HotSwapServesEachRequestFromExactlyOneVersion) {
  auto registry = std::make_shared<ModelRegistry>();
  auto m1 = tinyModel(61);
  auto m2 = tinyModel(62);
  registry->publish(m1);
  InferenceServer server(quickServerConfig(4), registry);

  Rng rng(12);
  const long points = 8;
  const auto cloud = randomCloud(points, rng);
  ml::Tensor t = ml::Tensor::fromVector({1, points, 6}, cloud);
  const ml::Tensor e1 = m1->predictSpectra(t);
  const ml::Tensor e2 = m2->predictSpectra(t);

  const InferenceResult r1 = server.predictSpectrum(cloud).get();
  registry->publish(m2);  // hot swap while the server keeps running
  const InferenceResult r2 = server.predictSpectrum(cloud).get();

  EXPECT_EQ(r1.snapshotVersion, 1u);
  EXPECT_EQ(r2.snapshotVersion, 2u);
  for (long i = 0; i < e1.numel(); ++i) {
    EXPECT_NEAR(r1.values[static_cast<std::size_t>(i)], e1.at(i), 1e-9);
    EXPECT_NEAR(r2.values[static_cast<std::size_t>(i)], e2.at(i), 1e-9);
  }
  EXPECT_GE(server.metrics().engineSwaps, 2u);
}

TEST(InferenceServer, ShutdownDrainCompletesEverythingAccepted) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(55));
  InferenceServer server(quickServerConfig(8), registry);
  Rng rng(13);
  const auto cloud = randomCloud(8, rng);
  std::vector<std::future<InferenceResult>> futs;
  for (int i = 0; i < 40; ++i) futs.push_back(server.predictSpectrum(cloud));
  server.shutdown();
  for (auto& f : futs) EXPECT_NO_THROW(f.get());  // drained, not rejected
  const auto rep = server.metrics();
  EXPECT_EQ(rep.predict.completed, 40u);
  EXPECT_EQ(rep.predict.rejected, 0u);
  EXPECT_EQ(rep.queueDepth, 0u);
}

TEST(InferenceServer, SubmitAfterShutdownIsRejected) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(57));
  InferenceServer server(quickServerConfig(), registry);
  server.shutdown();
  Rng rng(15);
  EXPECT_THROW(server.predictSpectrum(randomCloud(8, rng)).get(),
               RuntimeError);
  server.shutdown();  // idempotent
}

TEST(InferenceServer, CrashedWorkerServesTheQueueBehindItsBatch) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(59));
  InferenceServer server(quickServerConfig(/*maxBatch=*/1), registry);
  Rng rng(19);
  const auto cloud = randomCloud(8, rng);
  std::size_t crashed = 0, served = 0;
  {
    // The first batch dies mid-flight; the worker restarts in place and
    // serves the five requests submitted behind it.
    fault::ScopedPlan plan(
        fault::Plan::parseSpec("serve.worker_batch@1:die"));
    std::vector<std::future<InferenceResult>> futs;
    for (int i = 0; i < 6; ++i) futs.push_back(server.predictSpectrum(cloud));
    for (auto& f : futs) {
      try {
        EXPECT_EQ(f.get().snapshotVersion, 1u);
        ++served;
      } catch (const RuntimeError& e) {
        EXPECT_NE(std::string(e.what()).find("inference worker crashed"),
                  std::string::npos)
            << e.what();
        ++crashed;
      }
    }
  }
  EXPECT_EQ(crashed, 1u);
  EXPECT_EQ(served, 5u);
  const auto rep = server.metrics();
  EXPECT_EQ(rep.predict.rejected, 1u);
  EXPECT_EQ(rep.predict.completed, 5u);
  EXPECT_EQ(rep.workerRestarts, 1u);
}

TEST(InferenceServer, RestartedWorkerDrawsTheNextIncarnationsStream) {
  // After g crashes the worker draws posterior noise from the stream of
  // seed + 0x9e3779b9 * (g + 1): after one crash, the stream a fresh
  // server seeded 0x9e3779b9 higher starts on.
  auto registry = std::make_shared<ModelRegistry>();
  auto model = tinyModel(67);
  registry->publish(model);
  const std::vector<ml::Real> spectrum(
      static_cast<std::size_t>(model->config().spectrumDim), 0.25);
  ServerConfig cfg = quickServerConfig();
  InferenceServer crashed(cfg, registry);
  {
    fault::ScopedPlan plan(
        fault::Plan::parseSpec("serve.worker_batch@1:die"));
    EXPECT_THROW(crashed.invertSpectrum(spectrum).get(), RuntimeError);
  }
  const InferenceResult restarted = crashed.invertSpectrum(spectrum).get();
  cfg.seed += 0x9e3779b9ULL;
  InferenceServer fresh(cfg, registry);
  EXPECT_EQ(restarted.values, fresh.invertSpectrum(spectrum).get().values);
}

TEST(InferenceServer, InjectedBatchErrorFailsOnlyThatBatch) {
  // A generic failure at the batch site (fault action `error`, not a
  // crash) fails that batch with its typed error; nothing restarts and
  // the requests behind it are served.
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(60));
  InferenceServer server(quickServerConfig(/*maxBatch=*/1), registry);
  Rng rng(21);
  const auto cloud = randomCloud(8, rng);
  std::size_t failed = 0, served = 0;
  {
    fault::ScopedPlan plan(
        fault::Plan::parseSpec("serve.worker_batch@1:error"));
    std::vector<std::future<InferenceResult>> futs;
    for (int i = 0; i < 3; ++i) futs.push_back(server.predictSpectrum(cloud));
    for (auto& f : futs) {
      try {
        f.get();
        ++served;
      } catch (const fault::FaultInjectedError&) {
        ++failed;
      }
    }
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(served, 2u);
  EXPECT_EQ(server.metrics().workerRestarts, 0u);
}

TEST(InferenceServer, LatencyMetricsPopulate) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(58));
  InferenceServer server(quickServerConfig(4), registry);
  Rng rng(16);
  const auto cloud = randomCloud(8, rng);
  std::vector<std::future<InferenceResult>> futs;
  for (int i = 0; i < 12; ++i) futs.push_back(server.predictSpectrum(cloud));
  for (auto& f : futs) {
    const InferenceResult r = f.get();
    EXPECT_GE(r.queueMicros, 0.0);
  }
  const auto rep = server.metrics();
  EXPECT_EQ(rep.predict.latencyMicros.count, 12u);
  EXPECT_GT(rep.predict.latencyMicros.p50, 0.0);
  EXPECT_LE(rep.predict.latencyMicros.p50, rep.predict.latencyMicros.p99);
  EXPECT_GE(rep.predict.meanBatchSize, 1.0);
}

// --- load shedding and deadlines ------------------------------------------

TEST(MicroBatcher, SweepsExpiredRequestsBeforeBatching) {
  MicroBatcher b({.maxBatch = 8, .maxQueueDepth = 64});
  auto live = makeRequest(Endpoint::kPredictSpectrum, 12, 0);
  auto dead = makeRequest(Endpoint::kPredictSpectrum, 12, 1);
  dead.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);  // already expired
  ASSERT_TRUE(b.enqueue(live));
  ASSERT_TRUE(b.enqueue(dead));
  std::vector<PendingRequest> expired;
  // First call hands back only the expired request — an empty batch so the
  // worker fails the promise immediately instead of after a batch cycle.
  auto batch = b.nextBatch(&expired);
  EXPECT_TRUE(batch.empty());
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].input[0], 1);
  // Second call forms the batch from what is still alive.
  expired.clear();
  batch = b.nextBatch(&expired);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].input[0], 0);
  EXPECT_TRUE(expired.empty());
}

TEST(InferenceServer, ExpiredDeadlineRejectedBeforeBatching) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(63));
  // A large request occupies the worker for tens of ms: a small request
  // with a 1 ms deadline queued behind it deterministically expires while
  // queued and never reaches the engine.
  InferenceServer server(quickServerConfig(4), registry);
  Rng rng(17);
  const auto bigCloud = randomCloud(131072, rng);
  const auto cloud = randomCloud(8, rng);
  auto big = server.predictSpectrum(bigCloud);
  auto fut = server.predictSpectrum(cloud, /*deadlineMicros=*/1000);
  EXPECT_THROW(fut.get(), DeadlineError);
  EXPECT_NO_THROW(big.get());
  const auto rep = server.metrics();
  EXPECT_EQ(rep.predict.deadlineTimeouts, 1u);
  EXPECT_EQ(rep.predict.completed, 1u);  // the large request only
  EXPECT_EQ(rep.predict.batches, 1u);  // the small one never ran
}

TEST(InferenceServer, BoundedQueueShedsNewestAndCountsIt) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(64));
  ServerConfig cfg = quickServerConfig(/*maxBatch=*/1);
  cfg.policy.maxQueueDepth = 2;
  cfg.metrics = std::make_shared<ServeMetrics>();
  InferenceServer server(cfg, registry);
  Rng rng(18);
  // A large request occupies the worker while a burst overflows
  // the depth-2 queue; the overflow sheds as ShedError, newest first out.
  const auto bigCloud = randomCloud(4096, rng);
  const auto cloud = randomCloud(8, rng);
  std::vector<std::future<InferenceResult>> futs;
  futs.push_back(server.predictSpectrum(bigCloud));
  for (int i = 0; i < 16; ++i) futs.push_back(server.predictSpectrum(cloud));
  std::size_t ok = 0, shed = 0;
  for (auto& f : futs) {
    try {
      f.get();
      ++ok;
    } catch (const ShedError&) {
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, 17u);  // a shed response is never silently dropped
  EXPECT_GE(shed, 1u);
  const auto rep = server.metrics();
  EXPECT_EQ(rep.predict.shed, shed);
  EXPECT_EQ(rep.predict.completed, ok);
  EXPECT_EQ(rep.predict.submitted,
            rep.predict.completed + rep.predict.shed);
  // The shed counter is visible in the JSON export too.
  const std::string json = cfg.metrics->toJson();
  EXPECT_NE(json.find("serve.predict.shed"), std::string::npos);
}

TEST(InferenceServer, DeadlineZeroMeansNoDeadline) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(65));
  InferenceServer server(quickServerConfig(4), registry);
  Rng rng(20);
  EXPECT_NO_THROW(server.predictSpectrum(randomCloud(8, rng), 0).get());
  const auto rep = server.metrics();
  EXPECT_EQ(rep.predict.deadlineTimeouts, 0u);
}

TEST(InferenceServer, SharedMetricsSinkAggregatesAcrossServers) {
  // The sharded TCP front end hangs N servers off one ServeMetrics;
  // counts must aggregate across them.
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(66));
  auto shared = std::make_shared<ServeMetrics>();
  ServerConfig cfg = quickServerConfig();
  cfg.metrics = shared;
  InferenceServer a(cfg, registry);
  InferenceServer b(cfg, registry);
  Rng rng(22);
  const auto cloud = randomCloud(8, rng);
  a.predictSpectrum(cloud).get();
  b.predictSpectrum(cloud).get();
  EXPECT_EQ(shared->report().predict.completed, 2u);
}

TEST(ServeMetrics, SingleSampleLatency) {
  ServeMetrics m(4);
  m.recordBatch(Endpoint::kPredictSpectrum, 1, {42.0});
  const auto rep = m.report();
  EXPECT_EQ(rep.predict.completed, 1u);
  EXPECT_EQ(rep.predict.latencyMicros.count, 1u);
  EXPECT_DOUBLE_EQ(rep.predict.latencyMicros.p50, 42.0);
  EXPECT_DOUBLE_EQ(rep.predict.latencyMicros.p99, 42.0);
  EXPECT_DOUBLE_EQ(rep.predict.latencyMicros.min, 42.0);
  EXPECT_DOUBLE_EQ(rep.predict.latencyMicros.max, 42.0);
}

TEST(ServeMetrics, LatencyWindowExactFill) {
  // Exactly window-many samples: none evicted yet.
  ServeMetrics m(4);
  m.recordBatch(Endpoint::kPredictSpectrum, 4, {1.0, 2.0, 3.0, 4.0});
  const auto rep = m.report();
  EXPECT_EQ(rep.predict.latencyMicros.count, 4u);
  EXPECT_DOUBLE_EQ(rep.predict.latencyMicros.min, 1.0);
  EXPECT_DOUBLE_EQ(rep.predict.latencyMicros.max, 4.0);
}

TEST(ServeMetrics, LatencyWindowWrapEvictsOldest) {
  // 6 samples through a window of 4: the first two (10, 20) are evicted;
  // cumulative counters still see all 6 completions.
  ServeMetrics m(4);
  m.recordBatch(Endpoint::kPredictSpectrum, 6,
                {10.0, 20.0, 30.0, 40.0, 50.0, 60.0});
  const auto rep = m.report();
  EXPECT_EQ(rep.predict.completed, 6u);
  EXPECT_EQ(rep.predict.batches, 1u);
  EXPECT_EQ(rep.predict.latencyMicros.count, 4u);
  EXPECT_DOUBLE_EQ(rep.predict.latencyMicros.min, 30.0);
  EXPECT_DOUBLE_EQ(rep.predict.latencyMicros.max, 60.0);
  // Endpoints are independent: invert saw nothing.
  EXPECT_EQ(rep.invert.completed, 0u);
  EXPECT_EQ(rep.invert.latencyMicros.count, 0u);
}

}  // namespace
}  // namespace artsci::serve
