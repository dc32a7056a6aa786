/// Tier-2 stress tests: hot-swapping model snapshots while client threads
/// hammer the server. The invariant under test is the serving layer's core
/// consistency guarantee — every response is computed entirely by exactly
/// one published snapshot (no torn reads across a swap) — plus exact
/// request accounting through a drain shutdown. The network soak repeats
/// the exercise over live TCP connections against the sharded front end.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>

#include "core/model.hpp"
#include "serve/client.hpp"
#include "serve/net_server.hpp"
#include "serve/server.hpp"

namespace artsci::serve {
namespace {

using core::ArtificialScientistModel;

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

TEST(ServeStress, HotSwapUnderLoadKeepsEveryResponseSingleSnapshot) {
  // A pool of models with distinct weights; the publisher cycles through
  // them while clients fire requests. Each response's snapshotVersion must
  // reproduce the direct computation of exactly that model.
  constexpr int kModels = 4;
  constexpr int kPublishes = 60;
  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 150;
  const long points = 8;

  std::vector<std::shared_ptr<const ArtificialScientistModel>> pool;
  for (int i = 0; i < kModels; ++i) {
    Rng rng(100 + static_cast<std::uint64_t>(i));
    ArtificialScientistModel m(tinyConfig(), rng);
    pool.push_back(core::cloneForInference(m));
  }

  Rng dataRng(7);
  ml::Tensor probe = ml::Tensor::randn({1, points, 6}, dataRng);
  std::vector<std::vector<ml::Real>> expected;  // per pool model
  for (const auto& m : pool) {
    const ml::Tensor s = m->predictSpectra(probe);
    expected.emplace_back(s.data());
  }

  auto registry = std::make_shared<ModelRegistry>();
  // version -> pool index; version v is publish number v (1-based).
  std::vector<int> versionToModel{-1};  // index 0 unused
  for (int p = 0; p < kPublishes; ++p)
    versionToModel.push_back(p % kModels);
  registry->publish(pool[versionToModel[1]]);

  ServerConfig cfg;
  cfg.policy.maxBatch = 8;
  InferenceServer server(cfg, registry);

  // The worker serves at least two snapshots however the threads are
  // scheduled: the publisher publishes version 2 only after a response
  // (served at version 1), and each client sends its last request only
  // once version 2 is out.
  std::atomic<bool> answered{false};
  std::thread publisher([&] {
    while (!answered.load()) std::this_thread::yield();
    for (int p = 1; p < kPublishes; ++p) {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      registry->publish(pool[versionToModel[static_cast<std::size_t>(p) + 1]]);
    }
  });

  const std::vector<ml::Real> cloud = probe.data();
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  std::atomic<int> completed{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        if (i + 1 == kRequestsPerClient)
          while (registry->version() < 2) std::this_thread::yield();
        InferenceResult res = server.predictSpectrum(cloud).get();
        answered.store(true);
        const auto version = static_cast<std::size_t>(res.snapshotVersion);
        ASSERT_GE(version, 1u);
        ASSERT_LT(version, versionToModel.size());
        const auto& want =
            expected[static_cast<std::size_t>(versionToModel[version])];
        ASSERT_EQ(res.values.size(), want.size());
        for (std::size_t j = 0; j < want.size(); ++j) {
          if (std::fabs(res.values[j] - want[j]) > 1e-9) {
            mismatches.fetch_add(1);
            break;
          }
        }
        completed.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  publisher.join();

  EXPECT_EQ(mismatches.load(), 0)
      << "a response mixed weights from two snapshots";
  EXPECT_EQ(completed.load(), kClients * kRequestsPerClient);

  server.shutdown();
  const auto rep = server.metrics();
  EXPECT_EQ(rep.predict.submitted,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(rep.predict.completed + rep.predict.rejected,
            rep.predict.submitted);
  EXPECT_EQ(rep.predict.rejected, 0u);
  EXPECT_EQ(rep.queueDepth, 0u);
  EXPECT_GE(rep.engineSwaps, 2u);
}

TEST(ServeStress, MixedEndpointsUnderLoadStayConsistent) {
  // Predict and invert traffic interleaved while snapshots swap: predict
  // responses must stay version-consistent; invert responses must have the
  // right shape and finite values (they draw fresh posterior noise, so
  // exact values are not reproducible by design).
  auto registry = std::make_shared<ModelRegistry>();
  std::vector<std::shared_ptr<const ArtificialScientistModel>> pool;
  for (int i = 0; i < 2; ++i) {
    Rng rng(200 + static_cast<std::uint64_t>(i));
    ArtificialScientistModel m(tinyConfig(), rng);
    pool.push_back(core::cloneForInference(m));
  }
  registry->publish(pool[0]);

  const long points = 8;
  Rng dataRng(8);
  ml::Tensor probe = ml::Tensor::randn({1, points, 6}, dataRng);
  std::vector<std::vector<ml::Real>> expected;
  for (const auto& m : pool) expected.emplace_back(m->predictSpectra(probe).data());
  const long cloudValues = pool[0]->cloudPoints() * 6;
  const long S = pool[0]->config().spectrumDim;

  ServerConfig cfg;
  cfg.policy.maxBatch = 4;
  InferenceServer server(cfg, registry);

  std::thread publisher([&] {
    // Iteration p creates version p+2; publishing pool[(p+1) % 2] keeps
    // the invariant "version v came from pool[(v-1) % 2]" that the
    // predict client checks against.
    for (int p = 0; p < 40; ++p) {
      std::this_thread::sleep_for(std::chrono::microseconds(400));
      registry->publish(pool[static_cast<std::size_t>((p + 1) % 2)]);
    }
  });

  const std::vector<ml::Real> cloud = probe.data();
  std::vector<ml::Real> spectrum(static_cast<std::size_t>(S), 0.1);
  std::atomic<int> bad{0};
  std::thread predictClient([&] {
    for (int i = 0; i < 120; ++i) {
      InferenceResult res = server.predictSpectrum(cloud).get();
      // Publishes 1..41 alternate pool[0], pool[1]: version v came from
      // pool[(v-1) % 2].
      const auto& want = expected[(res.snapshotVersion - 1) % 2];
      for (std::size_t j = 0; j < want.size(); ++j)
        if (std::fabs(res.values[j] - want[j]) > 1e-9) {
          bad.fetch_add(1);
          break;
        }
    }
  });
  std::thread invertClient([&] {
    for (int i = 0; i < 60; ++i) {
      InferenceResult res = server.invertSpectrum(spectrum).get();
      if (static_cast<long>(res.values.size()) != cloudValues) bad.fetch_add(1);
      for (ml::Real v : res.values)
        if (!std::isfinite(v)) {
          bad.fetch_add(1);
          break;
        }
    }
  });
  predictClient.join();
  invertClient.join();
  publisher.join();
  EXPECT_EQ(bad.load(), 0);

  server.shutdown();
  const auto rep = server.metrics();
  EXPECT_EQ(rep.predict.submitted, 120u);
  EXPECT_EQ(rep.invert.submitted, 60u);
  EXPECT_EQ(rep.predict.completed, 120u);
  EXPECT_EQ(rep.invert.completed, 60u);
}

TEST(ServeStress, NetworkHotSwapSoakKeepsEveryReplySingleSnapshot) {
  // The tier-1 hot-swap test over live sockets: TCP clients hammer a
  // sharded NetServer while a publisher cycles model snapshots. Every
  // reply must parse, carry a version that reproduces exactly that
  // model's output, and the final accounting must show no request lost.
  constexpr int kModels = 3;
  constexpr int kPublishes = 50;
  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 120;
  const long points = 8;

  std::vector<std::shared_ptr<const ArtificialScientistModel>> pool;
  for (int i = 0; i < kModels; ++i) {
    Rng rng(400 + static_cast<std::uint64_t>(i));
    ArtificialScientistModel m(tinyConfig(), rng);
    pool.push_back(core::cloneForInference(m));
  }
  Rng dataRng(10);
  ml::Tensor probe = ml::Tensor::randn({1, points, 6}, dataRng);
  std::vector<std::vector<ml::Real>> expected;
  for (const auto& m : pool) expected.emplace_back(m->predictSpectra(probe).data());

  auto registry = std::make_shared<ModelRegistry>();
  std::vector<int> versionToModel{-1};
  for (int p = 0; p < kPublishes; ++p) versionToModel.push_back(p % kModels);
  registry->publish(pool[versionToModel[1]]);

  NetServerConfig cfg;
  cfg.shards = 2;
  cfg.policy.maxBatch = 8;
  NetServer server(cfg, registry);

  std::thread publisher([&] {
    for (int p = 1; p < kPublishes; ++p) {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      registry->publish(pool[versionToModel[static_cast<std::size_t>(p) + 1]]);
    }
  });

  const std::vector<ml::Real> cloud = probe.data();
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  std::atomic<int> completed{0};
  // A reply the server never sends must fail the test, not hang it: each
  // recv has a deadline, and the resulting NetTimeoutError (or any other
  // client error) becomes a failure naming the request.
  NetClientOptions clientOptions;
  clientOptions.recvTimeoutMillis = 10000;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      int i = 0;
      try {
        NetClient client("127.0.0.1", server.port(), clientOptions);
        for (; i < kRequestsPerClient; ++i) {
          const NetReply res = client.predictSpectrum(cloud);
          const auto version = static_cast<std::size_t>(res.snapshotVersion);
          ASSERT_GE(version, 1u);
          ASSERT_LT(version, versionToModel.size());
          const auto& want =
              expected[static_cast<std::size_t>(versionToModel[version])];
          ASSERT_EQ(res.values.size(), want.size());
          for (std::size_t j = 0; j < want.size(); ++j) {
            if (std::fabs(res.values[j] - want[j]) > 1e-9) {
              mismatches.fetch_add(1);
              break;
            }
          }
          completed.fetch_add(1);
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "client " << c << ", request " << i << ": "
                      << e.what();
      }
    });
  }
  for (auto& t : clients) t.join();
  publisher.join();

  EXPECT_EQ(mismatches.load(), 0)
      << "a TCP reply mixed weights from two snapshots";
  EXPECT_EQ(completed.load(), kClients * kRequestsPerClient);

  server.stop();
  const auto rep = server.metrics();
  EXPECT_EQ(rep.predict.submitted,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  // No request lost anywhere on the path: everything submitted was
  // completed, rejected, shed, or timed out — and with synchronous
  // clients nothing should have been shed at all.
  EXPECT_EQ(rep.predict.completed + rep.predict.rejected + rep.predict.shed +
                rep.predict.deadlineTimeouts,
            rep.predict.submitted);
  EXPECT_EQ(rep.predict.completed,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(rep.queueDepth, 0u);
}

TEST(ServeStress, NetworkPipelinedBurstsSurviveShutdownMidFlight) {
  // Pipelined (not synchronous) clients with requests still in flight
  // when stop() lands: every request the server read must be answered —
  // as a reply or a typed error — before its connection closes.
  auto registry = std::make_shared<ModelRegistry>();
  Rng rng(500);
  ArtificialScientistModel m(tinyConfig(), rng);
  registry->publish(core::cloneForInference(m));
  Rng dataRng(11);
  std::vector<ml::Real> cloud(8 * 6);
  for (auto& v : cloud) v = dataRng.normal();

  NetServerConfig cfg;
  cfg.shards = 2;
  cfg.policy.maxBatch = 4;
  NetServer server(cfg, registry);

  constexpr int kClients = 2;
  constexpr int kBurst = 48;
  std::atomic<int> answered{0};
  std::atomic<int> sentDone{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      NetClient client("127.0.0.1", server.port());
      for (std::uint64_t id = 1; id <= kBurst; ++id)
        client.sendFrame(proto::encodeRequest(
            proto::MsgType::kPredictSpectrum,
            static_cast<std::uint64_t>(c) * 1000 + id, 0, cloud));
      sentDone.fetch_add(1);
      std::set<std::uint64_t> seen;
      try {
        for (int i = 0; i < kBurst; ++i) {
          const proto::Frame f = client.recvFrame();
          EXPECT_TRUE(f.type == proto::MsgType::kReply ||
                      f.type == proto::MsgType::kError);
          EXPECT_TRUE(seen.insert(f.requestId).second);
        }
      } catch (const RuntimeError&) {
        // EOF: the server closed after flushing what it had read.
      }
      answered.fetch_add(static_cast<int>(seen.size()));
    });
  }
  // Wait until every burst is fully on the wire (a client mid-send when
  // the listener vanishes would die on EPIPE, not on the invariant under
  // test), then stop with replies still in flight.
  while (sentDone.load() < kClients)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.stop();
  for (auto& t : clients) t.join();

  const auto rep = server.metrics();
  // Exactly the requests the server read off the sockets were submitted,
  // and every one of them resolved one way or another.
  EXPECT_EQ(rep.predict.submitted,
            rep.predict.completed + rep.predict.rejected + rep.predict.shed +
                rep.predict.deadlineTimeouts);
  // Every submitted request produced a frame the clients saw (unless the
  // client hit EOF first — but stop() flushes before closing, so the
  // counts must line up exactly).
  EXPECT_EQ(static_cast<std::uint64_t>(answered.load()),
            rep.predict.submitted);
}

TEST(ServeStress, ServerLifecycleChurnWithInFlightWork) {
  // Construct/destroy servers with requests still queued, alternating an
  // explicit shutdown() with the destructor's drain: shakes out teardown
  // races (run under ASan in CI). Either way every accepted request is
  // served before the server is gone.
  auto registry = std::make_shared<ModelRegistry>();
  Rng rng(300);
  ArtificialScientistModel m(tinyConfig(), rng);
  registry->publish(core::cloneForInference(m));
  Rng dataRng(9);
  std::vector<ml::Real> cloud(8 * 6);
  for (auto& v : cloud) v = dataRng.normal();

  ServerConfig cfg;
  cfg.policy.maxBatch = 4;
  for (int round = 0; round < 10; ++round) {
    std::vector<std::future<InferenceResult>> futs;
    {
      InferenceServer server(cfg, registry);
      for (int i = 0; i < 30; ++i)
        futs.push_back(server.predictSpectrum(cloud));
      if (round % 2 == 0) server.shutdown();
      // else: the destructor drains.
    }
    for (auto& f : futs) EXPECT_NO_THROW(f.get());
  }
}

}  // namespace
}  // namespace artsci::serve
