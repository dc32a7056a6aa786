/// Socket-level tests for the TCP serving front end (serve/net_server.hpp):
/// request/reply round-trips against a live epoll server, pipelined frames,
/// sharded dispatch, deadline and shed surfacing on the wire, malformed
/// stream handling, and the drain-on-stop guarantee that no accepted
/// request goes unanswered.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/net_server.hpp"

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

NetServerConfig quickNetConfig(std::size_t shards = 1, long maxBatch = 8) {
  NetServerConfig cfg;
  cfg.shards = shards;
  cfg.policy.maxBatch = maxBatch;
  return cfg;
}

TEST(NetServer, BindsEphemeralPort) {
  auto registry = std::make_shared<ModelRegistry>();
  NetServer server(quickNetConfig(), registry);
  EXPECT_GT(server.port(), 0);
  server.stop();
  server.stop();  // idempotent
}

TEST(NetServer, PredictRoundTripMatchesDirectModelCall) {
  auto registry = std::make_shared<ModelRegistry>();
  auto model = tinyModel(71);
  registry->publish(model);
  NetServer server(quickNetConfig(), registry);

  Rng rng(19);
  const long points = 8;
  const auto cloud = randomCloud(points, rng);
  NetClient client("127.0.0.1", server.port());
  const NetReply reply = client.predictSpectrum(cloud);
  EXPECT_EQ(reply.snapshotVersion, 1u);
  EXPECT_GE(reply.batchSize, 1u);

  ml::Tensor t = ml::Tensor::fromVector({1, points, 6}, cloud);
  const ml::Tensor expected = model->predictSpectra(t);
  ASSERT_EQ(static_cast<long>(reply.values.size()), expected.numel());
  // Single-shard serving is bit-identical to the in-process engine path —
  // the wire carries exact doubles, no text round-off.
  ServerConfig directCfg;
  directCfg.policy = quickNetConfig().policy;
  InferenceServer direct(directCfg, registry);
  const InferenceResult inproc = direct.predictSpectrum(cloud).get();
  for (std::size_t i = 0; i < reply.values.size(); ++i)
    EXPECT_EQ(reply.values[i], inproc.values[i]) << "i=" << i;
  for (long i = 0; i < expected.numel(); ++i)
    EXPECT_NEAR(reply.values[static_cast<std::size_t>(i)], expected.at(i),
                1e-9);
}

TEST(NetServer, InvertRoundTripReturnsFinitePosteriorCloud) {
  auto registry = std::make_shared<ModelRegistry>();
  auto model = tinyModel(72);
  registry->publish(model);
  NetServer server(quickNetConfig(), registry);
  const long S = model->config().spectrumDim;
  NetClient client("127.0.0.1", server.port());
  const NetReply reply = client.invertSpectrum(
      std::vector<ml::Real>(static_cast<std::size_t>(S), 0.25));
  EXPECT_EQ(static_cast<long>(reply.values.size()), model->cloudPoints() * 6);
  for (ml::Real v : reply.values) EXPECT_TRUE(std::isfinite(v));
}

TEST(NetServer, PipelinedRequestsEachAnsweredExactlyOnce) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(73));
  NetServer sharded(quickNetConfig(/*shards=*/2, /*maxBatch=*/4), registry);

  Rng rng(23);
  const auto cloud = randomCloud(8, rng);
  NetClient client("127.0.0.1", sharded.port());
  const int n = 24;
  for (std::uint64_t id = 1; id <= n; ++id)
    client.sendFrame(proto::encodeRequest(proto::MsgType::kPredictSpectrum,
                                          id, 0, cloud));
  // With 2 shards replies may interleave across ids, but each id arrives
  // exactly once and every reply is a success.
  std::set<std::uint64_t> seen;
  for (int i = 0; i < n; ++i) {
    const proto::Frame f = client.recvFrame();
    ASSERT_EQ(f.type, proto::MsgType::kReply);
    EXPECT_TRUE(seen.insert(f.requestId).second)
        << "duplicate reply for id " << f.requestId;
    EXPECT_EQ(f.meta, 1u);  // snapshot version
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));
  const auto rep = sharded.metrics();
  EXPECT_EQ(rep.predict.submitted, static_cast<std::uint64_t>(n));
  EXPECT_EQ(rep.predict.completed, static_cast<std::uint64_t>(n));
}

TEST(NetServer, ConcurrentClientsAcrossShards) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(74));
  NetServer server(quickNetConfig(2, 8), registry);
  const int clients = 4, perClient = 16;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(100 + static_cast<std::uint64_t>(c));
      NetClient client("127.0.0.1", server.port());
      const auto cloud = randomCloud(8, rng);
      for (int i = 0; i < perClient; ++i) {
        const NetReply r = client.predictSpectrum(cloud);
        if (r.snapshotVersion != 1u || r.values.empty()) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const auto rep = server.metrics();
  EXPECT_EQ(rep.predict.completed,
            static_cast<std::uint64_t>(clients * perClient));
}

TEST(NetServer, BadInputGetsErrorReplyAndConnectionSurvives) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(75));
  NetServer server(quickNetConfig(), registry);
  NetClient client("127.0.0.1", server.port());
  // 2 values: not a multiple of 6 — input validation, not a protocol error.
  try {
    client.predictSpectrum({1.0, 2.0});
    FAIL() << "expected NetError";
  } catch (const NetError& e) {
    EXPECT_EQ(e.code(), proto::ErrorCode::kBadRequest);
  }
  // The framing is intact, so the connection keeps working.
  Rng rng(29);
  const NetReply r = client.predictSpectrum(randomCloud(8, rng));
  EXPECT_EQ(r.snapshotVersion, 1u);
}

TEST(NetServer, GarbageBytesGetErrorThenClose) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(76));
  NetServer server(quickNetConfig(), registry);
  NetClient client("127.0.0.1", server.port());
  const char junk[] = "GET / HTTP/1.1\r\n\r\n";
  client.sendBytes(junk, sizeof(junk) - 1);
  const proto::Frame f = client.recvFrame();
  EXPECT_EQ(f.type, proto::MsgType::kError);
  EXPECT_EQ(static_cast<proto::ErrorCode>(f.aux),
            proto::ErrorCode::kBadRequest);
  // Framing is lost: the server hangs up after the error reply.
  EXPECT_THROW(client.recvFrame(), RuntimeError);
  const auto rep = server.serveMetrics().toJson();
  EXPECT_NE(rep.find("net.protocol_errors"), std::string::npos);
}

TEST(NetServer, ClientSentReplyFrameIsAProtocolViolation) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(77));
  NetServer server(quickNetConfig(), registry);
  NetClient client("127.0.0.1", server.port());
  client.sendFrame(proto::encodeReply(9, 1, 1, {1.0}));
  const proto::Frame f = client.recvFrame();
  EXPECT_EQ(f.type, proto::MsgType::kError);
  EXPECT_THROW(client.recvFrame(), RuntimeError);  // closed
}

TEST(NetServer, DeadlineExpirySurfacesOnTheWire) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(78));
  // A large request from its own connection occupies the single worker
  // for tens of ms: a small request with a 1 ms deadline queued behind it
  // expires in the queue, deterministically.
  NetServer server(quickNetConfig(1, 4), registry);
  Rng rng(31);
  const auto bigCloud = randomCloud(131072, rng);
  const auto cloud = randomCloud(8, rng);
  NetClient big("127.0.0.1", server.port());
  NetClient client("127.0.0.1", server.port());
  big.sendFrame(proto::encodeRequest(proto::MsgType::kPredictSpectrum, 1, 0,
                                     bigCloud));
  // Send the small request only once the large one is dispatched.
  const auto dispatchBy =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.metrics().predict.submitted == 0 &&
         std::chrono::steady_clock::now() < dispatchBy)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  ASSERT_EQ(server.metrics().predict.submitted, 1u);
  try {
    client.predictSpectrum(cloud, /*deadlineMicros=*/1000);
    FAIL() << "expected NetError";
  } catch (const NetError& e) {
    EXPECT_EQ(e.code(), proto::ErrorCode::kDeadlineExceeded);
  }
  EXPECT_EQ(big.recvFrame().type, proto::MsgType::kReply);
  const auto rep = server.metrics();
  EXPECT_EQ(rep.predict.deadlineTimeouts, 1u);
  EXPECT_EQ(rep.predict.completed, 1u);  // the large request only
}

TEST(NetServer, OverloadShedsOnTheWireAndCountersAgree) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(79));
  // Tiny queue, one-at-a-time batches: a long request occupies the worker
  // while a pipelined burst overflows the depth-2 queue — the overflow
  // must come back as kShed error frames, never silence.
  NetServerConfig cfg = quickNetConfig(1, /*maxBatch=*/1);
  cfg.policy.maxQueueDepth = 2;
  NetServer server(cfg, registry);
  Rng rng(37);
  NetClient client("127.0.0.1", server.port());
  const auto bigCloud = randomCloud(4096, rng);  // keeps the worker busy
  const auto smallCloud = randomCloud(8, rng);
  const int burst = 12;
  client.sendFrame(proto::encodeRequest(proto::MsgType::kPredictSpectrum, 1,
                                        0, bigCloud));
  for (std::uint64_t id = 2; id <= 1 + burst; ++id)
    client.sendFrame(proto::encodeRequest(proto::MsgType::kPredictSpectrum,
                                          id, 0, smallCloud));
  std::size_t ok = 0, shed = 0;
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1 + burst; ++i) {
    const proto::Frame f = client.recvFrame();
    EXPECT_TRUE(seen.insert(f.requestId).second);
    if (f.type == proto::MsgType::kReply) {
      ++ok;
    } else {
      ASSERT_EQ(f.type, proto::MsgType::kError);
      ASSERT_EQ(static_cast<proto::ErrorCode>(f.aux),
                proto::ErrorCode::kShed);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, static_cast<std::size_t>(1 + burst));
  EXPECT_GE(shed, 1u);  // depth-2 queue cannot absorb a 12-burst
  const auto rep = server.metrics();
  EXPECT_EQ(rep.predict.shed, shed);
  EXPECT_EQ(rep.predict.submitted,
            rep.predict.completed + rep.predict.shed);
}

TEST(NetServer, StopDrainsEveryDispatchedRequest) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(80));
  NetServer server(quickNetConfig(2, 8), registry);
  Rng rng(41);
  const auto cloud = randomCloud(8, rng);
  NetClient client("127.0.0.1", server.port());
  const int n = 32;
  for (std::uint64_t id = 1; id <= n; ++id)
    client.sendFrame(proto::encodeRequest(proto::MsgType::kPredictSpectrum,
                                          id, 0, cloud));
  // Give the io thread a moment to pull the burst off the socket, then
  // stop: everything dispatched must still be answered before close.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();
  std::set<std::uint64_t> seen;
  try {
    for (int i = 0; i < n; ++i) {
      const proto::Frame f = client.recvFrame();
      EXPECT_TRUE(f.type == proto::MsgType::kReply ||
                  f.type == proto::MsgType::kError);
      seen.insert(f.requestId);
    }
  } catch (const RuntimeError&) {
    // EOF after the flush is fine — but only after every reply arrived.
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));
  const auto rep = server.metrics();
  EXPECT_EQ(rep.predict.submitted, static_cast<std::uint64_t>(n));
  EXPECT_EQ(rep.predict.submitted,
            rep.predict.completed + rep.predict.rejected + rep.predict.shed +
                rep.predict.deadlineTimeouts);
}

TEST(ShardDispatchKernel, PicksTheMinimumDepth) {
  const std::size_t depths[] = {3, 1, 2};
  for (std::uint64_t hint = 0; hint < 6; ++hint)
    EXPECT_EQ(pickLeastLoadedShard(depths, 3, hint), 1u) << "hint=" << hint;
}

TEST(ShardDispatchKernel, TiesGoToTheRotatingHint) {
  const std::size_t flat[] = {2, 2, 2};
  EXPECT_EQ(pickLeastLoadedShard(flat, 3, 0), 0u);
  EXPECT_EQ(pickLeastLoadedShard(flat, 3, 4), 1u);
  EXPECT_EQ(pickLeastLoadedShard(flat, 3, 5), 2u);
}

TEST(ShardDispatchKernel, WrapsAroundFromTheHint) {
  const std::size_t depths[] = {0, 5};
  EXPECT_EQ(pickLeastLoadedShard(depths, 2, 1), 0u);  // scan 1 -> wrap to 0
  const std::size_t tail[] = {4, 4, 0};
  EXPECT_EQ(pickLeastLoadedShard(tail, 3, 1), 2u);
}

TEST(NetServer, LeastLoadedDispatchKeepsShortsOffTheBusyShard) {
  // Skewed load: one expensive request occupies a shard while cheap
  // requests follow as sequential round trips. Shard depth counts queued
  // and in-flight work (InferenceServer::queueDepth), so least-loaded
  // dispatch sends every short to the idle shard and all of them are
  // answered while the big request still computes. A fixed rotation
  // would queue the 2nd short behind the big request; a shard's collector
  // answers in FIFO order, so that short's reply would follow the big one.
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(90));
  NetServer server(quickNetConfig(/*shards=*/2, /*maxBatch=*/1), registry);
  Rng rng(47);
  // ~16000x a short request: the big service time (tens of ms) dwarfs
  // eight short round trips.
  const auto bigCloud = randomCloud(131072, rng);
  const auto smallCloud = randomCloud(8, rng);

  // One connection carries every request, so replies arrive in the order
  // the shards' collectors wrote them.
  NetClient client("127.0.0.1", server.port());
  // Warm-up: with empty queues the tie-break rotates, so these round
  // trips alternate shards and build both engines up front.
  for (int i = 0; i < 4; ++i) client.predictSpectrum(smallCloud);

  // The big request goes out pipelined (no wait). Waiting until the io
  // thread has read its 6 MB frame and dispatched it (the 5th
  // submission) means every short below is routed while the big one is
  // in flight; a fixed sleep was too short where decoding is slow, as
  // under ThreadSanitizer.
  constexpr std::uint64_t kBigId = 100;
  client.sendFrame(proto::encodeRequest(proto::MsgType::kPredictSpectrum,
                                        kBigId, 0, bigCloud));
  const auto dispatchBy =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.metrics().predict.submitted < 5 &&
         std::chrono::steady_clock::now() < dispatchBy)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(server.metrics().predict.submitted, 5u);

  // Eight sequential short round trips, noting every reply id in arrival
  // order; then the big reply if it has not come yet.
  std::vector<std::uint64_t> arrivals, expected;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    expected.push_back(id);
    client.sendFrame(proto::encodeRequest(proto::MsgType::kPredictSpectrum,
                                          id, 0, smallCloud));
    for (;;) {
      const proto::Frame f = client.recvFrame();
      EXPECT_EQ(f.type, proto::MsgType::kReply);
      arrivals.push_back(f.requestId);
      if (f.requestId == id) break;
    }
  }
  expected.push_back(kBigId);
  if (arrivals.size() < expected.size())
    arrivals.push_back(client.recvFrame().requestId);
  EXPECT_EQ(arrivals, expected)
      << "a short reply arrived after the big one";
}

/// Minimal TCP listener for client-side fault tests: binds an ephemeral
/// port; what happens to accepted connections is up to the test.
class RawListener {
 public:
  RawListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 8), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
  }
  ~RawListener() {
    if (fd_ >= 0) ::close(fd_);
  }
  std::uint16_t port() const { return port_; }
  int accept() const { return ::accept(fd_, nullptr, nullptr); }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

TEST(NetServer, WorkerCrashIsContainedAndRestartsInPlace) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(82));
  // Two shards: the crashed worker fails its batch and restarts in place
  // while the other shard keeps serving. Each sequential round trip must
  // end in exactly one outcome — a reply or a typed error frame, never a
  // hang.
  NetServer server(quickNetConfig(/*shards=*/2, /*maxBatch=*/8), registry);
  Rng rng(53);
  const auto cloud = randomCloud(8, rng);
  NetClient client("127.0.0.1", server.port());

  int ok = 0, failed = 0;
  {
    // The second batch processed anywhere in the process dies mid-flight.
    fault::ScopedPlan plan(
        fault::Plan::parseSpec("serve.worker_batch@2:die"));
    for (int i = 0; i < 10; ++i) {
      try {
        const NetReply r = client.predictSpectrum(cloud);
        EXPECT_EQ(r.snapshotVersion, 1u);
        ++ok;
      } catch (const NetError& e) {
        // The crashed batch (kInternal): typed, and the connection
        // survives.
        ++failed;
      }
    }
  }
  EXPECT_EQ(ok + failed, 10);
  EXPECT_GE(failed, 1) << "the injected crash must surface to a caller";
  EXPECT_GE(ok, 1) << "the surviving shard must keep answering";

  // The restart is counted before the crashed batch's reply is sent.
  EXPECT_GE(server.metrics().workerRestarts, 1u);

  // Post-restart the full shard set serves again (plan is disarmed).
  const NetReply after = client.predictSpectrum(cloud);
  EXPECT_EQ(after.snapshotVersion, 1u);
  const std::string json = server.serveMetrics().toJson();
  EXPECT_NE(json.find("serve.worker_restarts"), std::string::npos);
}

TEST(NetClient, RecvTimeoutSurfacesAsTypedError) {
  // The listener never accepts: the connect lands in the kernel backlog
  // and the request is never answered. Without a timeout this recv would
  // block forever; with one it must become NetTimeoutError, bounded.
  RawListener silent;
  NetClientOptions opts;
  opts.recvTimeoutMillis = 50;
  opts.maxRetries = 0;
  NetClient client("127.0.0.1", silent.port(), opts);
  Rng rng(59);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(client.predictSpectrum(randomCloud(8, rng)), NetTimeoutError);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 5000) << "timeout must be bounded";
}

TEST(NetClient, TransportFailureRetriesWithSameIdAndSucceeds) {
  // First accepted connection is dropped before any reply (EOF mid
  // round-trip); the retry reconnects and the second incarnation answers.
  // The reply is encoded for request id 1: the retry must resend the SAME
  // id — a client that burned a fresh id per attempt would reject it.
  RawListener listener;
  std::thread backend([&] {
    const int c1 = listener.accept();
    ASSERT_GE(c1, 0);
    ::close(c1);  // server "crashes" before replying
    const int c2 = listener.accept();
    ASSERT_GE(c2, 0);
    char drain[4096];
    (void)::read(c2, drain, sizeof(drain));  // consume the resent request
    const auto reply = proto::encodeReply(/*requestId=*/1,
                                          /*snapshotVersion=*/1,
                                          /*batchSize=*/1, {42.0});
    ASSERT_EQ(::write(c2, reply.data(), reply.size()),
              static_cast<ssize_t>(reply.size()));
    ::close(c2);  // no drain-to-EOF: the client closes after we join
  });

  NetClientOptions opts;
  opts.maxRetries = 3;
  opts.backoffBaseMillis = 1;
  opts.backoffMaxMillis = 5;
  NetClient client("127.0.0.1", listener.port(), opts);
  const obs::Counter& retries =
      obs::Registry::global().counter("net.retries");
  const std::uint64_t retriesBefore = retries.value();
  Rng rng(61);
  const NetReply r = client.predictSpectrum(randomCloud(8, rng));
  backend.join();
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_EQ(r.values[0], 42.0);
  EXPECT_GE(retries.value() - retriesBefore, 1u);
}

TEST(NetServer, MetricsJsonExposesNetAndServeCounters) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(tinyModel(81));
  NetServer server(quickNetConfig(), registry);
  Rng rng(43);
  NetClient client("127.0.0.1", server.port());
  client.predictSpectrum(randomCloud(8, rng));
  const std::string json = server.serveMetrics().toJson();
  for (const char* key :
       {"net.connections_accepted", "net.frames_in", "net.replies_out",
        "serve.predict.submitted", "serve.predict.completed",
        "serve.predict.shed", "serve.predict.deadline_timeouts"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

}  // namespace
}  // namespace artsci::serve
