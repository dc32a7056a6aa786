/// Serving the surrogate over TCP: stand up the sharded network front end
/// (ASV1 binary protocol, epoll I/O thread, per-shard micro-batching) on a
/// trained model and drive it with in-process TCP clients — including a
/// live hot swap and a deadline-annotated request, so the wire-level error
/// frames are on display too.
///
///   ./examples/example_serve_tcp [shards=2] [clients=3] [requests=50]
///                                [port=0]
///
/// With port= set, the server stays up (Ctrl-C to quit) so external tools
/// can speak the protocol to it; the default runs a self-contained demo.
#include <cstdio>
#include <exception>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "core/model.hpp"
#include "serve/client.hpp"
#include "serve/net_server.hpp"

int main(int argc, char** argv) try {
  using namespace artsci;
  const Config cli =
      Config::fromArgs(argc, argv, {"shards", "clients", "requests", "port"});
  const auto shards = static_cast<std::size_t>(cli.getInt("shards", 2));
  const int clients = static_cast<int>(cli.getInt("clients", 3));
  const long requests = cli.getInt("requests", 50);
  const auto port = static_cast<std::uint16_t>(cli.getInt("port", 0));

  // [1] A trained-ish model snapshot (random weights serve the demo).
  Rng rng(7);
  core::ArtificialScientistModel model(
      core::ArtificialScientistModel::Config::reduced(), rng);
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->publish(core::cloneForInference(model), "demo-v1");

  // [2] The TCP front end: one epoll I/O thread, `shards` micro-batching
  // workers, load shedding on each bounded queue.
  serve::NetServerConfig cfg;
  cfg.port = port;
  cfg.shards = shards;
  cfg.policy.maxBatch = 16;
  serve::NetServer server(cfg, registry);
  std::printf("[1] serving on 127.0.0.1:%u with %zu shard(s)\n",
              server.port(), shards);

  if (port != 0) {
    std::printf("    external mode: speak ASV1 to this port; Ctrl-C to "
                "quit\n");
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(60));
  }

  // [3] Concurrent TCP clients round-tripping real frames.
  const long points = 64;
  std::vector<std::thread> workers;
  std::atomic<long> done{0};
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      Rng crng(100 + static_cast<std::uint64_t>(c));
      serve::NetClient client("127.0.0.1", server.port());
      std::vector<ml::Real> cloud(static_cast<std::size_t>(points) * 6);
      for (auto& v : cloud) v = crng.normal();
      for (long i = 0; i < requests; ++i) {
        const serve::NetReply r = client.predictSpectrum(cloud);
        if (!r.values.empty()) done.fetch_add(1);
      }
    });
  }
  for (auto& t : workers) t.join();
  std::printf("[2] %ld/%ld predictions served over TCP\n", done.load(),
              static_cast<long>(clients) * requests);

  // [4] Hot swap while a client is mid-conversation.
  serve::NetClient client("127.0.0.1", server.port());
  std::vector<ml::Real> cloud(static_cast<std::size_t>(points) * 6, 0.1);
  const auto before = client.predictSpectrum(cloud);
  registry->publish(core::cloneForInference(model), "demo-v2");
  const auto after = client.predictSpectrum(cloud);
  std::printf("[3] hot swap observed on one connection: snapshot v%llu -> "
              "v%llu\n",
              static_cast<unsigned long long>(before.snapshotVersion),
              static_cast<unsigned long long>(after.snapshotVersion));

  // [5] A deadline the queue cannot possibly make surfaces as a typed
  // wire error, not silence.
  try {
    client.predictSpectrum(cloud, /*deadlineMicros=*/1);
    std::printf("[4] deadline race won (request served in under 1 us?!)\n");
  } catch (const serve::NetError& e) {
    std::printf("[4] 1 us deadline surfaced as: %s\n", e.what());
  }

  server.stop();
  std::printf("[5] metrics: %s\n", server.serveMetrics().toJson().c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
