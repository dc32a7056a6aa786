/// Serving the surrogate: train in-transit on a live KHI simulation, then
/// stand up the batched async inference service and hot-swap improved
/// weights into it while clients keep querying — the paper's in-situ loop
/// closed at inference time (train while serving).
///
///   ./examples/serve_surrogate [steps=30] [requests=300]
#include <atomic>
#include <cstdio>
#include <exception>
#include <thread>

#include "common/config.hpp"
#include "core/pipeline.hpp"
#include "serve/server.hpp"

int main(int argc, char** argv) try {
  using namespace artsci;
  const Config cli = Config::fromArgs(argc, argv, {"steps", "requests"});

  // [1] In-transit training: PIC -> radiation -> stream -> replay -> DDP.
  auto cfg = core::PipelineConfig::quickDemo();
  cfg.producer.totalSteps = cli.getInt("steps", 30);
  std::printf("[1] in-transit training on a live KHI simulation...\n");
  auto run = core::runPipeline(cfg);
  const auto& losses = run.result.train.lossHistory;
  if (losses.empty())
    std::printf("    no batch trained (fewer steps than the warm-up)\n\n");
  else
    std::printf("    %ld batches trained, loss %.4f -> %.4f\n\n",
                run.result.train.iterations, losses.front(), losses.back());

  // [2] Publish the trained weights as serving snapshot v1.
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->publish(run.trainer->exportSnapshot(), "after pipeline");
  std::printf("[2] published snapshot v%llu to the model registry\n",
              static_cast<unsigned long long>(registry->version()));

  // [3] Start the inference service: dynamic micro-batching, async futures.
  serve::ServerConfig scfg;
  scfg.policy.maxBatch = 16;
  serve::InferenceServer server(scfg, registry);
  std::printf("[3] serving PredictSpectrum/InvertSpectrum on one worker "
              "(work-conserving batches of up to %ld)\n\n",
              scfg.policy.maxBatch);

  // [4] Clients hammer the server while the trainer keeps improving the
  // model and hot-swaps new snapshots into the registry under load.
  const long requests = cli.getInt("requests", 300);
  const long points = cfg.producer.transform.cloudPoints;
  Rng cloudRng(4242);
  std::vector<ml::Real> cloud(static_cast<std::size_t>(points) * 6);
  for (auto& v : cloud) v = cloudRng.normal();

  std::vector<long> perVersion;
  std::atomic<bool> trainingDone{false};
  std::thread client([&] {
    // Windows of concurrent requests (so micro-batches actually form),
    // looping until the trainer finished its hot-swaps — every snapshot
    // version gets queried.
    const long window = scfg.policy.maxBatch;
    long issued = 0;
    while (issued < requests || !trainingDone.load()) {
      std::vector<std::future<serve::InferenceResult>> futs;
      for (long i = 0; i < window; ++i)
        futs.push_back(server.predictSpectrum(cloud));
      issued += window;
      for (auto& f : futs) {
        const serve::InferenceResult res = f.get();
        if (static_cast<std::size_t>(res.snapshotVersion) >=
            perVersion.size())
          perVersion.resize(static_cast<std::size_t>(res.snapshotVersion) + 1);
        ++perVersion[static_cast<std::size_t>(res.snapshotVersion)];
      }
    }
  });
  for (int round = 0; round < 2; ++round) {
    run.trainer->trainIterations(10);  // continual learning on the buffer
    const auto v = registry->publish(run.trainer->exportSnapshot(),
                                     "continual round " +
                                         std::to_string(round + 1));
    std::printf("[4] trained 10 more iterations, hot-swapped snapshot v%llu "
                "(serving never paused)\n",
                static_cast<unsigned long long>(v));
  }
  trainingDone.store(true);
  client.join();
  for (std::size_t v = 1; v < perVersion.size(); ++v)
    if (perVersion[v] > 0)
      std::printf("    %ld responses answered by snapshot v%zu\n",
                  perVersion[v], v);

  // [5] The inverse endpoint: posterior point-cloud draws for a spectrum.
  std::vector<ml::Real> spectrum(
      static_cast<std::size_t>(cfg.model.spectrumDim), 0.0);
  spectrum[spectrum.size() / 2] = 1.0;  // a synthetic single-line spectrum
  const serve::InferenceResult inv = server.invertSpectrum(spectrum).get();
  std::printf("\n[5] invertSpectrum drew a %zu-point posterior cloud from "
              "snapshot v%llu\n",
              inv.values.size() / 6,
              static_cast<unsigned long long>(inv.snapshotVersion));

  // [6] Serving metrics: batching efficiency and tail latency.
  server.shutdown();
  const auto rep = server.metrics();
  std::printf("\n[6] metrics: %llu predict requests in %llu batches "
              "(mean batch %.1f), %llu engine rebuilds\n",
              static_cast<unsigned long long>(rep.predict.completed),
              static_cast<unsigned long long>(rep.predict.batches),
              rep.predict.meanBatchSize,
              static_cast<unsigned long long>(rep.engineSwaps));
  std::printf("    predict latency: %s\n",
              stats::formatLatencySummary(rep.predict.latencyMicros).c_str());
  std::printf("\nThe registry decouples training from serving: snapshots are\n"
              "immutable, publishes never pause serving, and every\n"
              "response is computed entirely by exactly one snapshot\n"
              "version.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
