/// Serving-layer throughput bench: dynamic micro-batching + the fused
/// inference engine vs the status-quo baseline (synchronous single-request
/// `predictSpectra` graph forwards — all the repo offered before
/// src/serve). Sweeps the batch policy (max-batch) and the worker count on
/// the reduced model and reports requests/s plus tail latency.
///
/// Reports served throughput at max-batch 32 against the single-request
/// (batch 1) baseline. The ratio is not gated: its denominator is the
/// training graph's predictSpectra, so it falls whenever training ops get
/// faster. Serving speed is gated end to end by perfbench's serve_mixed
/// workload against the parent commit, which also catches batching
/// switched off (BatchPolicy::maxBatch forced to 1 cost ~45% of its
/// throughput).
///
/// Also reports the fused engine's intra-request OpenMP scaling: the
/// batch-32 predictSpectra loop routes linear_forward over fixed 32-row
/// static chunks (ml/kernels/gemm.hpp), so multi-core hosts speed up a
/// single batch with bit-identical results.
///
///   ./bench/bench_serve_throughput [requests=768] [points=128] [repeats=3]
///                                  [json=<path>]
///
/// json= writes the measurement (baseline, served, speedup) as JSON.
#ifdef _OPENMP
#include <omp.h>
#endif

#include <cstdio>
#include <vector>

#include "common/config.hpp"
#include "common/timer.hpp"
#include "core/model.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"

using namespace artsci;

namespace {

double servedThroughput(const std::shared_ptr<serve::ModelRegistry>& registry,
                        long maxBatch, std::size_t workers,
                        const std::vector<ml::Real>& cloud, long requests,
                        stats::LatencySummary* latencyOut) {
  serve::ServerConfig scfg;
  scfg.policy.maxBatch = maxBatch;
  scfg.policy.maxQueueDepth = static_cast<std::size_t>(requests) + 16;
  scfg.workers = workers;
  serve::InferenceServer server(scfg, registry);

  // Warm-up batch: engine construction + first-touch of the workspaces.
  server.predictSpectrum(cloud).get();

  Timer timer;
  std::vector<std::future<serve::InferenceResult>> futs;
  futs.reserve(static_cast<std::size_t>(requests));
  for (long i = 0; i < requests; ++i)
    futs.push_back(server.predictSpectrum(cloud));
  for (auto& f : futs) f.get();
  const double seconds = timer.seconds();

  if (latencyOut != nullptr)
    *latencyOut = server.metrics().predict.latencyMicros;
  return static_cast<double>(requests) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::fromArgs(argc, argv);
  const long requests = cli.getInt("requests", 768);
  const long points = cli.getInt("points", 128);
  const int repeats = static_cast<int>(cli.getInt("repeats", 3));
  const std::string jsonPath = cli.getString("json", "");

  Rng rng(1);
  core::ArtificialScientistModel model(
      core::ArtificialScientistModel::Config::reduced(), rng);
  auto snapshot = core::cloneForInference(model);

  std::vector<ml::Real> cloud(static_cast<std::size_t>(points) * 6);
  for (auto& v : cloud) v = rng.normal();
  ml::Tensor singleCloud =
      ml::Tensor::fromVector({1, points, 6}, cloud);

  std::printf("serve_throughput: reduced model, %ld-point clouds, %ld "
              "requests, best of %d\n\n",
              points, requests, repeats);

  // --- Baseline: synchronous single-request inference, batch 1 ----------
  double baseline = 0;
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    for (long i = 0; i < requests; ++i) model.predictSpectra(singleCloud);
    baseline = std::max(baseline,
                        static_cast<double>(requests) / timer.seconds());
  }
  std::printf("baseline  direct predictSpectra, one request at a time: "
              "%8.0f req/s\n\n",
              baseline);

  // --- Served: sweep batch policy x workers ------------------------------
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->publish(snapshot, "bench");

  std::printf("%-9s %-8s %12s %10s %10s %10s\n", "maxBatch", "workers",
              "req/s", "p50(us)", "p95(us)", "p99(us)");
  double served32w1 = 0, served32w4 = 0;
  for (long maxBatch : {1L, 4L, 8L, 32L}) {
    for (std::size_t workers : {1UL, 2UL, 4UL}) {
      double best = 0;
      stats::LatencySummary lat;
      for (int r = 0; r < repeats; ++r) {
        stats::LatencySummary l;
        const double reqS = servedThroughput(registry, maxBatch, workers,
                                             cloud, requests, &l);
        if (reqS > best) {
          best = reqS;
          lat = l;
        }
      }
      std::printf("%-9ld %-8zu %12.0f %10.0f %10.0f %10.0f\n", maxBatch,
                  workers, best, lat.p50, lat.p95, lat.p99);
      if (maxBatch == 32 && workers == 1) served32w1 = best;
      if (maxBatch == 32 && workers == 4) served32w4 = best;
    }
  }

  // --- Engine OpenMP row-parallelism: one batch-32 forward ---------------
#ifdef _OPENMP
  {
    serve::InferenceEngine::Options opts;
    opts.ompRowParallel = true;
    serve::InferenceEngine engine(snapshot, opts);
    const long batch = 32;
    std::vector<ml::Real> clouds(static_cast<std::size_t>(batch) *
                                 static_cast<std::size_t>(points) * 6);
    Rng crng(2);
    for (auto& v : clouds) v = crng.normal();
    std::vector<ml::Real> out(
        static_cast<std::size_t>(batch * engine.spectrumDim()));
    const int savedThreads = omp_get_max_threads();
    std::printf("\nfused engine, one batch-32 predictSpectra "
                "(OMP row chunks):\n");
    double oneThread = 0;
    for (int threads : {1, 2, 4, 8}) {
      if (threads > 1 && threads > savedThreads) continue;
      omp_set_num_threads(threads);
      engine.predictSpectra(clouds.data(), batch, points, out.data());
      double best = 0;
      for (int r = 0; r < repeats; ++r) {
        Timer timer;
        for (int it = 0; it < 50; ++it)
          engine.predictSpectra(clouds.data(), batch, points, out.data());
        best = std::max(best, 50.0 * batch / timer.seconds());
      }
      if (threads == 1) oneThread = best;
      std::printf("  %2d threads: %9.0f samples/s (%.2fx vs 1 thread)\n",
                  threads, best, best / oneThread);
    }
    omp_set_num_threads(savedThreads);
  }
#endif

  const double speedup = served32w1 / baseline;
  const double workerScaling = served32w4 / served32w1;
  std::printf("\nbatched throughput (maxBatch 32, 1 worker) vs "
              "single-request baseline: %.2fx (reported, not gated)\n",
              speedup);
  std::printf("multi-worker scaling (maxBatch 32, 4 workers vs 1): %.2fx "
              "(informational; gated by bench_serve_loadgen acceptance)\n",
              workerScaling);
  std::printf("(speedup sources: graph-free fused engine + request "
              "coalescing amortizing per-request overhead)\n");

  if (!jsonPath.empty()) {
    std::FILE* f = std::fopen(jsonPath.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", jsonPath.c_str());
      return 2;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"serve_throughput\",\n"
                 "  \"setup\": \"reduced_model_%ldpt_maxbatch32_1worker\",\n"
                 "  \"baseline_req_s\": %.1f,\n"
                 "  \"served_req_s\": %.1f,\n"
                 "  \"served_req_s_4workers\": %.1f,\n"
                 "  \"worker_scaling_4v1\": %.4f,\n"
                 "  \"ratio\": %.4f\n"
                 "}\n",
                 points, baseline, served32w1, served32w4, workerScaling,
                 speedup);
    std::fclose(f);
  }
  return 0;
}
