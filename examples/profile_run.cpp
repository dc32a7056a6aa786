/// Profile a full run: tracing enabled end to end across the in-transit
/// pipeline (PIC producer, nanoSST stream, replay buffer, DDP trainer) and
/// a short serving burst, then flush a Chrome trace_event JSON you can
/// load at https://ui.perfetto.dev and a metrics snapshot.
///
///   ./examples/example_profile_run [steps=24] [requests=64] [ranks=4]
///                                  [trace=artsci_trace.json]
///                                  [metrics=artsci_metrics.json]
///
/// CI runs this as the trace smoke test: the JSON must parse and contain
/// spans from >= 4 subsystems (pic, train, stream, replay, serve). The
/// multi-rank stepping phase makes each rank a Chrome "process" in the
/// trace — Perfetto shows ranks side by side with their OpenMP workers as
/// threads.
#include <cstdio>
#include <exception>
#include <fstream>
#include <future>
#include <vector>

#include "common/config.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pic/khi.hpp"
#include "pic/simulation.hpp"
#include "serve/server.hpp"

namespace {

/// A few steps of a multi-rank Simulation on a weak-scaled KHI box, so
/// that the trace covers the rank step (migrate / reduce / field_solve
/// per rank).
void traceRankedSteps(std::size_t ranks, long steps) {
  using namespace artsci;
  pic::KhiConfig kcfg;
  kcfg.grid = pic::GridSpec{16 * static_cast<long>(ranks), 32, 8, 0.25,
                            0.25, 0.25};
  kcfg.dt = 0.1;
  kcfg.particlesPerCell = 4;

  pic::SimulationConfig sc;
  sc.grid = kcfg.grid;
  sc.dt = kcfg.dt;
  sc.ranks = ranks;
  pic::Simulation sim(sc);
  pic::initializeKhi(sim, kcfg);
  sim.run(steps);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace artsci;
  const Config cli = Config::fromArgs(
      argc, argv, {"steps", "requests", "ranks", "trace", "metrics"});
  const std::string tracePath = cli.getString("trace", "artsci_trace.json");
  const std::string metricsPath =
      cli.getString("metrics", "artsci_metrics.json");

  auto& rec = obs::TraceRecorder::instance();
  rec.setEnabled(true);
  rec.setThreadName("main");

  // [1] In-transit training with every hot path instrumented.
  auto cfg = core::PipelineConfig::quickDemo();
  cfg.producer.totalSteps = cli.getInt("steps", 24);
  std::printf("[1] tracing a %ld-step in-transit pipeline run...\n",
              cfg.producer.totalSteps);
  auto run = core::runPipeline(cfg);
  std::printf("    %ld iterations streamed, %ld batches trained\n",
              run.result.iterationsStreamed, run.result.train.iterations);

  // [1b] Multi-rank stepping: each rank becomes a trace "process".
  const auto ranks = static_cast<std::size_t>(cli.getInt("ranks", 4));
  std::printf("[1b] tracing %zu-rank steps...\n", ranks);
  traceRankedSteps(ranks, 3);

  // [2] A short serving burst so the trace covers the inference side too.
  const long requests = cli.getInt("requests", 64);
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->publish(run.trainer->exportSnapshot(), "profile run");
  {
    serve::ServerConfig scfg;
    scfg.policy.maxBatch = 16;
    serve::InferenceServer server(scfg, registry);
    const long points = cfg.producer.transform.cloudPoints;
    Rng rng(7);
    std::vector<ml::Real> cloud(static_cast<std::size_t>(points) * 6);
    for (auto& v : cloud) v = rng.normal();
    std::vector<std::future<serve::InferenceResult>> futs;
    for (long i = 0; i < requests; ++i)
      futs.push_back(server.predictSpectrum(cloud));
    for (auto& f : futs) f.get();
    std::printf("[2] served %ld predict requests\n", requests);
    server.shutdown();  // quiesce the worker before flushing the trace
  }
  rec.setEnabled(false);

  // [3] Flush. All pipeline/server threads have been joined, so the
  // recorder is quiescent.
  if (!rec.writeJsonFile(tracePath)) {
    std::fprintf(stderr, "cannot write %s\n", tracePath.c_str());
    return 1;
  }
  std::printf("[3] %zu spans (%llu dropped) -> %s\n", rec.eventCount(),
              static_cast<unsigned long long>(rec.droppedCount()),
              tracePath.c_str());

  {
    std::ofstream os(metricsPath);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", metricsPath.c_str());
      return 1;
    }
    os << obs::Registry::global().toJson() << "\n";
  }
  std::printf("    metrics snapshot -> %s\n", metricsPath.c_str());
  std::printf("\nOpen the trace in https://ui.perfetto.dev (or "
              "chrome://tracing): ranks appear\nas processes, their OpenMP "
              "workers as threads, spans nest per category.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
