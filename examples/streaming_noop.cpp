/// The paper's synthetic streaming benchmark in miniature: a PIC KHI
/// producer streams its particle data to a no-op consumer that only
/// measures ingest throughput and discards the data (§IV-B). Demonstrates
/// multi-rank writers, locality-aware reader assignment and back-pressure.
///
///   ./examples/streaming_noop [writers=4] [readers=2] [steps=5] [queue=2]
#include <cstdio>
#include <exception>
#include <thread>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "pic/khi.hpp"
#include "stream/sst.hpp"

int main(int argc, char** argv) try {
  using namespace artsci;
  const Config cli =
      Config::fromArgs(argc, argv, {"writers", "readers", "steps", "queue"});
  const auto writers = static_cast<std::size_t>(cli.getInt("writers", 4));
  const auto readers = static_cast<std::size_t>(cli.getInt("readers", 2));
  const long steps = cli.getInt("steps", 5);
  const auto queue = static_cast<std::size_t>(cli.getInt("queue", 2));

  std::printf("streaming_noop: %zu writer ranks -> %zu reader ranks, "
              "%ld steps, queue=%zu\n\n",
              writers, readers, steps, queue);

  // One KHI simulation; each writer rank streams a slice of the particles
  // (modeling PIConGPU's per-GCD output).
  pic::KhiConfig kcfg;
  kcfg.grid = pic::GridSpec{32, 64, 8, 0.25, 0.25, 0.25};
  kcfg.dt = 0.1;
  kcfg.particlesPerCell = 4;
  pic::SimulationConfig sc;
  sc.grid = kcfg.grid;
  sc.dt = kcfg.dt;
  pic::Simulation sim(sc);
  const auto sp = pic::initializeKhi(sim, kcfg);

  auto engine = std::make_shared<stream::SstEngine>(
      stream::SstParams{writers, readers, queue});

  std::thread producerGroup([&] {
    runRankTeam(writers, [&](std::size_t rank) {
      auto writer = engine->makeWriter(rank);
      for (long s = 0; s < steps; ++s) {
        if (rank == 0) sim.step();  // rank 0 advances the shared sim
        const auto& e = sim.species(sp.electrons);
        const long n = static_cast<long>(e.size());
        const long chunk = n / static_cast<long>(writers);
        const long begin = static_cast<long>(rank) * chunk;
        const long end =
            rank + 1 == writers ? n : begin + chunk;
        writer.beginStep();
        stream::Block b;
        b.offset = {begin};
        b.extent = {end - begin};
        b.payload.assign(e.ux.begin() + begin, e.ux.begin() + end);
        writer.put("ux", std::move(b), {n});
        writer.endStep();
      }
      writer.close();
    });
  });

  std::vector<double> perStepGBs;
  std::mutex statsMutex;
  runRankTeam(readers, [&](std::size_t rank) {
    auto reader = engine->makeReader(rank);
    while (auto step = reader.beginStep()) {
      Timer t;
      std::size_t bytes = 0;
      for (const auto* b : reader.myBlocks(*step, "ux")) {
        double checksum = 0;
        for (double v : b->payload) checksum += v;  // force the read
        (void)checksum;
        bytes += b->bytes();
      }
      const double gbs = static_cast<double>(bytes) / t.seconds() / 1e9;
      {
        std::lock_guard<std::mutex> lock(statsMutex);
        perStepGBs.push_back(gbs);
      }
      reader.endStep();
    }
  });
  producerGroup.join();

  const auto box = stats::boxplot(perStepGBs);
  std::printf("per-reader ingest throughput [GB/s]: %s\n",
              stats::formatBoxPlot(box).c_str());
  std::printf("steps published: %ld, bytes: %.2f MB, writer stalls: %.3f s\n",
              engine->stepsPublished(),
              static_cast<double>(engine->bytesPublished()) / 1e6,
              engine->writerStallSeconds());
  std::printf("\n(The Frontier-scale version of this benchmark is "
              "bench/fig6_streaming.)\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
