/// Particle-pipeline benchmark: particle updates per second of the
/// supercell-fused particle update (pic/fused_pipeline.hpp) over whole
/// Simulation::step() calls — the paper's dominant FOM term — on the
/// quick-demo KHI box (32x64x8, 9 ppc, the paper's reduced setup), swept
/// over OMP thread counts.
///
///   ./bench/bench_particle_pipeline [--json <path>] [steps] [repeats]
///
/// The sweep prints the host's hardware thread count and marks thread
/// counts above it as oversubscribed: those rows get no efficiency figure
/// and are left out of the --json record.
#ifdef _OPENMP
#include <omp.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "pic/khi.hpp"
#include "pic/simulation.hpp"

using namespace artsci;

namespace {

std::unique_ptr<pic::Simulation> makeKhi() {
  pic::KhiConfig kcfg;  // quick-demo box 32x64x8, 9 ppc
  pic::SimulationConfig scfg;
  scfg.grid = kcfg.grid;
  scfg.dt = kcfg.dt;
  auto sim = std::make_unique<pic::Simulation>(scfg);
  pic::initializeKhi(*sim, kcfg);
  return sim;
}

/// Best-of-`repeats` particle updates/s over `steps` full step() calls.
/// A fresh simulation per repeat keeps the workloads identical (same
/// start state, same trajectory) across thread counts and repeats.
double particleUpdateRate(int steps, int repeats) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    auto sim = makeKhi();
    sim->step();  // warm-up: first-touch of tile stores and caches
    const double updates =
        static_cast<double>(sim->particleCount()) * steps;
    Timer timer;
    sim->run(steps);
    best = std::max(best, updates / timer.seconds());
  }
  return best;
}

void setThreads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const char* jsonPath = nullptr;
  int steps = 6, repeats = 3;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      jsonPath = arg + 7;
    } else if (arg[0] == '-') {
      // A typo'd flag must not silently become steps=0 and run the sweep.
      std::fprintf(stderr,
                   "unknown option %s — usage: bench_particle_pipeline "
                   "[--json <path>] [steps] [repeats]\n",
                   arg);
      return 2;
    } else {
      (positional == 0 ? steps : repeats) = std::atoi(arg);
      ++positional;
    }
  }
  if (steps < 1 || repeats < 1) {
    std::fprintf(stderr, "steps and repeats must be >= 1\n");
    return 2;
  }

#ifdef _OPENMP
  const bool haveOmp = true;
#else
  const bool haveOmp = false;
#endif

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf(
      "particle pipeline: fused, quick-demo KHI 32x64x8 ppc 9, %d steps, "
      "best of %d%s\n"
      "host: %u hardware threads; thread counts above that are "
      "oversubscribed (no efficiency, not recorded)\n\n",
      steps, repeats, haveOmp ? "" : " (no OpenMP: serial only)", cores);

  struct Row {
    int threads;
    double rate;
    double efficiency;
  };
  std::vector<Row> recorded;
  std::printf("%8s | %14s | %10s\n", "threads", "particles/s", "efficiency");
  double serialRate = 0.0;
  for (int threads : {1, 2, 8}) {
    if (!haveOmp && threads > 1) continue;
    setThreads(threads);
    const double rate = particleUpdateRate(steps, repeats);
    if (threads == 1) serialRate = rate;
    if (cores > 0 && static_cast<unsigned>(threads) > cores) {
      std::printf("%8d | %14.3e | %10s\n", threads, rate, "oversub.");
      continue;
    }
    const double efficiency = 100.0 * rate / (threads * serialRate);
    std::printf("%8d | %14.3e | %9.1f%%\n", threads, rate, efficiency);
    recorded.push_back({threads, rate, efficiency});
  }

  if (jsonPath != nullptr) {
    std::FILE* f = std::fopen(jsonPath, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", jsonPath);
      return 2;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"particle_pipeline\",\n"
                 "  \"setup\": \"khi_quick_demo_32x64x8_ppc9_fused\",\n"
                 "  \"host_cores\": %u,\n"
                 "  \"steps\": %d,\n"
                 "  \"measured\": [\n",
                 cores, steps);
    for (std::size_t i = 0; i < recorded.size(); ++i)
      std::fprintf(f,
                   "    {\"threads\": %d, \"particles_per_s\": %.6e, "
                   "\"efficiency_pct\": %.2f}%s\n",
                   recorded[i].threads, recorded[i].rate,
                   recorded[i].efficiency,
                   i + 1 < recorded.size() ? "," : "");
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }
  return 0;
}
