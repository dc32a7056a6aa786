/// Particle-pipeline benchmark: particle updates per second of the
/// supercell-fused particle update (pic/fused_pipeline.hpp) over whole
/// Simulation::step() calls — the paper's dominant FOM term — on the
/// quick-demo KHI box (32x64x8, 9 ppc, the paper's reduced setup), swept
/// over OMP thread counts.
///
///   ./bench/bench_particle_pipeline [--trace-overhead] [--fault-overhead]
///                                   [--json <path>] [steps] [repeats]
///
/// The sweep prints the host's hardware thread count and marks thread
/// counts above it as oversubscribed: those rows get no efficiency figure
/// and are left out of the --json record.
///
/// --trace-overhead instead measures the fused pipeline with TRACE_SCOPE
/// instrumentation runtime-disabled vs enabled (recording to the ring, no
/// sink) and reports the enabled/disabled rate ratio (the "enabled
/// tracing costs < 1% on the FOM" claim of src/obs/trace.hpp).
///
/// --fault-overhead does the same for FAULT_POINT hooks
/// (src/fault/fault.hpp): disarmed (the production state — one relaxed
/// atomic load per site) vs armed with a never-matching plan (the full
/// slow path: hit counting + rule scan, no injection). The armed rate
/// bounds the disarmed cost from above.
///
/// Both ratios are reported, not gated: run to run they spread by several
/// percent on a 4-core host, so a 1% effect does not resolve here. The
/// exit code checks only what makes a ratio meaningful — spans were
/// recorded, and the armed run hit the `pic.step` fault site.
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
#include "fault/fault.hpp"
#include "obs/trace.hpp"
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
  bool traceOverhead = false;
  bool faultOverhead = false;
  const char* jsonPath = nullptr;
  int steps = 6, repeats = 3;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--trace-overhead") == 0) {
      traceOverhead = true;
    } else if (std::strcmp(arg, "--fault-overhead") == 0) {
      faultOverhead = true;
    } else if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      jsonPath = arg + 7;
    } else if (arg[0] == '-') {
      // A typo'd flag must not silently become steps=0 and run the sweep.
      std::fprintf(stderr,
                   "unknown option %s — usage: bench_particle_pipeline "
                   "[--trace-overhead] [--fault-overhead] "
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

  if (traceOverhead) {
    // Overhead mode: fused pipeline, instrumentation runtime-off vs
    // runtime-on (spans recorded into the rings, nothing flushed).
    // Best-of-repeats on both sides damps scheduler noise.
    const int threads = haveOmp ? 8 : 1;
    setThreads(threads);
    auto& rec = obs::TraceRecorder::instance();
    rec.setEnabled(false);
    const double offRate = particleUpdateRate(steps, repeats);
    rec.setEnabled(true);
    const double onRate = particleUpdateRate(steps, repeats);
    rec.setEnabled(false);
    const std::size_t spans = rec.eventCount();
    const double ratio = onRate / offRate;
    const bool pass = spans > 0;
    std::printf(
        "trace overhead: fused KHI 32x64x8 ppc 9, %d steps, best of %d, "
        "%d threads\n"
        "  tracing off: %.3e p/s\n"
        "  tracing on:  %.3e p/s  (%zu spans recorded)\n"
        "  on/off = %.4f (reported, not gated)\n"
        "  spans recorded -> %s\n",
        steps, repeats, threads, offRate, onRate, spans, ratio,
        pass ? "PASS" : "FAIL");
    if (jsonPath != nullptr) {
      std::FILE* f = std::fopen(jsonPath, "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", jsonPath);
        return 2;
      }
      std::fprintf(f,
                   "{\n"
                   "  \"bench\": \"trace_overhead\",\n"
                   "  \"setup\": \"khi_quick_demo_32x64x8_ppc9_fused\",\n"
                   "  \"threads\": %d,\n"
                   "  \"steps\": %d,\n"
                   "  \"spans\": %zu,\n"
                   "  \"ratio\": %.4f,\n"
                   "  \"pass\": %s\n"
                   "}\n",
                   threads, steps, spans, ratio, pass ? "true" : "false");
      std::fclose(f);
    }
    return pass ? 0 : 1;
  }

  if (faultOverhead) {
    // Fault-hook overhead: disarmed (production: one relaxed atomic load
    // per FAULT_POINT) vs armed with a rule that matches no real site
    // (worst case short of injecting: per-hit counting plus a rule scan on
    // every pass). Sites sit on step boundaries, so even the armed slow
    // path should be invisible on the particle-update FOM.
    const int threads = haveOmp ? 8 : 1;
    setThreads(threads);
    fault::Plan::global().disarm();
    const double offRate = particleUpdateRate(steps, repeats);
    fault::Plan::global().arm(
        fault::Plan::parseSpec("bench.never@1:error"));
    const double onRate = particleUpdateRate(steps, repeats);
    const auto hits = fault::Plan::global().siteHits();
    fault::Plan::global().disarm();
    const auto it = hits.find("pic.step");
    const std::uint64_t picHits = it == hits.end() ? 0 : it->second;
    const double ratio = onRate / offRate;
    // picHits > 0 guards against vacuity: the hook must actually sit on
    // the measured path (a FAULT_POINT moved off it records 0 and fails
    // here).
    const bool pass = picHits > 0;
    std::printf(
        "fault-point overhead: fused KHI 32x64x8 ppc 9, %d steps, best of "
        "%d, %d threads\n"
        "  disarmed:             %.3e p/s\n"
        "  armed (non-matching): %.3e p/s  (%llu pic.step hits counted)\n"
        "  armed/disarmed = %.4f (reported, not gated)\n"
        "  pic.step hit while armed -> %s\n",
        steps, repeats, threads, offRate, onRate,
        static_cast<unsigned long long>(picHits), ratio,
        pass ? "PASS" : "FAIL");
    if (jsonPath != nullptr) {
      std::FILE* f = std::fopen(jsonPath, "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", jsonPath);
        return 2;
      }
      std::fprintf(f,
                   "{\n"
                   "  \"bench\": \"fault_overhead\",\n"
                   "  \"setup\": \"khi_quick_demo_32x64x8_ppc9_fused\",\n"
                   "  \"threads\": %d,\n"
                   "  \"steps\": %d,\n"
                   "  \"site_hits\": %llu,\n"
                   "  \"ratio\": %.4f,\n"
                   "  \"pass\": %s\n"
                   "}\n",
                   threads, steps, static_cast<unsigned long long>(picHits),
                   ratio, pass ? "true" : "false");
      std::fclose(f);
    }
    return pass ? 0 : 1;
  }

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
