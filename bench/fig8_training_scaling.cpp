/// Fig 8 reproduction: weak scaling of the in-transit training.
///
/// Paper: 8 -> 96 Frontier nodes (32 -> 384 GCDs), batch 8 per GCD;
/// single-batch times averaged after removing > 4 sigma outliers;
/// efficiency relative to the smallest size falls to ~35 % at 96 nodes,
/// with ~30 % of the deficit attributed to the DDP all-reduce and the
/// rest to the replicated MMD computation with its graph-breaking
/// all-gather.
///
///   ./bench/bench_fig8_training_scaling [--json <path>]
///
/// The measured part prints the host's hardware thread count and marks
/// rank counts above it as oversubscribed: those rows get no efficiency
/// figure and are left out of the --json record, which holds the
/// measured per-rank batch times and efficiencies (CI uploads it as the
/// BENCH_fig8 artifact). Its "collective" column is the trainer's
/// `TrainStats::commSeconds` per batch: the optimizer collective's
/// barriers, rank-ordered gradient reduction and weight copies into every
/// replica, without the sharded Adam arithmetic — the communication
/// share of each batch.
#include <cstdio>
#include <cstring>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "cluster/collectives.hpp"
#include "common/ascii.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/trainer.hpp"

using namespace artsci;

namespace {

core::Sample syntheticSample(Rng& rng, long points, long specDim) {
  core::Sample s;
  s.cloud.resize(static_cast<std::size_t>(points) * 6);
  for (auto& v : s.cloud) v = rng.normal(0, 0.4);
  s.spectrum.resize(static_cast<std::size_t>(specDim));
  for (auto& v : s.spectrum) v = 0.4 + rng.normal(0, 0.05);
  s.region = 0;
  return s;
}

struct BatchTimes {
  double batch = 0;       ///< mean per-batch time, > 4 sigma outliers removed
  double collective = 0;  ///< mean rank-0 time in the optimizer collective
};

/// Per-batch times for a rank count (real thread-DDP training).
/// OpenMP inside the op kernels is disabled (see main) so the rank
/// threads are the only parallelism (one "GCD" = one core, as in the
/// paper's GCD mapping).
BatchTimes measuredBatchSeconds(std::size_t ranks, long iterations) {
  core::TrainerConfig tcfg;
  tcfg.ranks = ranks;
  auto mcfg = core::ArtificialScientistModel::Config::reduced();
  core::InTransitTrainer trainer(mcfg, tcfg);
  Rng rng(17);
  for (int i = 0; i < 30; ++i)
    trainer.buffer().push(syntheticSample(rng, 64, mcfg.spectrumDim));
  trainer.trainIterations(2);  // warm-up
  const double comm0 = trainer.stats().commSeconds;
  std::vector<double> times;
  for (long it = 0; it < iterations; ++it) {
    Timer t;
    trainer.trainIterations(1);
    times.push_back(t.seconds());
  }
  // The paper removes > 4 sigma outliers before averaging.
  return {stats::mean(stats::removeOutliers(times, 4.0)),
          (trainer.stats().commSeconds - comm0) /
              static_cast<double>(iterations)};
}

}  // namespace

int main(int argc, char** argv) {
  // The measured part maps one rank thread to one "GCD", so OpenMP inside
  // the kernels must be off. The trainer's rank threads take the team
  // size of the thread that calls trainIterations, this one.
#ifdef _OPENMP
  omp_set_num_threads(1);
#endif
  const char* jsonPath = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      jsonPath = arg + 7;
    } else {
      std::fprintf(stderr,
                   "unknown option %s — usage: bench_fig8_training_scaling "
                   "[--json <path>]\n",
                   arg);
      return 2;
    }
  }
  std::printf("==============================================================\n");
  std::printf("Fig 8 — weak scaling of in-transit training (efficiency %%)\n");
  std::printf("==============================================================\n\n");

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("[A] Measured: thread-rank DDP on this machine, batch 8/rank,\n");
  std::printf("    reduced model preset, >4-sigma outliers removed\n");
  std::printf("    host: %u hardware threads; rank counts above that are\n"
              "    oversubscribed (no efficiency, not recorded)\n\n",
              cores);
  std::vector<std::size_t> rankAxis;
  std::vector<double> batchSeconds, collectiveSeconds, efficiencies;
  {
    std::vector<std::vector<std::string>> rows;
    double t1 = 0;
    for (std::size_t ranks : {1u, 2u, 4u, 8u}) {
      const BatchTimes m = measuredBatchSeconds(ranks, 10);
      const double t = m.batch;
      if (ranks == 1) t1 = t;
      const std::string collective = ascii::num(m.collective * 1e3, 2) + " ms";
      if (cores > 0 && ranks > cores) {
        rows.push_back({std::to_string(ranks),
                        ascii::num(t * 1e3, 2) + " ms", collective,
                        "oversubscribed"});
        continue;
      }
      rankAxis.push_back(ranks);
      batchSeconds.push_back(t);
      collectiveSeconds.push_back(m.collective);
      efficiencies.push_back(100.0 * t1 / t);
      rows.push_back({std::to_string(ranks),
                      ascii::num(t * 1e3, 2) + " ms", collective,
                      ascii::num(100.0 * t1 / t, 1) + " %"});
    }
    std::printf("%s\n",
                ascii::table({"ranks", "per-batch time", "collective",
                              "efficiency"},
                             rows)
                    .c_str());
  }

  std::printf("[B] Modeled: Frontier 8 -> 96 nodes (32 -> 384 GCDs),\n");
  std::printf("    paper-scale model (~4.3M params, 17.2 MB gradients)\n\n");
  const auto frontier = cluster::ClusterSpec::frontier();
  const cluster::TrainingScalingModel model;
  std::vector<double> nodesAxis, effSeries;
  std::vector<std::vector<std::string>> rows;
  for (long gcds : {32L, 64L, 96L, 128L, 192L, 256L, 320L, 384L}) {
    const auto cost = cluster::trainingBatchCost(frontier, gcds, model);
    const double eff =
        100.0 * cluster::trainingEfficiency(frontier, gcds, model);
    nodesAxis.push_back(static_cast<double>(gcds) / 4.0);  // nodes
    effSeries.push_back(eff);
    rows.push_back({std::to_string(gcds / 4), std::to_string(gcds),
                    ascii::num(cost.total * 1e3, 1) + " ms",
                    ascii::num(cost.allReduceExposed * 1e3, 1) + " ms",
                    ascii::num(cost.mmd * 1e3, 1) + " ms",
                    ascii::num(eff, 1) + " %"});
  }
  std::printf("%s\n",
              ascii::table({"nodes", "GCDs", "batch time", "allreduce",
                            "MMD (replicated)", "efficiency"},
                           rows)
                  .c_str());
  std::printf("%s\n",
              ascii::plot(nodesAxis, {{"efficiency [%]", effSeries, '*'}},
                          72, 16, false, false,
                          "Fig 8 shape: efficiency vs nodes")
                  .c_str());
  std::printf(
      "paper: ~100%% at 8 nodes falling to ~35%% at 96 nodes; all-reduce\n"
      "accounts for ~30%% deficit, MMD's replicated work for the rest\n");

  if (jsonPath != nullptr) {
    std::FILE* f = std::fopen(jsonPath, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", jsonPath);
      return 2;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"fig8_training_weak_scaling\",\n"
                 "  \"setup\": \"thread_ddp_reduced_model_batch8\",\n"
                 "  \"host_cores\": %u,\n"
                 "  \"measured\": [\n",
                 cores);
    for (std::size_t i = 0; i < rankAxis.size(); ++i) {
      std::fprintf(f,
                   "    {\"ranks\": %zu, \"batch_seconds\": %.6f, "
                   "\"collective_seconds\": %.6f, "
                   "\"efficiency_pct\": %.2f}%s\n",
                   rankAxis[i], batchSeconds[i], collectiveSeconds[i],
                   efficiencies[i],
                   i + 1 < rankAxis.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }
  return 0;
}
