/// Quickstart: the whole Artificial Scientist in ~30 lines of user code.
///
/// A KHI plasma simulation streams particle phase-space and radiation
/// spectra through in-memory openPMD/nanoSST channels into an ML trainer
/// that learns the radiation -> particle-dynamics inversion on the fly.
///
///   ./examples/quickstart [steps=40] [ranks=2] [nrep=4]
#include <cstdio>
#include <exception>

#include "common/config.hpp"
#include "core/pipeline.hpp"
#include "fault/fault.hpp"

int main(int argc, char** argv) try {
  using namespace artsci;
  const Config cli = Config::fromArgs(argc, argv, {"steps", "ranks", "nrep"});
  // Chaos on demand: ARTSCI_FAULT_PLAN="sst.writer.end_step@3:die" etc.
  // arms the deterministic fault schedule (src/fault) for this run.
  fault::Plan::global().armFromEnv();

  // 1. Configure the pipeline (producer = PIC + radiation detector,
  //    consumer = replay buffer + DDP trainer). quickDemo() is a
  //    CPU-friendly preset; every knob is adjustable.
  auto cfg = core::PipelineConfig::quickDemo();
  cfg.producer.totalSteps = cli.getInt("steps", 40);
  cfg.trainer.ranks = static_cast<std::size_t>(cli.getInt("ranks", 2));
  cfg.nRep = cli.getInt("nrep", 4);

  std::printf("Artificial Scientist quickstart\n");
  std::printf("  KHI box: %ldx%ldx%ld cells, beta=%.1f, %d ppc\n",
              cfg.producer.khi.grid.nx, cfg.producer.khi.grid.ny,
              cfg.producer.khi.grid.nz, cfg.producer.khi.beta,
              cfg.producer.khi.particlesPerCell);
  std::printf("  training: %zu DDP ranks, n_rep=%ld, batch 4 now + 4 replay\n\n",
              cfg.trainer.ranks, cfg.nRep);

  // 2. Run it. The producer and consumer are concurrent applications
  //    coupled only by the stream (loose coupling) — no file I/O.
  auto run = core::runPipeline(cfg);

  // 3. Look at what happened.
  const auto& r = run.result;
  if (r.degraded)
    std::printf("DEGRADED   : %s (model below trained on the data that "
                "arrived)\n",
                r.faultNote.c_str());
  std::printf("streamed   : %ld iterations, %zu samples, %.2f MB in-memory\n",
              r.iterationsStreamed, r.samplesReceived,
              static_cast<double>(r.bytesStreamed) / 1e6);
  std::printf("trained    : %ld batches on %zu ranks in %.2f s\n",
              r.train.iterations, cfg.trainer.ranks, r.train.trainSeconds);
  std::printf("backpressure stalled the simulation for %.3f s\n",
              r.producerStallSeconds);
  if (!r.train.lossHistory.empty()) {
    std::printf("loss       : %.4f -> %.4f (Eq. 1 of the paper)\n",
                r.train.lossHistory.front(), r.train.lossHistory.back());
    std::printf("  chamfer  : %.4f -> %.4f\n", r.train.chamferHistory.front(),
                r.train.chamferHistory.back());
    std::printf("  mse(I)   : %.4f -> %.4f\n", r.train.mseHistory.front(),
                r.train.mseHistory.back());
  }
  std::printf("\nNext: examples/inverse_problem inverts spectra with the "
              "trained model;\nbench/fig9_inversion reproduces the paper's "
              "evaluation.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
