#include "core/pipeline.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/log.hpp"
#include "common/timer.hpp"
#include "core/checkpoint.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"

namespace artsci::core {
namespace {

/// Fixes glibc's mmap threshold at its 128 KiB default, once per process.
/// Left dynamic, glibc raises the threshold to the size of every mapped
/// block freed (up to 32 MiB), and from then on the producer's particle,
/// deposit and per-thread scratch buffers are carved from per-thread
/// arenas, which keep freed pages resident. Every run starts a new
/// producer thread and OpenMP team; whether those threads reuse an idle
/// arena or open a new one depends on when the previous team's threads
/// exited, so the peak resident size of two identical runs could differ
/// by a quarter. With the threshold fixed, large blocks are mapped on
/// allocation and returned to the system on free.
void fixMmapThreshold() {
#if defined(__GLIBC__)
  static std::once_flag once;
  std::call_once(once, [] { mallopt(M_MMAP_THRESHOLD, 128 * 1024); });
#endif
}

/// Read the next iteration of both streams and decode its samples: one
/// per region whose cloud and spectrum both arrived, in region order, with
/// the records moved out of the iteration. Empty at end of stream.
std::optional<std::vector<Sample>> readSamples(openpmd::Series& particles,
                                               openpmd::Series& radiation) {
  auto itP = particles.readNextIteration();
  auto itR = radiation.readNextIteration();
  if (!itP || !itR) return std::nullopt;
  ARTSCI_CHECK_MSG(itP->index == itR->index,
                   "particle / radiation streams out of sync");
  std::vector<Sample> samples;
  for (int r = 0; r < 3; ++r) {
    const auto pIt = itP->data.find(cloudPath(r));
    const auto sIt = itR->data.find(spectrumPath(r));
    if (pIt == itP->data.end() || sIt == itR->data.end()) continue;
    Sample sample;
    sample.cloud = std::move(pIt->second);
    sample.spectrum = std::move(sIt->second);
    sample.region = r;
    sample.step = itP->index;
    samples.push_back(std::move(sample));
  }
  return samples;
}

}  // namespace

PipelineConfig PipelineConfig::quickDemo() {
  PipelineConfig cfg;
  cfg.producer.khi.grid = pic::GridSpec{16, 32, 4, 0.25, 0.25, 0.25};
  cfg.producer.khi.dt = 0.1;
  cfg.producer.khi.particlesPerCell = 4;
  cfg.producer.warmupSteps = 5;
  cfg.producer.totalSteps = 30;
  cfg.producer.streamEvery = 2;
  cfg.producer.transform.cloudPoints = 128;
  cfg.producer.frequencyCount = 32;
  cfg.trainer.ranks = 2;
  cfg.model = ArtificialScientistModel::Config::reduced();
  cfg.nRep = 4;
  return cfg;
}

PipelineResult runPipeline(const PipelineConfig& cfg,
                           InTransitTrainer& trainer) {
  ARTSCI_EXPECTS_MSG(
      static_cast<long>(cfg.producer.frequencyCount) ==
          cfg.model.spectrumDim,
      "producer frequencyCount must equal the model's spectrumDim");
  fixMmapThreshold();

  Timer wall;
  auto particleEngine = std::make_shared<stream::SstEngine>(stream::SstParams{
      1, 1, cfg.queueLimit, cfg.streamStepTimeoutMicros});
  auto radiationEngine = std::make_shared<stream::SstEngine>(stream::SstParams{
      1, 1, cfg.queueLimit, cfg.streamStepTimeoutMicros});

  // The two channels fail as one: a producer that died on the particle
  // channel must also wake a consumer blocked on the radiation channel
  // (and vice versa), or the degraded shutdown deadlocks on the partner
  // stream.
  const auto failBoth = [&](const std::string& reason) {
    particleEngine->abort(reason);
    radiationEngine->abort(reason);
  };

  KhiStreamProducer producer(cfg.producer, particleEngine, radiationEngine);
  std::string producerFault;
  std::mutex producerFaultMutex;
  // The step deadline bounds the wait for a streamed step, not the
  // warm-up before the first one: the consumer starts reading only once
  // the producer has warmed up (or failed trying, which aborts both
  // streams first).
  std::promise<void> warmedUp;
  std::future<void> streaming = warmedUp.get_future();
  std::thread producerThread([&] {
    bool released = false;
    try {
      producer.warmUp();
      warmedUp.set_value();
      released = true;
      producer.run();
    } catch (const std::exception& e) {
      {
        std::lock_guard<std::mutex> lock(producerFaultMutex);
        producerFault = e.what();
      }
      failBoth(std::string("producer failed: ") + e.what());
    }
    if (!released) warmedUp.set_value();
  });

  PipelineResult result;
  try {
    openpmd::Series particleRead(
        "particles", openpmd::Access::kRead,
        openpmd::StreamBackend::forReader(particleEngine, 0));
    openpmd::Series radiationRead(
        "radiation", openpmd::Access::kRead,
        openpmd::StreamBackend::forReader(radiationEngine, 0));
    std::unique_ptr<CheckpointManager> checkpoints;
    if (!cfg.checkpointDir.empty() && cfg.checkpointEvery > 0)
      checkpoints = std::make_unique<CheckpointManager>(cfg.checkpointDir,
                                                        cfg.checkpointKeep);
    // Periodic one-line step report over the global registry (particles/s,
    // trainer ms/step, replay occupancy, ...) at info level, one line per
    // `stepReportEvery` streamed steps.
    obs::StepReporter reporter(obs::Registry::global(), cfg.stepReportEvery);
    streaming.wait();
    while (auto samples = readSamples(particleRead, radiationRead)) {
      for (Sample& sample : *samples) {
        trainer.buffer().push(std::move(sample));
        ++result.samplesReceived;
      }
      ++result.iterationsStreamed;
      // n_rep training iterations per streamed step (the training-buffer
      // decoupling of §IV-C).
      trainer.trainIterations(cfg.nRep);
      if (checkpoints &&
          result.iterationsStreamed % cfg.checkpointEvery == 0) {
        try {
          checkpoints->save(trainer,
                            {result.iterationsStreamed,
                             trainer.stats().iterations});
          ++result.checkpointsWritten;
        } catch (const std::exception& e) {
          // A failed (possibly torn) checkpoint write never takes the
          // pipeline down — the previous intact rotation still covers us.
          log::warn("ckpt", std::string("checkpoint failed: ") + e.what());
          result.faultNote = std::string("checkpoint failed: ") + e.what();
        }
      }
      if (cfg.stepReportEvery > 0) {
        if (const auto line = reporter.onStep()) log::info("obs", *line);
      }
    }
  } catch (const stream::StreamError& e) {
    // Peer failure / step deadline: degrade. Fail both channels so the
    // producer (possibly blocked on the partner stream) unwinds too.
    result.degraded = true;
    result.faultNote = e.what();
    failBoth(std::string("consumer stopped: ") + e.what());
  } catch (const fault::FaultInjectedError& e) {
    result.degraded = true;
    result.faultNote = e.what();
    failBoth(std::string("consumer stopped: ") + e.what());
  } catch (...) {
    // Anything else (a trainer's ContractError) is the caller's: stop the
    // producer first, or its joinable thread would terminate the process.
    failBoth("consumer failed");
    producerThread.join();
    throw;
  }
  producerThread.join();
  {
    std::lock_guard<std::mutex> lock(producerFaultMutex);
    if (!producerFault.empty()) {
      result.degraded = true;
      if (result.faultNote.empty())
        result.faultNote = "producer failed: " + producerFault;
    }
  }

  result.train = trainer.stats();
  result.bytesStreamed =
      particleEngine->bytesPublished() + radiationEngine->bytesPublished();
  result.producerStallSeconds = particleEngine->writerStallSeconds() +
                                radiationEngine->writerStallSeconds();
  result.wallSeconds = wall.seconds();
  return result;
}

PipelineRun runPipeline(const PipelineConfig& cfg) {
  PipelineRun run;
  run.trainer = std::make_unique<InTransitTrainer>(cfg.model, cfg.trainer);
  run.result = runPipeline(cfg, *run.trainer);
  return run;
}

std::vector<Sample> collectSamples(const ProducerConfig& cfg) {
  auto particleEngine =
      std::make_shared<stream::SstEngine>(stream::SstParams{1, 1, 4});
  auto radiationEngine =
      std::make_shared<stream::SstEngine>(stream::SstParams{1, 1, 4});
  KhiStreamProducer producer(cfg, particleEngine, radiationEngine);
  std::exception_ptr producerError;
  std::thread producerThread([&] {
    try {
      producer.run();
    } catch (...) {
      // Wake the reader, which would otherwise wait for the next step.
      producerError = std::current_exception();
      particleEngine->abort("producer failed");
      radiationEngine->abort("producer failed");
    }
  });

  std::vector<Sample> collected;
  std::exception_ptr readError;
  try {
    openpmd::Series particleRead(
        "particles", openpmd::Access::kRead,
        openpmd::StreamBackend::forReader(particleEngine, 0));
    openpmd::Series radiationRead(
        "radiation", openpmd::Access::kRead,
        openpmd::StreamBackend::forReader(radiationEngine, 0));
    while (auto samples = readSamples(particleRead, radiationRead))
      for (Sample& sample : *samples) collected.push_back(std::move(sample));
  } catch (const stream::StreamError&) {
    readError = std::current_exception();
  } catch (...) {
    // As in runPipeline: stop and join the producer, then rethrow.
    particleEngine->abort("consumer failed");
    radiationEngine->abort("consumer failed");
    producerThread.join();
    throw;
  }
  producerThread.join();
  if (producerError) std::rethrow_exception(producerError);
  if (readError) std::rethrow_exception(readError);
  return collected;
}

}  // namespace artsci::core
