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

std::string cloudPath(int region) {
  return std::string("particles/e/phasespace/") +
         pic::khiRegionName(static_cast<pic::KhiRegion>(region));
}

std::string spectrumPath(int region) {
  return std::string("meshes/radiation/") +
         pic::khiRegionName(static_cast<pic::KhiRegion>(region));
}

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

/// Write one emission's samples as iteration `index` of both streams:
/// each sample's cloud at cloudPath(region) and its spectrum at
/// spectrumPath(region). The inverse of readSamples.
void writeSamples(openpmd::Series& particles, openpmd::Series& radiation,
                  long index, double time, double dt,
                  std::vector<Sample> samples) {
  auto itP = particles.writeIteration(index);
  auto itR = radiation.writeIteration(index);
  itP.setTime(time, dt);
  itR.setTime(time, dt);
  for (Sample& sample : samples) {
    const char* region =
        pic::khiRegionName(static_cast<pic::KhiRegion>(sample.region));
    const long P = static_cast<long>(sample.cloud.size() / 6);
    const long S = static_cast<long>(sample.spectrum.size());
    itP.particles("e").record("phasespace").component(region).storeChunk(
        std::move(sample.cloud), {0, 0}, {P, 6}, {P, 6});
    itR.mesh("radiation").component(region).storeChunk(
        std::move(sample.spectrum), {0}, {S}, {S});
  }
  itP.close();
  itR.close();
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

  KhiSampleSource source(cfg.producer);
  // Built here so that they outlive the producer thread: a producer that
  // throws fails both channels before either series closes, so the
  // consumer never sees a clean end of stream ahead of the abort.
  openpmd::Series particleWrite(
      "particles", openpmd::Access::kCreate,
      openpmd::StreamBackend::forWriter(particleEngine, 0));
  openpmd::Series radiationWrite(
      "radiation", openpmd::Access::kCreate,
      openpmd::StreamBackend::forWriter(radiationEngine, 0));
  std::string producerFault;
  std::mutex producerFaultMutex;
  // The step deadline bounds the wait for a streamed step, not the
  // warm-up before the first one: the consumer starts reading only once
  // the source has warmed up (or failed trying, which aborts both
  // streams first).
  std::promise<void> warmedUp;
  std::future<void> streaming = warmedUp.get_future();
  std::thread producerThread([&] {
    bool released = false;
    try {
      source.warmUp();
      warmedUp.set_value();
      released = true;
      for (long index = 0; auto samples = source.next(); ++index)
        writeSamples(particleWrite, radiationWrite, index, source.time(),
                     source.dt(), std::move(*samples));
      particleWrite.close();
      radiationWrite.close();
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
  KhiSampleSource source(cfg);
  std::vector<Sample> collected;
  while (auto samples = source.next())
    for (Sample& sample : *samples) collected.push_back(std::move(sample));
  return collected;
}

}  // namespace artsci::core
