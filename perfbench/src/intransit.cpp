/// In-transit workloads: the KHI PIC producer streaming through openPMD /
/// nanoSST into the experience-replay DDP trainer.
///
/// Untraced, the run calls core::runPipeline and nothing else. Traced, it
/// first makes that same call (the untraced reference), then replays the
/// pipeline from the same public calls runPipeline and KhiStreamProducer
/// make, each wrapped in a span whose shared id is the streamed-step
/// index, and finally repeats trainIterations(n_rep) alone.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "common/log.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace artsci;

/// Streamed steps per second of --seconds: both workloads take ~65 ms per
/// streamed step on a 4-core x86 host, so --seconds 10 streams 150 steps.
constexpr double kStreamedStepsPerSecond = 15.0;
// The timed figures are read from the best tenth of 15 slices of the
// step periods (about 10 steps each at --seconds 10); see kBestTenth.
constexpr long kSlices = 15;

core::PipelineConfig workloadConfig(const RunOptions& opts) {
  auto cfg = core::PipelineConfig::quickDemo();
  if (opts.workload == "intransit_train") {
    cfg.nRep = 8;  // quickDemo box, one streamed step every 2 PIC steps
  } else {
    cfg.producer.khi.grid = pic::GridSpec{32, 64, 8, 0.25, 0.25, 0.25};
    cfg.producer.streamEvery = 1;
    cfg.nRep = 1;
  }
  const long streamed = std::max(
      4L, std::lround(opts.seconds * kStreamedStepsPerSecond));
  cfg.producer.totalSteps = streamed * cfg.producer.streamEvery;
  cfg.producer.seed = deriveSeed(opts.seed, 1);
  cfg.producer.khi.seed = deriveSeed(opts.seed, 2);
  cfg.trainer.seed = deriveSeed(opts.seed, 3);
  return cfg;
}

long expectedStreamedSteps(const core::PipelineConfig& cfg) {
  return cfg.producer.totalSteps / cfg.producer.streamEvery;
}

/// Training iterations the config implies: trainIterations is a no-op
/// until the now-buffer holds a batch (3 samples arrive per step).
long expectedIterations(const core::PipelineConfig& cfg) {
  const auto& buf = cfg.trainer.buffer;
  long iters = 0;
  for (long k = 1; k <= expectedStreamedSteps(cfg); ++k) {
    const auto held = std::min<std::size_t>(3 * static_cast<std::size_t>(k),
                                            buf.nowCapacity);
    if (held >= buf.nowPerBatch) iters += cfg.nRep;
  }
  return iters;
}

/// Output checks shared by the untraced and the traced pipeline.
void checkPipelineOutputs(Report& report, const core::PipelineConfig& cfg,
                          const core::PipelineResult& res,
                          const core::TrainStats& stats, const char* which) {
  const std::string tag = std::string(which) + ": ";
  const long steps = expectedStreamedSteps(cfg);
  report.check(!res.degraded, tag + "run did not degrade (" + res.faultNote +
                                  ")");
  report.check(res.iterationsStreamed == steps,
               tag + "streamed steps " + std::to_string(res.iterationsStreamed) +
                   " == " + std::to_string(steps));
  report.check(res.samplesReceived == 3 * static_cast<std::size_t>(steps),
               tag + "samples " + std::to_string(res.samplesReceived) +
                   " == " + std::to_string(3 * steps));
  report.check(stats.iterations == expectedIterations(cfg),
               tag + "train iterations " + std::to_string(stats.iterations) +
                   " == " + std::to_string(expectedIterations(cfg)));
  const auto allFinite = [](const std::vector<double>& xs) {
    return std::all_of(xs.begin(), xs.end(),
                       [](double x) { return std::isfinite(x); });
  };
  const auto n = static_cast<std::size_t>(stats.iterations);
  report.check(stats.lossHistory.size() == n &&
                   stats.chamferHistory.size() == n &&
                   stats.mseHistory.size() == n &&
                   stats.mmdLatentHistory.size() == n,
               tag + "one loss entry per iteration");
  report.check(allFinite(stats.lossHistory) &&
                   allFinite(stats.chamferHistory) &&
                   allFinite(stats.mseHistory) &&
                   allFinite(stats.mmdLatentHistory),
               tag + "every loss term is finite");
  report.check(n >= 2 && stats.lossHistory.back() < stats.lossHistory.front(),
               tag + "final total loss is below the first");
}

bool sameHistory(const core::TrainStats& a, const core::TrainStats& b) {
  return a.lossHistory == b.lossHistory &&
         a.chamferHistory == b.chamferHistory &&
         a.mseHistory == b.mseHistory &&
         a.mmdLatentHistory == b.mmdLatentHistory;
}

/// Polls the trainer's public iteration counter and stamps the moment each
/// streamed step's n_rep iterations completed. One light thread, 1 ms poll.
class StepCompletionClock {
 public:
  explicit StepCompletionClock(long itersPerStep)
      : counter_(obs::Registry::global().counter("train.iterations")),
        base_(counter_.value()), itersPerStep_(itersPerStep),
        thread_([this] { loop(); }) {}
  ~StepCompletionClock() { stop(); }
  StepCompletionClock(const StepCompletionClock&) = delete;
  StepCompletionClock& operator=(const StepCompletionClock&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Milliseconds between successive streamed steps finishing training.
  std::vector<double> periodsMs() const {
    std::vector<double> out;
    for (std::size_t i = 1; i < completionsNs_.size(); ++i)
      out.push_back(1e-6 *
                    static_cast<double>(completionsNs_[i] - completionsNs_[i - 1]));
    return out;
  }

 private:
  void loop() {
    std::uint64_t next = static_cast<std::uint64_t>(itersPerStep_);
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const std::uint64_t done = counter_.value() - base_;
      const std::int64_t now = nowNs();
      for (; done >= next; next += static_cast<std::uint64_t>(itersPerStep_))
        completionsNs_.push_back(now);
    }
  }

  obs::Counter& counter_;
  const std::uint64_t base_;
  const long itersPerStep_;
  std::atomic<bool> stop_{false};
  std::vector<std::int64_t> completionsNs_;
  std::thread thread_;  // last: starts after the members it uses
};

double medianSetupSeconds(const core::PipelineConfig& cfg, int reps) {
  auto setupCfg = cfg;
  setupCfg.producer.totalSteps = 0;
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    core::InTransitTrainer trainer(setupCfg.model, setupCfg.trainer);
    const auto res = core::runPipeline(setupCfg, trainer);
    secs.push_back(t.seconds());
    ARTSCI_CHECK_MSG(!res.degraded, "set-up pipeline degraded");
  }
  return median(secs);
}

// --- traced copy -----------------------------------------------------------

/// Times the radiation plugin inside Simulation::step.
class TimedPlugin : public pic::Plugin {
 public:
  TimedPlugin(std::shared_ptr<pic::Plugin> inner, SpanLog& log,
              const long& stepId)
      : inner_(std::move(inner)), log_(log), stepId_(stepId) {}
  const char* name() const override { return inner_->name(); }
  void onStepEnd(pic::Simulation& sim) override {
    ScopedSpan span(log_, "radiation.plugin", stepId_);
    inner_->onStepEnd(sim);
  }

 private:
  std::shared_ptr<pic::Plugin> inner_;
  SpanLog& log_;
  const long& stepId_;
};

/// core::KhiStreamProducer, call for call, with spans.
class TracedProducer {
 public:
  TracedProducer(const core::ProducerConfig& cfg,
                 std::shared_ptr<stream::SstEngine> particleStream,
                 std::shared_ptr<stream::SstEngine> radiationStream,
                 SpanLog& log)
      : cfg_(cfg), log_(log), rng_(cfg.seed) {
    pic::SimulationConfig sc;
    sc.grid = cfg_.khi.grid;
    sc.dt = cfg_.khi.dt;
    sc.recordBetaDot = true;
    sim_ = std::make_unique<pic::Simulation>(sc);
    species_ = pic::initializeKhi(*sim_, cfg_.khi);

    radiation::DetectorConfig det;
    det.directions = {Vec3d{1.0, 0.0, 0.0}};
    det.frequencies = radiation::logFrequencyAxis(
        cfg_.omegaMin, cfg_.omegaMax, cfg_.frequencyCount);
    radiation_ = std::make_shared<radiation::RegionRadiationPlugin>(
        det, species_.electrons, cfg_.transform.vortexHalfWidthCells);
    sim_->addPlugin(std::make_shared<TimedPlugin>(radiation_, log_, stepId_));

    particleSeries_ = std::make_unique<openpmd::Series>(
        "particles", openpmd::Access::kCreate,
        openpmd::StreamBackend::forWriter(std::move(particleStream), 0));
    radiationSeries_ = std::make_unique<openpmd::Series>(
        "radiation", openpmd::Access::kCreate,
        openpmd::StreamBackend::forWriter(std::move(radiationStream), 0));
  }

  void run() {
    stepId_ = -1;  // warm-up steps belong to no streamed step
    for (long s = 0; s < cfg_.warmupSteps; ++s) step();
    for (long s = 0; s < cfg_.totalSteps; ++s) {
      stepId_ = streamed_;
      step();
      if ((s + 1) % cfg_.streamEvery == 0) emitIteration(streamed_);
    }
    ScopedSpan span(log_, "stream.close");
    particleSeries_->close();
    radiationSeries_->close();
  }

  double particleUpdates() const { return sim_->fom().particleUpdates; }

 private:
  void step() {
    ScopedSpan span(log_, "pic.step", stepId_);
    sim_->step();
  }

  void emitIteration(long index) {
    const auto& electrons = sim_->species(species_.electrons);
    const long P = cfg_.transform.cloudPoints;
    const long S = static_cast<long>(cfg_.frequencyCount);

    const std::size_t open = log_.open("openpmd.write", index);
    auto itParticles = particleSeries_->writeIteration(index);
    auto itRadiation = radiationSeries_->writeIteration(index);
    itParticles.setTime(sim_->time(), sim_->dt());
    itRadiation.setTime(sim_->time(), sim_->dt());
    log_.close(open);

    for (int r = 0; r < 3; ++r) {
      const auto region = static_cast<pic::KhiRegion>(r);
      std::vector<double> cloud;
      {
        ScopedSpan span(log_, "core.transform", index);
        cloud = core::extractRegionCloud(electrons, sim_->grid().ny, region,
                                         cfg_.transform, rng_);
      }
      if (cloud.empty()) {
        log::warn("perfbench", "region ", pic::khiRegionName(region),
                  " has too few particles; skipping sample");
        continue;
      }
      {
        ScopedSpan span(log_, "openpmd.write", index);
        itParticles.particles("e")
            .record("phasespace")
            .component(pic::khiRegionName(region))
            .storeChunk(std::move(cloud), {0, 0}, {P, 6}, {P, 6});
      }
      std::vector<double> raw;
      {
        ScopedSpan span(log_, "radiation.readout", index);
        raw = radiation_->accumulator(region).intensity(0);
      }
      std::vector<double> spectrum;
      {
        ScopedSpan span(log_, "core.transform", index);
        spectrum = core::normalizeSpectrum(raw, cfg_.transform);
      }
      {
        ScopedSpan span(log_, "openpmd.write", index);
        itRadiation.mesh("radiation")
            .component(pic::khiRegionName(region))
            .storeChunk(std::move(spectrum), {0}, {S}, {S});
      }
    }
    {
      ScopedSpan span(log_, "stream.publish", index);
      itParticles.close();
    }
    {
      ScopedSpan span(log_, "stream.publish", index);
      itRadiation.close();
    }
    ++streamed_;
    ScopedSpan span(log_, "radiation.readout", index);
    for (int r = 0; r < 3; ++r) {
      // Windowed spectra, as the producer resets them after each emission.
      const_cast<radiation::SpectralAccumulator&>(
          radiation_->accumulator(static_cast<pic::KhiRegion>(r)))
          .reset();
    }
  }

  core::ProducerConfig cfg_;
  SpanLog& log_;
  Rng rng_;
  std::unique_ptr<pic::Simulation> sim_;
  pic::KhiSpecies species_;
  std::shared_ptr<radiation::RegionRadiationPlugin> radiation_;
  std::unique_ptr<openpmd::Series> particleSeries_;
  std::unique_ptr<openpmd::Series> radiationSeries_;
  long streamed_ = 0;
  long stepId_ = -1;
};

struct TracedRun {
  core::PipelineResult result;
  double particleUpdates = 0;
  std::size_t pushes = 0;
  long trainIterations = 0;     ///< iterations trained while streaming
  std::vector<long> trainedIds;  ///< steps whose training call trained
  std::int64_t producerStartNs = 0, producerEndNs = 0;
  std::int64_t consumerStartNs = 0, consumerEndNs = 0;
  double streamSteps = 0;
};

/// core::runPipeline, call for call, with spans on both threads.
TracedRun runTracedPipeline(const core::PipelineConfig& cfg,
                            core::InTransitTrainer& trainer, SpanLog& prod,
                            SpanLog& cons) {
  TracedRun out;
  out.consumerStartNs = nowNs();
  Timer wall;
  const std::size_t setup = cons.open("core.setup");
  auto particleEngine = std::make_shared<stream::SstEngine>(stream::SstParams{
      1, 1, cfg.queueLimit, cfg.streamStepTimeoutMicros});
  auto radiationEngine = std::make_shared<stream::SstEngine>(stream::SstParams{
      1, 1, cfg.queueLimit, cfg.streamStepTimeoutMicros});
  const auto failBoth = [&](const std::string& reason) {
    particleEngine->abort(reason);
    radiationEngine->abort(reason);
  };
  TracedProducer producer(cfg.producer, particleEngine, radiationEngine, prod);
  std::string producerFault;
  std::mutex producerFaultMutex;
  std::thread producerThread([&] {
    out.producerStartNs = nowNs();
    try {
      producer.run();
    } catch (const std::exception& e) {
      {
        std::lock_guard<std::mutex> lock(producerFaultMutex);
        producerFault = e.what();
      }
      failBoth(std::string("producer failed: ") + e.what());
    }
    out.producerEndNs = nowNs();
  });
  openpmd::Series particleRead(
      "particles", openpmd::Access::kRead,
      openpmd::StreamBackend::forReader(particleEngine, 0));
  openpmd::Series radiationRead(
      "radiation", openpmd::Access::kRead,
      openpmd::StreamBackend::forReader(radiationEngine, 0));
  obs::StepReporter reporter(obs::Registry::global(), cfg.stepReportEvery);
  cons.close(setup);

  auto& res = out.result;
  try {
    for (;;) {
      const std::size_t read = cons.open("openpmd.read", res.iterationsStreamed);
      auto itP = particleRead.readNextIteration();
      auto itR = radiationRead.readNextIteration();
      cons.close(read);
      if (!itP || !itR) break;
      ARTSCI_CHECK_MSG(itP->index == itR->index,
                       "particle / radiation streams out of sync");
      for (int r = 0; r < 3; ++r) {
        const auto pIt = itP->data.find(core::cloudPath(r));
        const auto sIt = itR->data.find(core::spectrumPath(r));
        if (pIt == itP->data.end() || sIt == itR->data.end()) continue;
        core::Sample sample;
        sample.cloud = pIt->second;
        sample.spectrum = sIt->second;
        sample.region = r;
        sample.step = itP->index;
        ScopedSpan span(cons, "replay.push", itP->index);
        trainer.buffer().push(std::move(sample));
        ++res.samplesReceived;
        ++out.pushes;
      }
      ++res.iterationsStreamed;
      const long before = trainer.stats().iterations;
      {
        ScopedSpan span(cons, "core.train", itP->index);
        trainer.trainIterations(cfg.nRep);
      }
      if (trainer.stats().iterations > before)
        out.trainedIds.push_back(itP->index);
      if (cfg.stepReportEvery > 0) {
        if (const auto line = reporter.onStep()) log::info("obs", *line);
      }
    }
  } catch (const stream::StreamError& e) {
    res.degraded = true;
    res.faultNote = e.what();
    failBoth(std::string("consumer stopped: ") + e.what());
  } catch (...) {
    failBoth("consumer failed");
    producerThread.join();
    throw;
  }
  {
    ScopedSpan span(cons, "core.join");
    producerThread.join();
  }
  if (!producerFault.empty()) {
    res.degraded = true;
    if (res.faultNote.empty()) res.faultNote = "producer failed: " + producerFault;
  }
  res.train = trainer.stats();
  out.trainIterations = trainer.stats().iterations;
  res.bytesStreamed =
      particleEngine->bytesPublished() + radiationEngine->bytesPublished();
  res.producerStallSeconds = particleEngine->writerStallSeconds() +
                             radiationEngine->writerStallSeconds();
  out.streamSteps = static_cast<double>(particleEngine->stepsPublished() +
                                        radiationEngine->stepsPublished());
  res.wallSeconds = wall.seconds();
  out.particleUpdates = producer.particleUpdates();
  out.consumerEndNs = nowNs();
  return out;
}

/// Per-step freshness: publish of step k (end of its last stream.publish
/// span) to the end of the training call that follows its push.
std::vector<double> freshnessMs(const SpanLog& prod, const SpanLog& cons,
                                const std::vector<long>& trainedIds) {
  std::vector<std::int64_t> published, trained;
  for (const auto& s : prod.spans()) {
    if (std::string_view(s.name) != "stream.publish" || s.id < 0) continue;
    const auto k = static_cast<std::size_t>(s.id);
    if (published.size() <= k) published.resize(k + 1, 0);
    published[k] = std::max(published[k], s.endNs);
  }
  for (const auto& s : cons.spans()) {
    if (std::string_view(s.name) != "core.train" || s.id < 0) continue;
    const auto k = static_cast<std::size_t>(s.id);
    if (trained.size() <= k) trained.resize(k + 1, 0);
    trained[k] = s.endNs;
  }
  std::vector<double> out;
  for (long id : trainedIds) {
    const auto k = static_cast<std::size_t>(id);
    if (k < published.size() && k < trained.size())
      out.push_back(1e-6 * static_cast<double>(trained[k] - published[k]));
  }
  return out;
}

void reportTraced(const RunOptions& opts, const core::PipelineConfig& cfg,
                  const core::PipelineResult& untraced, Report& report) {
  SpanLog prod("producer"), cons("consumer");
  core::InTransitTrainer trainer(cfg.model, cfg.trainer);
  const TracedRun run = runTracedPipeline(cfg, trainer, prod, cons);
  const auto& res = run.result;
  checkPipelineOutputs(report, cfg, res, res.train, "traced");

  const double commSeconds = trainer.stats().commSeconds;
  const auto arena = trainer.arenaStats(0);

  // Solo training: the same call with nothing else running.
  const long soloCalls = std::max(1L, 160 / cfg.nRep);
  const long soloBefore = trainer.stats().iterations;
  for (long c = 0; c < soloCalls; ++c) {
    ScopedSpan span(cons, "core.train_solo");
    trainer.trainIterations(cfg.nRep);
  }
  const long soloIters = trainer.stats().iterations - soloBefore;

  const double producerWall =
      1e-9 * static_cast<double>(run.producerEndNs - run.producerStartNs);
  const double consumerWall =
      1e-9 * static_cast<double>(run.consumerEndNs - run.consumerStartNs);
  const double picStep = prod.selfSeconds("pic.step");
  const double trainS = cons.totalSeconds("core.train");
  const double trainIterMs =
      run.trainIterations > 0 ? 1e3 * trainS / static_cast<double>(run.trainIterations)
                              : 0.0;
  const double soloIterMs =
      soloIters > 0 ? 1e3 * cons.totalSeconds("core.train_solo") /
                          static_cast<double>(soloIters)
                    : 0.0;
  const auto fresh = freshnessMs(prod, cons, run.trainedIds);

  layerMetric(report, "pic.busy_s", picStep);
  layerMetric(report, "pic.updates_per_s",
              picStep > 0 ? run.particleUpdates / picStep : 0.0);
  layerMetric(report, "radiation.busy_s",
              prod.totalSeconds("radiation.plugin") +
                  prod.totalSeconds("radiation.readout"));
  layerMetric(report, "core.transform_s", prod.totalSeconds("core.transform"));
  layerMetric(report, "openpmd.write_s", prod.totalSeconds("openpmd.write"));
  layerMetric(report, "stream.publish_s",
              prod.totalSeconds("stream.publish") +
                  prod.totalSeconds("stream.close"));
  layerMetric(report, "stream.stall_s", res.producerStallSeconds);
  layerMetric(report, "core.producer_stall_frac",
              producerWall > 0 ? res.producerStallSeconds / producerWall : 0.0);
  layerMetric(report, "stream.bytes", static_cast<double>(res.bytesStreamed));
  layerMetric(report, "stream.steps", run.streamSteps);
  layerMetric(report, "openpmd.read_s", cons.totalSeconds("openpmd.read"));
  layerMetric(report, "core.consumer_idle_frac",
              consumerWall > 0 ? cons.totalSeconds("openpmd.read") / consumerWall
                               : 0.0);
  layerMetric(report, "replay.push_s", cons.totalSeconds("replay.push"));
  layerMetric(report, "replay.pushes", static_cast<double>(run.pushes));
  layerMetric(report, "core.train_s", trainS);
  layerMetric(report, "core.train_iters",
              static_cast<double>(run.trainIterations));
  layerMetric(report, "core.train_iter_ms", trainIterMs);
  layerMetric(report, "core.train_solo_iter_ms", soloIterMs);
  layerMetric(report, "core.train_colocation_slowdown",
              soloIterMs > 0 ? trainIterMs / soloIterMs : 0.0);
  layerMetric(report, "ml.comm_s", commSeconds);
  layerMetric(report, "ml.arena_heap_allocs",
              static_cast<double>(arena.heapAllocations));
  layerMetric(report, "core.fresh_ms_p50", percentile(fresh, 0.5));
  layerMetric(report, "core.fresh_ms_p90", percentile(fresh, 0.9));

  const double tracedThroughput =
      static_cast<double>(res.samplesReceived) / res.wallSeconds;
  const double untracedThroughput =
      static_cast<double>(untraced.samplesReceived) / untraced.wallSeconds;
  layerMetric(report, "bench.trace_overhead",
              tracedThroughput / untracedThroughput);
  layerMetric(report, "bench.trace_matches",
              sameHistory(res.train, untraced.train) ? 1.0 : 0.0);

  const double producerCover =
      producerWall > 0
          ? prod.coveredSeconds(run.producerStartNs, run.producerEndNs) /
                producerWall
          : 0.0;
  const double consumerCover =
      consumerWall > 0
          ? cons.coveredSeconds(run.consumerStartNs, run.consumerEndNs) /
                consumerWall
          : 0.0;
  layerMetric(report, "bench.span_coverage_producer", producerCover);
  layerMetric(report, "bench.span_coverage_consumer", consumerCover);
  report.check(producerCover >= 0.9 && consumerCover >= 0.9,
               "spans cover >= 90% of producer and consumer wall time");

  // Layer shares of each thread's wall time, for the workload table.
  report.info("share.producer.pic", picStep / producerWall);
  report.info("share.producer.radiation",
              (prod.totalSeconds("radiation.plugin") +
               prod.totalSeconds("radiation.readout")) /
                  producerWall);
  report.info("share.producer.transform",
              prod.totalSeconds("core.transform") / producerWall);
  report.info("share.producer.openpmd_write",
              prod.totalSeconds("openpmd.write") / producerWall);
  report.info("share.producer.stream_publish",
              (prod.totalSeconds("stream.publish") +
               prod.totalSeconds("stream.close")) /
                  producerWall);
  report.info("share.consumer.read", cons.totalSeconds("openpmd.read") /
                                         consumerWall);
  report.info("share.consumer.push", cons.totalSeconds("replay.push") /
                                         consumerWall);
  report.info("share.consumer.train", trainS / consumerWall);
  report.info("share.consumer.setup", cons.totalSeconds("core.setup") /
                                          consumerWall);
  report.info("traced.wall_s", res.wallSeconds);
  report.info("traced.throughput", tracedThroughput);
  report.info("untraced.throughput", untracedThroughput);

  const std::string path = opts.outDir + "/spans-" + opts.workload + ".json";
  report.check(writeSpans(path, {&prod, &cons}), "spans written to " + path);
  std::printf("spans: %s (%zu producer, %zu consumer)\n", path.c_str(),
              prod.spans().size(), cons.spans().size());
}

}  // namespace

void runInTransit(const RunOptions& opts, Report& report) {
  const core::PipelineConfig cfg = workloadConfig(opts);
  const long steps = expectedStreamedSteps(cfg);
  report.info("config.streamed_steps", static_cast<double>(steps));
  report.info("config.n_rep", static_cast<double>(cfg.nRep));

  double setupSeconds = 0;
  if (!opts.traced) setupSeconds = medianSetupSeconds(cfg, 11);

  core::InTransitTrainer trainer(cfg.model, cfg.trainer);
  StepCompletionClock clock(cfg.nRep);
  const double cpu0 = processCpuSeconds();
  const core::PipelineResult res = core::runPipeline(cfg, trainer);
  const double cpu = processCpuSeconds() - cpu0;
  clock.stop();
  checkPipelineOutputs(report, cfg, res, res.train, "untraced");

  report.attempted = steps;
  report.failed = std::max(0L, steps - res.iterationsStreamed);
  if (opts.traced) {
    reportTraced(opts, cfg, res, report);
    return;
  }

  const auto periods = clock.periodsMs();
  report.check(periods.size() + 2 >= static_cast<std::size_t>(steps) &&
                   !periods.empty(),
               "step-completion clock saw every trained step");
  const double samples = static_cast<double>(res.samplesReceived);
  const double samplesPerStep =
      samples / static_cast<double>(std::max(1L, res.iterationsStreamed));
  const double throughput = quantileOverWindows(
      static_cast<long>(periods.size()), kSlices, 1 - kBestTenth,
      [&](long b, long e) {
        double ms = 0;
        for (long i = b; i < e; ++i) ms += periods[static_cast<std::size_t>(i)];
        return samplesPerStep * static_cast<double>(e - b) / (1e-3 * ms);
      });
  report.metric("throughput", throughput, "op/s");
  const auto periodPercentile = [&](double q) {
    return quantileOverWindows(
        static_cast<long>(periods.size()), kSlices, kBestTenth,
        [&](long b, long e) {
          return percentile({periods.begin() + b, periods.begin() + e}, q);
        });
  };
  report.metric("latency_ms", periodPercentile(0.5), "ms");
  report.metric("p90_ms", periodPercentile(0.9), "ms");
  report.metric("error_share", errorShare(report.attempted, report.failed),
                "fraction");
  report.metric("cpu_ms_per_op", samples > 0 ? 1e3 * cpu / samples : 0.0,
                "ms");
  report.metric("setup_s", setupSeconds, "s");
  report.metric("peak_rss_mb", peakRssMb(), "MB");
  report.info("wall_s", res.wallSeconds);
  report.info("throughput_whole_run", samples / res.wallSeconds);
  report.info("producer_stall_s", res.producerStallSeconds);
  report.info("train_s", res.train.trainSeconds);
}

}  // namespace perfbench
