#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "core/evaluate.hpp"
#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "core/transforms.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "radiation/plugin.hpp"

namespace artsci::core {
namespace {

Sample makeSample(Rng& rng, long points, long specDim, int region,
                  double uxMean) {
  Sample s;
  s.cloud.resize(static_cast<std::size_t>(points) * 6);
  for (long p = 0; p < points; ++p) {
    for (int c = 0; c < 3; ++c)
      s.cloud[static_cast<std::size_t>(p * 6 + c)] = rng.uniform(-1, 1);
    s.cloud[static_cast<std::size_t>(p * 6 + 3)] =
        uxMean + rng.normal(0, 0.05);
    s.cloud[static_cast<std::size_t>(p * 6 + 4)] = rng.normal(0, 0.05);
    s.cloud[static_cast<std::size_t>(p * 6 + 5)] = rng.normal(0, 0.05);
  }
  s.spectrum.resize(static_cast<std::size_t>(specDim));
  for (auto& v : s.spectrum) v = 0.5 + 0.1 * uxMean + rng.normal(0, 0.01);
  s.region = region;
  return s;
}

/// Inverse of normalizeSpectrum: (10^(n * scale) - 1) * ref.
std::vector<double> denormalizeSpectrum(const std::vector<double>& norm,
                                        const TransformConfig& cfg) {
  std::vector<double> out(norm.size());
  for (std::size_t i = 0; i < norm.size(); ++i)
    out[i] =
        (std::pow(10.0, norm[i] * cfg.spectrumScale) - 1.0) * cfg.spectrumRef;
  return out;
}

TEST(Transforms, SpectrumNormalizationRoundTrip) {
  TransformConfig cfg;
  const std::vector<double> intensity{0.0, 1e-8, 1e-4, 1.0, 100.0};
  const auto norm = normalizeSpectrum(intensity, cfg);
  for (double v : norm) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  const auto back = denormalizeSpectrum(norm, cfg);
  for (std::size_t i = 0; i < intensity.size(); ++i)
    EXPECT_NEAR(back[i], intensity[i], 1e-6 * std::max(1.0, intensity[i]));
}

TEST(Transforms, NormalizationIsMonotone) {
  TransformConfig cfg;
  const auto n = normalizeSpectrum({1e-9, 1e-6, 1e-3, 1.0}, cfg);
  for (std::size_t i = 1; i < n.size(); ++i) EXPECT_GT(n[i], n[i - 1]);
}

TEST(Transforms, RegionCloudExtraction) {
  // Build a KHI-initialized buffer and extract from each region.
  pic::KhiConfig kcfg;
  kcfg.grid = pic::GridSpec{8, 32, 4, 0.25, 0.25, 0.25};
  kcfg.dt = 0.05;
  kcfg.particlesPerCell = 4;
  pic::SimulationConfig sc;
  sc.grid = kcfg.grid;
  sc.dt = kcfg.dt;
  pic::Simulation sim(sc);
  const auto sp = pic::initializeKhi(sim, kcfg);

  TransformConfig cfg;
  cfg.cloudPoints = 64;
  Rng rng(5);
  for (int r = 0; r < 3; ++r) {
    const auto cloud =
        extractRegionCloud(sim.species(sp.electrons), kcfg.grid.ny,
                           static_cast<pic::KhiRegion>(r), cfg, rng);
    ASSERT_EQ(cloud.size(), 64u * 6u) << "region " << r;
    // Positions normalized to [-1, 1].
    for (std::size_t p = 0; p < 64; ++p) {
      for (int c = 0; c < 3; ++c) {
        EXPECT_GE(cloud[p * 6 + static_cast<std::size_t>(c)], -1.0 - 1e-9);
        EXPECT_LE(cloud[p * 6 + static_cast<std::size_t>(c)], 1.0 + 1e-9);
      }
    }
  }
  // Momentum sign by region: approaching +, receding -.
  const auto appr = extractRegionCloud(sim.species(sp.electrons),
                                       kcfg.grid.ny,
                                       pic::KhiRegion::kApproaching, cfg,
                                       rng);
  double mean = 0;
  for (std::size_t p = 0; p < 64; ++p)
    mean += cloudMomentumX(appr, p, cfg);
  EXPECT_GT(mean / 64, 0.1);
}

TEST(Transforms, TooFewParticlesReturnsEmpty) {
  pic::ParticleBuffer buf({-1.0, 1.0, "e"});
  buf.push({1, 1, 1}, {0.1, 0, 0}, 1.0);
  TransformConfig cfg;
  cfg.cloudPoints = 64;
  Rng rng(6);
  EXPECT_TRUE(extractRegionCloud(buf, 32, pic::KhiRegion::kApproaching, cfg,
                                 rng)
                  .empty());
}

TEST(Transforms, PluginRangesGiveTheExtractedClouds) {
  // The producer samples each region from the radiation plugin's ranges
  // instead of classifying every electron again; from equal Rng states
  // the clouds must be extractRegionCloud's, bit for bit, and a region
  // too small for a cloud must still yield no sample (and draw nothing).
  pic::KhiConfig kcfg;
  kcfg.grid = pic::GridSpec{8, 32, 4, 0.25, 0.25, 0.25};
  kcfg.dt = 0.05;
  kcfg.particlesPerCell = 4;
  pic::SimulationConfig sc;
  sc.grid = kcfg.grid;
  sc.dt = kcfg.dt;
  sc.recordBetaDot = true;
  pic::Simulation sim(sc);
  const auto sp = pic::initializeKhi(sim, kcfg);
  TransformConfig cfg;
  cfg.cloudPoints = 64;
  auto plugin = std::make_shared<radiation::RegionRadiationPlugin>(
      radiation::DetectorConfig::defaultKhi(8), sp.electrons,
      cfg.vortexHalfWidthCells);
  sim.addPlugin(plugin);
  sim.run(2);

  const pic::ParticleBuffer& electrons = sim.species(sp.electrons);
  const radiation::RegionRanges& ranges = plugin->ranges();
  ASSERT_EQ(ranges.order.size(), electrons.size());
  const auto fromRanges = [&](int r, const TransformConfig& c, Rng& rng) {
    std::vector<std::size_t> candidates(
        ranges.order.begin() + static_cast<std::ptrdiff_t>(ranges.bounds[r]),
        ranges.order.begin() +
            static_cast<std::ptrdiff_t>(ranges.bounds[r + 1]));
    return sampleRegionCloud(electrons, candidates, c, rng);
  };
  std::size_t smallest = electrons.size();
  for (int r = 0; r < 3; ++r) {
    smallest = std::min(smallest, ranges.bounds[r + 1] - ranges.bounds[r]);
    Rng a(100 + r), b(100 + r);
    const auto extracted = extractRegionCloud(
        electrons, kcfg.grid.ny, static_cast<pic::KhiRegion>(r), cfg, a);
    const auto sampled = fromRanges(r, cfg, b);
    ASSERT_EQ(extracted.size(), 64u * 6u) << "region " << r;
    ASSERT_EQ(sampled.size(), extracted.size()) << "region " << r;
    EXPECT_EQ(std::memcmp(sampled.data(), extracted.data(),
                          sampled.size() * sizeof(double)),
              0)
        << "region " << r;
    EXPECT_EQ(a.uniformInt(1u << 30), b.uniformInt(1u << 30));
  }

  TransformConfig tooMany = cfg;
  tooMany.cloudPoints = static_cast<long>(smallest) + 1;
  for (int r = 0; r < 3; ++r) {
    if (ranges.bounds[r + 1] - ranges.bounds[r] >= smallest + 1) continue;
    Rng a(7), b(7);
    EXPECT_TRUE(extractRegionCloud(electrons, kcfg.grid.ny,
                                   static_cast<pic::KhiRegion>(r), tooMany, a)
                    .empty());
    EXPECT_TRUE(fromRanges(r, tooMany, b).empty()) << "region " << r;
    EXPECT_EQ(a.uniformInt(1u << 30), b.uniformInt(1u << 30));
  }
}

TEST(Model, ReducedConfigShapes) {
  Rng rng(1);
  ArtificialScientistModel model(ArtificialScientistModel::Config::reduced(),
                                 rng);
  EXPECT_EQ(model.cloudPoints(), 64);
  Rng dataRng(2);
  ml::Tensor clouds = ml::Tensor::randn({2, 32, 6}, dataRng, 0.3);
  ml::Tensor spectra = ml::Tensor::randn({2, 32}, dataRng, 0.1);
  const auto terms = model.lossTerms(clouds, spectra, dataRng);
  EXPECT_GT(terms.chamfer.item(), 0.0);
  EXPECT_GE(terms.kl.item(), 0.0);
  EXPECT_GT(terms.mse.item(), 0.0);
  EXPECT_GE(terms.mmdLatent.item(), 0.0);
  EXPECT_GE(terms.mmdPosterior.item(), 0.0);
}

TEST(Model, PaperConfigConstructs) {
  Rng rng(3);
  ArtificialScientistModel model(ArtificialScientistModel::Config::paper(),
                                 rng);
  EXPECT_EQ(model.cloudPoints(), 4096);
  // ~4.3M parameters as estimated in DESIGN.md.
  EXPECT_GT(model.parameterCount(), 3'000'000);
  EXPECT_LT(model.parameterCount(), 7'000'000);
  // One forward pass at a small particle count works.
  Rng dataRng(4);
  ml::Tensor clouds = ml::Tensor::randn({1, 16, 6}, dataRng, 0.3);
  ml::Tensor spectra = model.predictSpectra(clouds);
  EXPECT_EQ(spectra.shape(), (ml::Shape{1, 128}));
}

TEST(Model, MismatchedConfigRejected) {
  auto cfg = ArtificialScientistModel::Config::reduced();
  cfg.inn.dim = 32;  // != latent 64
  Rng rng(5);
  EXPECT_THROW(ArtificialScientistModel model(cfg, rng), ContractError);
}

TEST(Model, InversionShapesAndStochasticity) {
  Rng rng(6);
  ArtificialScientistModel model(ArtificialScientistModel::Config::reduced(),
                                 rng);
  Rng dataRng(7);
  ml::Tensor spectra = ml::Tensor::randn({3, 32}, dataRng, 0.1);
  ml::Tensor a = model.invertSpectra(spectra, dataRng);
  ml::Tensor b = model.invertSpectra(spectra, dataRng);
  EXPECT_EQ(a.shape(), (ml::Shape{3, 64, 6}));
  // Different noise draws -> different posterior samples (ill-posed
  // problems have many solutions; the INN samples them).
  double diff = 0;
  for (std::size_t i = 0; i < a.data().size(); ++i)
    diff += std::abs(a.data()[i] - b.data()[i]);
  EXPECT_GT(diff, 1e-6);
}

TEST(Model, VaeAndInnParameterSplit) {
  Rng rng(8);
  ArtificialScientistModel model(ArtificialScientistModel::Config::reduced(),
                                 rng);
  EXPECT_EQ(model.parameters().size(),
            model.vaeParameters().size() + model.innParameters().size());
  EXPECT_FALSE(model.vaeParameters().empty());
  EXPECT_FALSE(model.innParameters().empty());
}

TEST(Trainer, LossDecreasesOnStationaryData) {
  TrainerConfig tcfg;
  tcfg.ranks = 2;
  tcfg.baseLearningRate = 3e-4;
  auto mcfg = ArtificialScientistModel::Config::reduced();
  InTransitTrainer trainer(mcfg, tcfg);

  Rng rng(11);
  for (int i = 0; i < 30; ++i)
    trainer.buffer().push(makeSample(rng, 64, 32, i % 3,
                                     (i % 3 == 0) ? 0.8 : -0.8));
  trainer.trainIterations(60);
  const auto& hist = trainer.stats().lossHistory;
  ASSERT_GE(hist.size(), 60u);
  double early = 0, late = 0;
  for (int i = 0; i < 10; ++i) {
    early += hist[static_cast<std::size_t>(i)];
    late += hist[hist.size() - 10 + static_cast<std::size_t>(i)];
  }
  EXPECT_LT(late, early);
}

std::vector<std::vector<ml::Real>> replicaValues(
    const InTransitTrainer& trainer, std::size_t rank) {
  std::vector<std::vector<ml::Real>> out;
  for (const auto& p : trainer.model(rank).parameters())
    out.push_back(p.data());
  return out;
}

TEST(Trainer, ThreeRanksKeepReplicasBitIdentical) {
  // Three ranks split the parameters into three chunks, each stepped by
  // one rank and written into every replica. Two calls of four iterations
  // each: under TSan this catches a rank reading the optimizer's step
  // count while another advances it.
  TrainerConfig tcfg;
  tcfg.ranks = 3;
  const auto mcfg = ArtificialScientistModel::Config::reduced();
  auto train = [&] {
    auto trainer = std::make_unique<InTransitTrainer>(mcfg, tcfg);
    Rng rng(31);
    for (int i = 0; i < 12; ++i)
      trainer->buffer().push(makeSample(rng, 64, 32, i % 3,
                                        (i % 3 == 0) ? 0.8 : -0.8));
    trainer->trainIterations(4);
    trainer->trainIterations(4);
    return trainer;
  };
  const auto a = train();
  EXPECT_EQ(a->stats().iterations, 8);
  EXPECT_EQ(a->captureCheckpointState().adamStep, 8);
  const auto want = replicaValues(*a, 0);
  for (std::size_t r = 1; r < tcfg.ranks; ++r)
    EXPECT_EQ(replicaValues(*a, r), want) << "replica " << r;
  // And run to run.
  EXPECT_EQ(replicaValues(*train(), 0), want);
}

TEST(Trainer, TracedCallsReuseTheRankThreads) {
  // The rank threads live as long as the trainer, so a traced run
  // allocates their span rings once, not once per call.
  TrainerConfig tcfg;
  tcfg.ranks = 2;
  InTransitTrainer trainer(ArtificialScientistModel::Config::reduced(),
                           tcfg);
  Rng rng(41);
  for (int i = 0; i < 12; ++i)
    trainer.buffer().push(makeSample(rng, 64, 32, i % 3, 0.5));
  auto& recorder = obs::TraceRecorder::instance();
  recorder.setEnabled(true);
  trainer.trainIterations(1);
  const std::size_t reserved = recorder.reservedEvents();
  for (int call = 1; call < 50; ++call) trainer.trainIterations(1);
  recorder.setEnabled(false);
  EXPECT_GT(reserved, 0u);
  EXPECT_EQ(recorder.reservedEvents(), reserved);
  recorder.clear();
}

TEST(Trainer, LearningRatesScaledAndSplit) {
  TrainerConfig tcfg;
  tcfg.ranks = 4;
  tcfg.baseLearningRate = 1e-4;
  InTransitTrainer trainer(ArtificialScientistModel::Config::reduced(),
                           tcfg);
  const auto [vaeLr, innLr] = trainer.learningRates();
  // total batch = 4 ranks * 8 = 32; sqrt(32/8) = 2.
  EXPECT_NEAR(innLr, 1e-4 * 2.0, 1e-12);
  EXPECT_NEAR(vaeLr, 3e-4 * 2.0, 1e-12);
}

TEST(Trainer, ThrowingRankReleasesItsPeer) {
  // Each rank draws one sample per iteration from a two-sample buffer, one
  // of whose spectra is too short. Under the first seed whose two rank RNGs
  // (the successive splits of Rng(seed)) draw different slots, exactly one
  // rank throws in batchSpectra while its peer waits in the optimizer
  // collective; the peer must be released and the caller must see the
  // error, not a hang.
  TrainerConfig tcfg;
  tcfg.ranks = 2;
  tcfg.buffer.nowCapacity = 2;
  tcfg.buffer.epCapacity = 1;
  tcfg.buffer.nowPerBatch = 1;
  tcfg.buffer.epPerBatch = 0;
  for (tcfg.seed = 1;; ++tcfg.seed) {
    Rng seeder(tcfg.seed);
    Rng rank0 = seeder.split();
    Rng rank1 = seeder.split();
    if (rank0.uniformInt(2) != rank1.uniformInt(2)) break;
  }
  InTransitTrainer trainer(ArtificialScientistModel::Config::reduced(),
                           tcfg);
  Rng rng(51);
  trainer.buffer().push(makeSample(rng, 64, 32, 0, 0.5));
  Sample bad = makeSample(rng, 64, 32, 1, 0.5);
  bad.spectrum.resize(16);
  trainer.buffer().push(std::move(bad));
  EXPECT_THROW(trainer.trainIterations(1), ContractError);
  // The trainer stays failed.
  EXPECT_THROW(trainer.trainIterations(1), ContractError);
}

TEST(Trainer, NoopWhenBufferNotReady) {
  InTransitTrainer trainer(ArtificialScientistModel::Config::reduced(),
                           TrainerConfig{});
  trainer.trainIterations(5);
  EXPECT_EQ(trainer.stats().iterations, 0);
}

TEST(Evaluate, LatentClassifierPerfectOnSeparatedData) {
  // Train a model briefly on well-separated per-region clouds, then the
  // latent nearest-centroid classifier should beat chance clearly.
  TrainerConfig tcfg;
  tcfg.ranks = 1;
  auto mcfg = ArtificialScientistModel::Config::reduced();
  InTransitTrainer trainer(mcfg, tcfg);
  Rng rng(21);
  std::vector<Sample> train, test;
  auto regionMean = [](int r) { return r == 0 ? 0.8 : (r == 1 ? -0.8 : 0.0); };
  for (int i = 0; i < 30; ++i) {
    const int r = i % 3;
    trainer.buffer().push(makeSample(rng, 64, 32, r, regionMean(r)));
  }
  trainer.trainIterations(30);
  for (int i = 0; i < 15; ++i) {
    const int r = i % 3;
    train.push_back(makeSample(rng, 64, 32, r, regionMean(r)));
    test.push_back(makeSample(rng, 64, 32, r, regionMean(r)));
  }
  const double acc = latentRegionClassificationAccuracy(trainer.model(),
                                                        train, test);
  EXPECT_GT(acc, 0.6);  // chance = 1/3
}

TEST(Pipeline, QuickDemoConfigConsistent) {
  const auto cfg = PipelineConfig::quickDemo();
  EXPECT_EQ(static_cast<long>(cfg.producer.frequencyCount),
            cfg.model.spectrumDim);
}

TEST(Pipeline, TrainerErrorStopsTheProducerAndReachesTheCaller) {
  // Every replay slot holds a sample whose spectrum is too short, so the
  // first training iteration throws inside the consumer loop, at one rank
  // and at two.
  for (const std::size_t ranks : {1u, 2u}) {
    auto cfg = PipelineConfig::quickDemo();
    cfg.trainer.ranks = ranks;
    cfg.stepReportEvery = 0;
    InTransitTrainer trainer(cfg.model, cfg.trainer);
    Rng rng(61);
    const auto& slots = cfg.trainer.buffer;
    for (std::size_t i = 0; i < slots.nowCapacity + slots.epCapacity; ++i)
      trainer.buffer().push(makeSample(rng, cfg.producer.transform.cloudPoints,
                                       cfg.model.spectrumDim - 1,
                                       static_cast<int>(i % 3), 0.5));
    EXPECT_THROW(runPipeline(cfg, trainer), ContractError)
        << ranks << " rank(s)";
  }
}

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Pipeline, CollectSamplesIsWhatRunPipelineStreams) {
  // At most N_now + N_EP samples, so the replay buffer evicts none and
  // holds the whole stream: its EP half in stream order, then its now
  // half newest first.
  auto cfg = PipelineConfig::quickDemo();
  cfg.producer.totalSteps = 20;  // 10 emissions of at most 3 samples
  cfg.trainer.ranks = 1;
  cfg.nRep = 1;
  cfg.stepReportEvery = 0;
  InTransitTrainer trainer(cfg.model, cfg.trainer);
  const PipelineResult result = runPipeline(cfg, trainer);
  ASSERT_FALSE(result.degraded) << result.faultNote;
  const auto& slots = cfg.trainer.buffer;
  ASSERT_LE(result.samplesReceived, slots.nowCapacity + slots.epCapacity);
  auto held = trainer.buffer().snapshot();
  std::vector<Sample> streamed = std::move(held.ep);
  streamed.insert(streamed.end(), held.now.rbegin(), held.now.rend());
  ASSERT_EQ(streamed.size(), result.samplesReceived);

  const std::vector<Sample> collected = collectSamples(cfg.producer);
  ASSERT_GT(collected.size(), 0u);
  ASSERT_EQ(collected.size(), streamed.size());
  for (std::size_t i = 0; i < collected.size(); ++i) {
    EXPECT_EQ(collected[i].region, streamed[i].region) << "sample " << i;
    EXPECT_EQ(collected[i].step, streamed[i].step) << "sample " << i;
    EXPECT_TRUE(sameBits(collected[i].cloud, streamed[i].cloud))
        << "sample " << i;
    EXPECT_TRUE(sameBits(collected[i].spectrum, streamed[i].spectrum))
        << "sample " << i;
  }
}

TEST(Pipeline, CollectSamplesThrowsASourceFault) {
  fault::ScopedPlan plan(fault::Plan::parseSpec("producer.step@2:error"));
  EXPECT_THROW(collectSamples(PipelineConfig::quickDemo().producer),
               fault::FaultInjectedError);
}

TEST(Pipeline, MismatchedSpectrumDimRejected) {
  auto cfg = PipelineConfig::quickDemo();
  cfg.producer.frequencyCount = 16;  // model expects 32
  InTransitTrainer trainer(cfg.model, cfg.trainer);
  EXPECT_THROW(runPipeline(cfg, trainer), ContractError);
}

}  // namespace
}  // namespace artsci::core
