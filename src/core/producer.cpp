#include "core/producer.hpp"

#include "common/log.hpp"
#include "fault/fault.hpp"

namespace artsci::core {

std::string cloudPath(int region) {
  return std::string("particles/e/phasespace/") +
         pic::khiRegionName(static_cast<pic::KhiRegion>(region));
}

std::string spectrumPath(int region) {
  return std::string("meshes/radiation/") +
         pic::khiRegionName(static_cast<pic::KhiRegion>(region));
}

KhiStreamProducer::KhiStreamProducer(
    ProducerConfig cfg, std::shared_ptr<stream::SstEngine> particleStream,
    std::shared_ptr<stream::SstEngine> radiationStream)
    : cfg_(cfg), rng_(cfg.seed) {
  pic::SimulationConfig sc;
  sc.grid = cfg_.khi.grid;
  sc.dt = cfg_.khi.dt;
  sc.recordBetaDot = true;  // the radiation plugin needs accelerations
  sim_ = std::make_unique<pic::Simulation>(sc);
  species_ = pic::initializeKhi(*sim_, cfg_.khi);

  radiation::DetectorConfig det;
  det.directions = {Vec3d{1.0, 0.0, 0.0}};
  det.frequencies = radiation::logFrequencyAxis(cfg_.omegaMin, cfg_.omegaMax,
                                                cfg_.frequencyCount);
  radiationPlugin_ = std::make_shared<radiation::RegionRadiationPlugin>(
      det, species_.electrons, cfg_.transform.vortexHalfWidthCells);
  sim_->addPlugin(radiationPlugin_);

  particleSeries_ = std::make_unique<openpmd::Series>(
      "particles", openpmd::Access::kCreate,
      openpmd::StreamBackend::forWriter(std::move(particleStream), 0));
  radiationSeries_ = std::make_unique<openpmd::Series>(
      "radiation", openpmd::Access::kCreate,
      openpmd::StreamBackend::forWriter(std::move(radiationStream), 0));
}

void KhiStreamProducer::emitIteration(long index) {
  const auto& electrons = sim_->species(species_.electrons);
  const long P = cfg_.transform.cloudPoints;
  const long S = static_cast<long>(cfg_.frequencyCount);

  auto itParticles = particleSeries_->writeIteration(index);
  auto itRadiation = radiationSeries_->writeIteration(index);
  itParticles.setTime(sim_->time(), sim_->dt());
  itRadiation.setTime(sim_->time(), sim_->dt());

  // The radiation plugin sorted this step's electrons into regions at the
  // end of the step, by the classification extractRegionCloud would
  // repeat, and in the same ascending order.
  const radiation::RegionRanges& regions = radiationPlugin_->ranges();
  ARTSCI_EXPECTS(regions.order.size() == electrons.size());
  for (int r = 0; r < 3; ++r) {
    const auto region = static_cast<pic::KhiRegion>(r);
    const auto first = regions.order.begin();
    candidates_.assign(
        first + static_cast<std::ptrdiff_t>(regions.bounds[r]),
        first + static_cast<std::ptrdiff_t>(regions.bounds[r + 1]));
    auto cloud = sampleRegionCloud(electrons, candidates_, cfg_.transform,
                                   rng_);
    if (cloud.empty()) {
      log::warn("producer", "region ", pic::khiRegionName(region),
                " has too few particles; skipping sample");
      continue;
    }
    itParticles.particles("e")
        .record("phasespace")
        .component(pic::khiRegionName(region))
        .storeChunk(std::move(cloud), {0, 0}, {P, 6}, {P, 6});

    const auto raw = radiationPlugin_->accumulator(region).intensity(0);
    auto spectrum = normalizeSpectrum(raw, cfg_.transform);
    itRadiation.mesh("radiation")
        .component(pic::khiRegionName(region))
        .storeChunk(std::move(spectrum), {0}, {S}, {S});
  }
  itParticles.close();
  itRadiation.close();
  ++iterationsStreamed_;
}

void KhiStreamProducer::warmUp() {
  if (warmedUp_) return;
  sim_->run(cfg_.warmupSteps);
  warmedUp_ = true;
}

void KhiStreamProducer::run() {
  warmUp();
  for (long s = 0; s < cfg_.totalSteps; ++s) {
    sim_->step();
    if ((s + 1) % cfg_.streamEvery == 0) {
      FAULT_POINT("producer.step");
      emitIteration(iterationsStreamed_);
      // Windowed spectra: reset so the next emission reflects the most
      // recent dynamics, matching the per-time-step training pairs.
      for (int r = 0; r < 3; ++r) {
        const_cast<radiation::SpectralAccumulator&>(
            radiationPlugin_->accumulator(static_cast<pic::KhiRegion>(r)))
            .reset();
      }
    }
  }
  particleSeries_->close();
  radiationSeries_->close();
}

}  // namespace artsci::core
