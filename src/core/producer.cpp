#include "core/producer.hpp"

#include "common/log.hpp"
#include "fault/fault.hpp"

namespace artsci::core {

KhiSampleSource::KhiSampleSource(ProducerConfig cfg)
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
}

std::vector<Sample> KhiSampleSource::makeSamples(long emission) {
  const auto& electrons = sim_->species(species_.electrons);
  // The radiation plugin sorted this step's electrons into regions at the
  // end of the step, by the classification extractRegionCloud would
  // repeat, and in the same ascending order.
  const radiation::RegionRanges& regions = radiationPlugin_->ranges();
  ARTSCI_EXPECTS(regions.order.size() == electrons.size());
  std::vector<Sample> samples;
  for (int r = 0; r < 3; ++r) {
    const auto region = static_cast<pic::KhiRegion>(r);
    const auto first = regions.order.begin();
    candidates_.assign(
        first + static_cast<std::ptrdiff_t>(regions.bounds[r]),
        first + static_cast<std::ptrdiff_t>(regions.bounds[r + 1]));
    Sample sample;
    sample.cloud = sampleRegionCloud(electrons, candidates_, cfg_.transform,
                                     rng_);
    if (sample.cloud.empty()) {
      log::warn("producer", "region ", pic::khiRegionName(region),
                " has too few particles; skipping sample");
      continue;
    }
    sample.spectrum = normalizeSpectrum(
        radiationPlugin_->accumulator(region).intensity(0), cfg_.transform);
    sample.region = r;
    sample.step = emission;
    samples.push_back(std::move(sample));
  }
  return samples;
}

void KhiSampleSource::warmUp() {
  if (warmedUp_) return;
  sim_->run(cfg_.warmupSteps);
  warmedUp_ = true;
}

std::optional<std::vector<Sample>> KhiSampleSource::next() {
  warmUp();
  while (stepsRun_ < cfg_.totalSteps) {
    sim_->step();
    if (++stepsRun_ % cfg_.streamEvery != 0) continue;
    FAULT_POINT("producer.step");
    auto samples = makeSamples(emissions_++);
    // Windowed spectra: reset so the next emission reflects the most
    // recent dynamics, matching the per-time-step training pairs.
    radiationPlugin_->resetSpectra();
    return samples;
  }
  return std::nullopt;
}

}  // namespace artsci::core
