#include "radiation/plugin.hpp"

#include <array>

namespace artsci::radiation {

RegionRadiationPlugin::RegionRadiationPlugin(DetectorConfig cfg,
                                             std::size_t speciesIdx,
                                             double vortexHalfWidthCells)
    : speciesIdx_(speciesIdx), vortexHalfWidth_(vortexHalfWidthCells) {
  for (int r = 0; r < 3; ++r) acc_.emplace_back(cfg);
}

const SpectralAccumulator& RegionRadiationPlugin::accumulator(
    pic::KhiRegion region) const {
  return acc_[static_cast<std::size_t>(region)];
}

void RegionRadiationPlugin::onStepEnd(pic::Simulation& sim) {
  const auto& particles = sim.species(speciesIdx_);
  const std::size_t count = particles.size();
  const long ny = sim.grid().ny;
  // Stable counting sort into region ranges: each region keeps ascending
  // particle order, the order its amplitudes are summed in.
  regionOf_.resize(count);
  std::array<std::size_t, 3> size{};
  for (std::size_t i = 0; i < count; ++i) {
    const auto region = static_cast<std::uint8_t>(
        pic::classifyKhiRegion(particles.y[i], ny, vortexHalfWidth_));
    regionOf_[i] = region;
    ++size[region];
  }
  ranges_.bounds = {0, size[0], size[0] + size[1], count};
  ranges_.order.resize(count);
  std::array<std::size_t, 3> next{ranges_.bounds[0], ranges_.bounds[1],
                                  ranges_.bounds[2]};
  for (std::size_t i = 0; i < count; ++i)
    ranges_.order[next[regionOf_[i]]++] = i;

  SpectralAccumulator* const accs[3] = {&acc_[0], &acc_[1], &acc_[2]};
  kernel_.accumulate(accs, ranges_, particles, sim.betaDotX(speciesIdx_),
                     sim.betaDotY(speciesIdx_), sim.betaDotZ(speciesIdx_),
                     sim.time(), sim.dt(), sim.grid());
}

}  // namespace artsci::radiation
