/// \file plugin.hpp
/// PIConGPU-style simulation plugin wiring the far-field detector into the
/// PIC loop, resolved by KHI region so the in-transit producer can pair
/// each region's point cloud with "its" spectrum (Fig 9).
#pragma once

#include <cstdint>
#include <memory>

#include "pic/khi.hpp"
#include "radiation/detector.hpp"

namespace artsci::radiation {

/// One accumulator per KHI region. Each step sorts the electrons into
/// per-region ranges and runs one RadiationKernel call for all three
/// regions. The Simulation must record accelerations
/// (SimulationConfig::recordBetaDot = true).
class RegionRadiationPlugin : public pic::Plugin {
 public:
  RegionRadiationPlugin(DetectorConfig cfg, std::size_t speciesIdx,
                        double vortexHalfWidthCells);

  const char* name() const override { return "radiation/regions"; }
  void onStepEnd(pic::Simulation& sim) override;

  const SpectralAccumulator& accumulator(pic::KhiRegion region) const;
  /// Reset every region's accumulator, so that the next readout sums only
  /// the steps after this call (windowed spectra).
  void resetSpectra();

  /// The latest step's electrons by region, indexed by KhiRegion: region
  /// k is order[bounds[k]] .. order[bounds[k + 1] - 1], each in ascending
  /// particle index. Valid until the next step.
  const RegionRanges& ranges() const { return ranges_; }

 private:
  std::size_t speciesIdx_;
  double vortexHalfWidth_;
  std::vector<SpectralAccumulator> acc_;  ///< indexed by KhiRegion
  // Reused across steps.
  std::vector<std::uint8_t> regionOf_;  ///< KhiRegion per particle
  RegionRanges ranges_;
  RadiationKernel kernel_;
};

}  // namespace artsci::radiation
