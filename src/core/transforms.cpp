#include "core/transforms.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace artsci::core {

std::vector<double> extractRegionCloud(const pic::ParticleBuffer& particles,
                                       long ny, pic::KhiRegion region,
                                       const TransformConfig& cfg,
                                       Rng& rng) {
  // Collect indices of particles in the region.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < particles.size(); ++i) {
    if (pic::classifyKhiRegion(particles.y[i], ny,
                               cfg.vortexHalfWidthCells) == region)
      candidates.push_back(i);
  }
  return sampleRegionCloud(particles, candidates, cfg, rng);
}

std::vector<double> sampleRegionCloud(const pic::ParticleBuffer& particles,
                                      std::vector<std::size_t>& candidates,
                                      const TransformConfig& cfg, Rng& rng) {
  if (candidates.size() < static_cast<std::size_t>(cfg.cloudPoints))
    return {};

  // Reservoir-free random subset: Fisher-Yates the first cloudPoints.
  for (long k = 0; k < cfg.cloudPoints; ++k) {
    const std::size_t j =
        k + static_cast<std::size_t>(
                rng.uniformInt(candidates.size() - static_cast<std::size_t>(k)));
    std::swap(candidates[static_cast<std::size_t>(k)], candidates[j]);
  }

  // Center positions on the subset mean, scale to ~[-1, 1] by the spread.
  double cx = 0, cy = 0, cz = 0;
  for (long k = 0; k < cfg.cloudPoints; ++k) {
    const std::size_t i = candidates[static_cast<std::size_t>(k)];
    cx += particles.x[i];
    cy += particles.y[i];
    cz += particles.z[i];
  }
  const double inv = 1.0 / static_cast<double>(cfg.cloudPoints);
  cx *= inv;
  cy *= inv;
  cz *= inv;
  double spread = 1e-9;
  for (long k = 0; k < cfg.cloudPoints; ++k) {
    const std::size_t i = candidates[static_cast<std::size_t>(k)];
    spread = std::max({spread, std::abs(particles.x[i] - cx),
                       std::abs(particles.y[i] - cy),
                       std::abs(particles.z[i] - cz)});
  }

  std::vector<double> cloud(static_cast<std::size_t>(cfg.cloudPoints) * 6);
  for (long k = 0; k < cfg.cloudPoints; ++k) {
    const std::size_t i = candidates[static_cast<std::size_t>(k)];
    const std::size_t base = static_cast<std::size_t>(k) * 6;
    cloud[base + 0] = (particles.x[i] - cx) / spread;
    cloud[base + 1] = (particles.y[i] - cy) / spread;
    cloud[base + 2] = (particles.z[i] - cz) / spread;
    cloud[base + 3] = particles.ux[i] / cfg.momentumScale;
    cloud[base + 4] = particles.uy[i] / cfg.momentumScale;
    cloud[base + 5] = particles.uz[i] / cfg.momentumScale;
  }
  return cloud;
}

std::vector<double> normalizeSpectrum(const std::vector<double>& intensity,
                                      const TransformConfig& cfg) {
  ARTSCI_EXPECTS(cfg.spectrumRef > 0 && cfg.spectrumScale > 0);
  std::vector<double> out(intensity.size());
  for (std::size_t i = 0; i < intensity.size(); ++i) {
    out[i] = std::log10(1.0 + std::max(0.0, intensity[i]) /
                                  cfg.spectrumRef) /
             cfg.spectrumScale;
  }
  return out;
}

double cloudMomentumX(const std::vector<double>& cloud, std::size_t point,
                      const TransformConfig& cfg) {
  ARTSCI_EXPECTS((point + 1) * 6 <= cloud.size());
  return cloud[point * 6 + 3] * cfg.momentumScale;
}

}  // namespace artsci::core
