/// \file transforms.hpp
/// "Prepare the collected data for an ML model by finding suitable
/// encodings for spectral and phase space data" (paper §III-A):
///  * sub-volume extraction — fixed-size particle point clouds per KHI
///    region, positions centered/scaled to [-1, 1], momenta scaled by a
///    reference momentum;
///  * spectra — log-compressed (the dynamic range spans decades, Fig 9a)
///    and normalized.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "core/sample.hpp"
#include "pic/particles.hpp"
#include "radiation/detector.hpp"

namespace artsci::core {

struct TransformConfig {
  long cloudPoints = 128;     ///< particles per sample point cloud
  double momentumScale = 0.25;  ///< u normalization (≈ stream u + spread)
  double spectrumRef = 1e-8;    ///< log compression reference intensity
  double spectrumScale = 12.0;  ///< divides log10(1 + I/ref)
  double vortexHalfWidthCells = 4.0;
};

/// Sample a fixed-size, normalized point cloud from the particles of one
/// KHI region. Returns empty vector if the region holds fewer than
/// `cloudPoints` particles. Classifies every particle; a caller that
/// already holds the region's particles calls sampleRegionCloud.
std::vector<double> extractRegionCloud(const pic::ParticleBuffer& particles,
                                       long ny, pic::KhiRegion region,
                                       const TransformConfig& cfg, Rng& rng);

/// The sampling half of extractRegionCloud: a fixed-size, normalized
/// point cloud drawn from `candidates`, one region's particle indices in
/// ascending order — the order extractRegionCloud collects them in, so
/// equal Rng states give bit-identical clouds. Shuffles `candidates`.
/// Returns empty vector (and draws nothing) if there are fewer than
/// `cloudPoints` candidates.
std::vector<double> sampleRegionCloud(const pic::ParticleBuffer& particles,
                                      std::vector<std::size_t>& candidates,
                                      const TransformConfig& cfg, Rng& rng);

/// log10(1 + I/ref) / scale, element-wise.
std::vector<double> normalizeSpectrum(const std::vector<double>& intensity,
                                      const TransformConfig& cfg);

/// Momentum (u = gamma beta) of normalized cloud entry `i`, x component —
/// inverse of the cloud normalization, for histogramming predictions.
double cloudMomentumX(const std::vector<double>& cloud, std::size_t point,
                      const TransformConfig& cfg);

}  // namespace artsci::core
