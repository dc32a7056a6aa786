/// \file detector.hpp
/// Synthetic far-field radiation detector (the stand-in for PIConGPU's
/// radiation plugin [Pausch et al. 2014]). For each detector direction n
/// and frequency omega it accumulates the classical Lienard-Wiechert
/// far-field amplitude
///
///   A(n, omega) = sum_steps sum_p w_p
///       [ n x ((n - beta_p) x dbeta_p/dt) ] / (1 - n . beta_p)^2
///       * exp(i omega (t - n . r_p))  * dt
///
/// (c = 1, plasma units), and reports the spectral intensity
/// d^2 I / (d omega d Omega) ~ |A|^2 — spectrally and angularly resolved,
/// resolving frequencies far above the grid's Nyquist limit, which is the
/// whole point of the plugin versus the PIC field solver.
#pragma once

#include <array>
#include <complex>
#include <span>
#include <vector>

#include "common/vec3.hpp"
#include "pic/grid.hpp"
#include "pic/particles.hpp"

namespace artsci::radiation {

/// Log-spaced frequency axis in omega_pe units (Fig 9a uses 1e-1..1e2).
std::vector<double> logFrequencyAxis(double omegaMin, double omegaMax,
                                     std::size_t count);

struct DetectorConfig {
  std::vector<Vec3d> directions;    ///< unit observation vectors
  std::vector<double> frequencies;  ///< in omega_pe

  /// Optional macro-particle form factor F(omega): multiplies each
  /// macroparticle's amplitude to model its finite extent [Pausch et al.
  /// 2018]. Radius is the CIC cloud half-width in plasma units; 0 disables
  /// (point particles, fully coherent macroparticles).
  double formFactorRadius = 0.0;

  static DetectorConfig defaultKhi(std::size_t frequencyCount = 64);
};

class SpectralAccumulator;

/// Particle indices grouped into regions for one RadiationKernel call:
/// region k is order[bounds[k]] .. order[bounds[k + 1] - 1], and its
/// amplitudes are summed in that order.
struct RegionRanges {
  std::vector<std::size_t> order;
  std::vector<std::size_t> bounds;  ///< regions + 1 entries, from 0
};

/// The radiation kernel, in two stages inside one OpenMP parallel region.
/// Stage 1 computes, once per (direction, particle), the far-field vector
/// n x ((n - beta) x dbeta/dt) / (1 - n . beta)^2 and the retarded time
/// t - n . r into SoA scratch kept across calls. Stage 2 gives each
/// (region, direction, frequency) slot to one thread, which sums
/// (kernel * (w ff dt)) * exp(i omega (t - n . r)) over the region's
/// particles in the order RegionRanges lists them. With each region in
/// ascending particle index, as both plugins pass them, every amplitude
/// is the same sequence of floating-point operations as a per-frequency
/// loop over the region, bit for bit, whatever the OpenMP team size.
class RadiationKernel {
 public:
  /// Add one step's contributions of region k of `regions` to *accs[k].
  /// Every accumulator must have accs[0]'s detector configuration. bd*
  /// are the per-particle accelerations d(beta)/dt recorded by the pusher.
  void accumulate(std::span<SpectralAccumulator* const> accs,
                  const RegionRanges& regions,
                  const pic::ParticleBuffer& particles,
                  const std::vector<double>& bdx,
                  const std::vector<double>& bdy,
                  const std::vector<double>& bdz, double time, double dt,
                  const pic::GridSpec& grid);

 private:
  /// Stage-1 output, [direction][position in regions.order].
  std::vector<double> kx_, ky_, kz_, tRet_;
  std::vector<double> w_;  ///< [position]: macroparticle weight
};

/// Accumulates complex vector amplitudes over simulation steps.
class SpectralAccumulator {
 public:
  explicit SpectralAccumulator(DetectorConfig cfg);

  /// Add one step's contributions from every particle of a buffer: the
  /// one-region case of RadiationKernel.
  void accumulate(const pic::ParticleBuffer& particles,
                  const std::vector<double>& bdx,
                  const std::vector<double>& bdy,
                  const std::vector<double>& bdz, double time, double dt,
                  const pic::GridSpec& grid);

  /// |A|^2 spectrum for one direction (length = frequencies().size()).
  std::vector<double> intensity(std::size_t directionIdx) const;

  /// Raw complex amplitude (3 components) at (direction, frequency).
  std::array<std::complex<double>, 3> amplitude(std::size_t directionIdx,
                                                std::size_t freqIdx) const;

  const DetectorConfig& config() const { return cfg_; }
  const std::vector<double>& frequencies() const { return cfg_.frequencies; }

  void reset();

 private:
  friend class RadiationKernel;

  DetectorConfig cfg_;
  /// Layout: [dir][freq][component] interleaved re/im.
  std::vector<std::complex<double>> amp_;
  std::size_t slot(std::size_t d, std::size_t f, std::size_t c) const {
    return (d * cfg_.frequencies.size() + f) * 3 + c;
  }
  RadiationKernel kernel_;  ///< scratch for accumulate()
  RegionRanges all_;        ///< one region: every particle, in order
};

}  // namespace artsci::radiation
