#include "radiation/detector.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace artsci::radiation {

std::vector<double> logFrequencyAxis(double omegaMin, double omegaMax,
                                     std::size_t count) {
  ARTSCI_EXPECTS(omegaMin > 0 && omegaMax > omegaMin && count >= 2);
  std::vector<double> out(count);
  const double logMin = std::log10(omegaMin);
  const double step = (std::log10(omegaMax) - logMin) /
                      static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i)
    out[i] = std::pow(10.0, logMin + step * static_cast<double>(i));
  return out;
}

DetectorConfig DetectorConfig::defaultKhi(std::size_t frequencyCount) {
  DetectorConfig cfg;
  // One detector on the +x axis: the +beta stream approaches it, the
  // -beta stream recedes (Fig 1's "approaching"/"receding" arrows).
  cfg.directions = {Vec3d{1.0, 0.0, 0.0}};
  cfg.frequencies = logFrequencyAxis(0.1, 100.0, frequencyCount);
  return cfg;
}

SpectralAccumulator::SpectralAccumulator(DetectorConfig cfg)
    : cfg_(std::move(cfg)) {
  ARTSCI_EXPECTS(!cfg_.directions.empty());
  ARTSCI_EXPECTS(!cfg_.frequencies.empty());
  for (const auto& n : cfg_.directions)
    ARTSCI_EXPECTS_MSG(std::abs(n.norm() - 1.0) < 1e-9,
                       "detector directions must be unit vectors");
  amp_.assign(cfg_.directions.size() * cfg_.frequencies.size() * 3,
              std::complex<double>(0.0, 0.0));
}

void SpectralAccumulator::reset() {
  std::fill(amp_.begin(), amp_.end(), std::complex<double>(0.0, 0.0));
}

void SpectralAccumulator::accumulate(
    const pic::ParticleBuffer& particles, const std::vector<double>& bdx,
    const std::vector<double>& bdy, const std::vector<double>& bdz,
    double time, double dt, const pic::GridSpec& grid) {
  const std::size_t count = particles.size();
  if (all_.order.size() != count) {
    all_.order.resize(count);
    std::iota(all_.order.begin(), all_.order.end(), std::size_t{0});
  }
  all_.bounds = {0, count};
  SpectralAccumulator* const self = this;
  kernel_.accumulate({&self, 1}, all_, particles, bdx, bdy, bdz, time, dt,
                     grid);
}

namespace {

/// (particle, slot) terms below which the kernel runs serially.
constexpr std::size_t kMinParallelTerms = 4096;

}  // namespace

void RadiationKernel::accumulate(std::span<SpectralAccumulator* const> accs,
                                 const RegionRanges& regions,
                                 const pic::ParticleBuffer& particles,
                                 const std::vector<double>& bdx,
                                 const std::vector<double>& bdy,
                                 const std::vector<double>& bdz, double time,
                                 double dt, const pic::GridSpec& grid) {
  ARTSCI_EXPECTS_MSG(bdx.size() == particles.size(),
                     "betaDot arrays missing — build the Simulation with "
                     "recordBetaDot=true");
  ARTSCI_EXPECTS(bdy.size() == particles.size() &&
                 bdz.size() == particles.size());
  ARTSCI_EXPECTS(!accs.empty() && regions.bounds.size() == accs.size() + 1);
  ARTSCI_EXPECTS(regions.bounds.front() == 0 &&
                 regions.bounds.back() == regions.order.size());
  for (std::size_t r = 0; r < accs.size(); ++r) {
    ARTSCI_EXPECTS(regions.bounds[r] <= regions.bounds[r + 1]);
    ARTSCI_EXPECTS(accs[r]->amp_.size() == accs[0]->amp_.size());
  }
  ARTSCI_EXPECTS(std::all_of(
      regions.order.begin(), regions.order.end(),
      [&](std::size_t i) { return i < particles.size(); }));
  const DetectorConfig& cfg = accs[0]->cfg_;
  const std::size_t total = regions.order.size();
  const std::size_t nDir = cfg.directions.size();
  const std::size_t nFreq = cfg.frequencies.size();
  const std::size_t slots = accs.size() * nDir * nFreq;
  kx_.resize(nDir * total);
  ky_.resize(nDir * total);
  kz_.resize(nDir * total);
  tRet_.resize(nDir * total);
  w_.resize(total);

  // Tiny calls (a few particles) run on the calling thread: a team's fork
  // and two barriers would cost more than the sums.
#pragma omp parallel if (total * slots >= kMinParallelTerms)
  {
    // Stage 1: per (direction, particle) terms, written to disjoint slots.
#pragma omp for schedule(static)
    for (std::size_t p = 0; p < total; ++p) {
      const std::size_t i = regions.order[p];
      const double g = particles.gamma(i);
      const Vec3d beta{particles.ux[i] / g, particles.uy[i] / g,
                       particles.uz[i] / g};
      const Vec3d betaDot{bdx[i], bdy[i], bdz[i]};
      const Vec3d r{particles.x[i] * grid.dx, particles.y[i] * grid.dy,
                    particles.z[i] * grid.dz};
      w_[p] = particles.w[i];
      for (std::size_t d = 0; d < nDir; ++d) {
        const Vec3d n = cfg.directions[d];
        const double oneMinusNBeta = 1.0 - n.dot(beta);
        // Far-field kernel n x ((n - beta) x betaDot) / (1 - n.beta)^2.
        const Vec3d inner = (n - beta).cross(betaDot);
        const Vec3d kernel =
            n.cross(inner) * (1.0 / (oneMinusNBeta * oneMinusNBeta));
        const std::size_t at = d * total + p;
        kx_[at] = kernel.x;
        ky_[at] = kernel.y;
        kz_[at] = kernel.z;
        tRet_[at] = time - n.dot(r);
      }
    }

    // Stage 2: one thread per (region, direction, frequency) slot, summing
    // the region's particles in ascending order. Regions differ in size,
    // hence the dynamic schedule.
#pragma omp for schedule(dynamic) nowait
    for (std::size_t s = 0; s < slots; ++s) {
      const std::size_t region = s / (nDir * nFreq);
      const std::size_t d = s / nFreq % nDir;
      const std::size_t f = s % nFreq;
      const double omega = cfg.frequencies[f];
      // Macro-particle form factor (Gaussian cloud of the given radius).
      double ff = 1.0;
      if (cfg.formFactorRadius > 0.0) {
        const double x = omega * cfg.formFactorRadius;
        ff = std::exp(-0.5 * x * x);
      }
      const double* kx = kx_.data() + d * total;
      const double* ky = ky_.data() + d * total;
      const double* kz = kz_.data() + d * total;
      const double* tRet = tRet_.data() + d * total;
      std::complex<double> ax{}, ay{}, az{};
      for (std::size_t p = regions.bounds[region];
           p < regions.bounds[region + 1]; ++p) {
        const double phase = omega * tRet[p];
        const std::complex<double> rot{std::cos(phase), std::sin(phase)};
        const double wff = w_[p] * ff * dt;
        ax += kx[p] * wff * rot;
        ay += ky[p] * wff * rot;
        az += kz[p] * wff * rot;
      }
      SpectralAccumulator& acc = *accs[region];
      acc.amp_[acc.slot(d, f, 0)] += ax;
      acc.amp_[acc.slot(d, f, 1)] += ay;
      acc.amp_[acc.slot(d, f, 2)] += az;
    }
  }
}

std::vector<double> SpectralAccumulator::intensity(
    std::size_t directionIdx) const {
  ARTSCI_EXPECTS(directionIdx < cfg_.directions.size());
  std::vector<double> out(cfg_.frequencies.size());
  for (std::size_t f = 0; f < out.size(); ++f) {
    double s = 0.0;
    for (std::size_t c = 0; c < 3; ++c)
      s += std::norm(amp_[slot(directionIdx, f, c)]);
    out[f] = s;
  }
  return out;
}

std::array<std::complex<double>, 3> SpectralAccumulator::amplitude(
    std::size_t directionIdx, std::size_t freqIdx) const {
  ARTSCI_EXPECTS(directionIdx < cfg_.directions.size());
  ARTSCI_EXPECTS(freqIdx < cfg_.frequencies.size());
  return {amp_[slot(directionIdx, freqIdx, 0)],
          amp_[slot(directionIdx, freqIdx, 1)],
          amp_[slot(directionIdx, freqIdx, 2)]};
}

}  // namespace artsci::radiation
