#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/units.hpp"
#include "pic/khi.hpp"
#include "radiation/plugin.hpp"

namespace artsci::radiation {
namespace {

using pic::GridSpec;
using pic::ParticleBuffer;

/// Drive a single synthetic "gyrating" particle: circular velocity in the
/// x-y plane at angular frequency omega0, with mean drift betaDrift along
/// x. Returns the intensity spectrum seen by a detector along +x.
std::vector<double> gyratingSpectrum(double omega0, double betaDrift,
                                     double betaPerp,
                                     const std::vector<double>& freqs,
                                     int steps = 4000, double dt = 0.01) {
  DetectorConfig cfg;
  cfg.directions = {Vec3d{1, 0, 0}};
  cfg.frequencies = freqs;
  SpectralAccumulator acc(cfg);

  GridSpec grid{8, 8, 8, 1.0, 1.0, 1.0};
  ParticleBuffer p({-1.0, 1.0, "e"});
  p.push({4, 4, 4}, {}, 1.0);
  std::vector<double> bdx(1), bdy(1), bdz(1);

  double xPos = 4.0, yPos = 4.0;
  for (int s = 0; s < steps; ++s) {
    const double t = s * dt;
    const double bx = betaDrift + betaPerp * std::cos(omega0 * t);
    const double by = betaPerp * std::sin(omega0 * t);
    const double b2 = bx * bx + by * by;
    const double gamma = 1.0 / std::sqrt(1.0 - b2);
    p.x[0] = xPos;
    p.y[0] = yPos;
    p.ux[0] = gamma * bx;
    p.uy[0] = gamma * by;
    bdx[0] = -betaPerp * omega0 * std::sin(omega0 * t);
    bdy[0] = betaPerp * omega0 * std::cos(omega0 * t);
    bdz[0] = 0.0;
    acc.accumulate(p, bdx, bdy, bdz, t, dt, grid);
    xPos += bx * dt;
    yPos += by * dt;
  }
  return acc.intensity(0);
}

std::size_t peakIndex(const std::vector<double>& spectrum) {
  return static_cast<std::size_t>(
      std::max_element(spectrum.begin(), spectrum.end()) -
      spectrum.begin());
}

TEST(Detector, LogFrequencyAxis) {
  const auto f = logFrequencyAxis(0.1, 100.0, 4);
  ASSERT_EQ(f.size(), 4u);
  EXPECT_NEAR(f[0], 0.1, 1e-12);
  EXPECT_NEAR(f[1], 1.0, 1e-12);
  EXPECT_NEAR(f[3], 100.0, 1e-9);
}

TEST(Detector, RejectsNonUnitDirections) {
  DetectorConfig cfg;
  cfg.directions = {Vec3d{2, 0, 0}};
  cfg.frequencies = {1.0};
  EXPECT_THROW(SpectralAccumulator acc(cfg), ContractError);
}

TEST(Detector, InertialMotionRadiatesNothing) {
  // betaDot = 0 -> no radiation regardless of velocity.
  DetectorConfig cfg = DetectorConfig::defaultKhi(16);
  SpectralAccumulator acc(cfg);
  GridSpec grid{8, 8, 8, 1, 1, 1};
  ParticleBuffer p({-1.0, 1.0, "e"});
  p.push({4, 4, 4}, {0.5, 0, 0}, 1.0);
  std::vector<double> zero(1, 0.0);
  for (int s = 0; s < 100; ++s)
    acc.accumulate(p, zero, zero, zero, s * 0.01, 0.01, grid);
  for (double v : acc.intensity(0)) EXPECT_EQ(v, 0.0);
}

TEST(Detector, EmptyBufferAddsNothing) {
  SpectralAccumulator acc(DetectorConfig::defaultKhi(8));
  ParticleBuffer p({-1.0, 1.0, "e"});
  const std::vector<double> none;
  acc.accumulate(p, none, none, none, 0.0, 0.1, GridSpec{8, 8, 8, 1, 1, 1});
  for (double v : acc.intensity(0)) EXPECT_EQ(v, 0.0);
}

TEST(Detector, GyratingParticleEmitsAtGyrofrequency) {
  // Non-drifting slow gyration: the spectral peak sits at omega0.
  const auto freqs = logFrequencyAxis(0.5, 20.0, 96);
  const auto spec = gyratingSpectrum(3.0, 0.0, 0.05, freqs);
  const double peakFreq = freqs[peakIndex(spec)];
  EXPECT_NEAR(peakFreq, 3.0, 0.4);
}

TEST(Detector, DopplerUpshiftForApproachingEmitter) {
  // The approaching emitter's line moves up by 1/(1 - beta), the receding
  // one's down by 1/(1 + beta): the Fig 9(a) cutoff asymmetry.
  const double omega0 = 3.0, beta = 0.2;
  const auto freqs = logFrequencyAxis(0.5, 30.0, 192);
  const auto specTowards = gyratingSpectrum(omega0, +beta, 0.02, freqs);
  const auto specAway = gyratingSpectrum(omega0, -beta, 0.02, freqs);
  const double fTowards = freqs[peakIndex(specTowards)];
  const double fAway = freqs[peakIndex(specAway)];
  const double expectedRatio = (1.0 + beta) / (1.0 - beta);  // = 1.5
  EXPECT_NEAR(fTowards / fAway, expectedRatio, 0.25);
  EXPECT_GT(fTowards, omega0);
  EXPECT_LT(fAway, omega0);
}

TEST(Detector, CoherentScalingIsQuadraticInWeight) {
  // A macroparticle of weight w radiates coherently: I ~ w^2.
  const auto freqs = logFrequencyAxis(1.0, 10.0, 16);
  DetectorConfig cfg;
  cfg.directions = {Vec3d{1, 0, 0}};
  cfg.frequencies = freqs;
  GridSpec grid{8, 8, 8, 1, 1, 1};

  auto intensityForWeight = [&](double w) {
    SpectralAccumulator acc(cfg);
    ParticleBuffer p({-1.0, 1.0, "e"});
    p.push({4, 4, 4}, {0, 0, 0}, w);
    std::vector<double> bdx(1), bdy(1), bdz(1);
    for (int s = 0; s < 500; ++s) {
      const double t = s * 0.01;
      bdy[0] = 0.05 * std::cos(3.0 * t);
      acc.accumulate(p, bdx, bdy, bdz, t, 0.01, grid);
    }
    const auto spec = acc.intensity(0);
    return *std::max_element(spec.begin(), spec.end());
  };
  const double i1 = intensityForWeight(1.0);
  const double i3 = intensityForWeight(3.0);
  EXPECT_NEAR(i3 / i1, 9.0, 1e-6);
}

TEST(Detector, RandomPhaseEnsembleScalesLinearly) {
  // N particles at random positions emit with random relative phases:
  // the ensemble intensity grows ~N (incoherent), not N^2.
  const auto freqs = std::vector<double>{5.0};
  DetectorConfig cfg;
  cfg.directions = {Vec3d{1, 0, 0}};
  cfg.frequencies = freqs;
  GridSpec grid{64, 8, 8, 1.0, 1.0, 1.0};

  auto ensembleIntensity = [&](int n, std::uint64_t seed) {
    SpectralAccumulator acc(cfg);
    ParticleBuffer p({-1.0, 1.0, "e"});
    Rng rng(seed);
    for (int i = 0; i < n; ++i)
      p.push({rng.uniform(0, 64), rng.uniform(0, 8), rng.uniform(0, 8)},
             {0, 0, 0}, 1.0);
    std::vector<double> bdx(p.size(), 0.0), bdy(p.size()), bdz(p.size(), 0.0);
    for (int s = 0; s < 200; ++s) {
      const double t = s * 0.01;
      for (std::size_t i = 0; i < p.size(); ++i)
        bdy[i] = 0.05 * std::cos(5.0 * t);
      acc.accumulate(p, bdx, bdy, bdz, t, 0.01, grid);
    }
    return acc.intensity(0)[0];
  };
  // Average over seeds to tame the fluctuation of the random-phase sum.
  double i4 = 0, i64 = 0;
  for (std::uint64_t s = 0; s < 8; ++s) {
    i4 += ensembleIntensity(4, 11 + s);
    i64 += ensembleIntensity(64, 101 + s);
  }
  const double ratio = i64 / i4;  // expectation: 16 (linear), not 256
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 80.0);
}

TEST(Detector, FormFactorSuppressesHighFrequencies) {
  DetectorConfig cfg;
  cfg.directions = {Vec3d{1, 0, 0}};
  cfg.frequencies = {1.0, 50.0};
  cfg.formFactorRadius = 0.2;
  GridSpec grid{8, 8, 8, 1, 1, 1};

  auto run = [&](const DetectorConfig& c) {
    SpectralAccumulator acc(c);
    ParticleBuffer p({-1.0, 1.0, "e"});
    p.push({4, 4, 4}, {}, 1.0);
    std::vector<double> z(1, 0.0), bdy(1);
    for (int s = 0; s < 400; ++s) {
      const double t = s * 0.005;
      // Broadband kick: short acceleration burst.
      bdy[0] = (s < 10) ? 0.1 : 0.0;
      acc.accumulate(p, z, bdy, z, t, 0.005, grid);
    }
    return acc;
  };
  DetectorConfig noFF = cfg;
  noFF.formFactorRadius = 0.0;
  const auto withFF = run(cfg).intensity(0);
  const auto without = run(noFF).intensity(0);
  // Low frequency barely affected; high frequency strongly suppressed.
  EXPECT_GT(withFF[0] / without[0], 0.9);
  EXPECT_LT(withFF[1] / without[1], 0.1);
}

double totalIntensity(const SpectralAccumulator& acc) {
  double total = 0;
  for (std::size_t d = 0; d < acc.config().directions.size(); ++d)
    for (double v : acc.intensity(d)) total += v;
  return total;
}

constexpr pic::KhiRegion kRegions[] = {pic::KhiRegion::kApproaching,
                                       pic::KhiRegion::kReceding,
                                       pic::KhiRegion::kVortex};

TEST(RadiationPluginTest, AccumulatesOverSimulationSteps) {
  pic::SimulationConfig sc;
  sc.grid = GridSpec{8, 8, 8, 0.3, 0.3, 0.3};
  sc.dt = 0.1;
  sc.recordBetaDot = true;
  pic::Simulation sim(sc);
  const auto s = sim.addSpecies({-1.0, 1.0, "e"});
  sim.species(s).push({4, 4, 4}, {0.1, 0, 0}, 1.0);
  sim.fieldB().z.fill(1.0);  // gyration -> radiation

  DetectorConfig cfg = DetectorConfig::defaultKhi(24);
  auto plugin = std::make_shared<RegionRadiationPlugin>(cfg, s, 2.0);
  sim.addPlugin(plugin);
  sim.run(200);

  double total = 0;
  for (auto region : kRegions)
    total += totalIntensity(plugin->accumulator(region));
  EXPECT_GT(total, 0.0);
}

TEST(RadiationPluginTest, RequiresBetaDotRecording) {
  pic::SimulationConfig sc;
  sc.grid = GridSpec{8, 8, 8, 0.3, 0.3, 0.3};
  sc.dt = 0.1;
  sc.recordBetaDot = false;  // forgot to enable
  pic::Simulation sim(sc);
  const auto s = sim.addSpecies({-1.0, 1.0, "e"});
  sim.species(s).push({4, 4, 4}, {0.1, 0, 0}, 1.0);
  auto plugin = std::make_shared<RegionRadiationPlugin>(
      DetectorConfig::defaultKhi(8), s, 2.0);
  sim.addPlugin(plugin);
  EXPECT_THROW(sim.step(), ContractError);
}

/// Scalar reference for the two-stage kernel: one loop per (direction,
/// frequency) that recomputes every per-particle term, summing one
/// region's particles in the order `subset` lists them.
class ReferenceDetector {
 public:
  explicit ReferenceDetector(DetectorConfig cfg)
      : cfg_(std::move(cfg)),
        amp_(cfg_.directions.size() * cfg_.frequencies.size() * 3) {}

  void accumulate(const ParticleBuffer& particles,
                  const std::vector<double>& bdx,
                  const std::vector<double>& bdy,
                  const std::vector<double>& bdz, double time, double dt,
                  const GridSpec& grid,
                  const std::vector<std::size_t>& subset) {
    const std::size_t nFreq = cfg_.frequencies.size();
    for (std::size_t d = 0; d < cfg_.directions.size(); ++d) {
      for (std::size_t f = 0; f < nFreq; ++f) {
        const Vec3d n = cfg_.directions[d];
        const double omega = cfg_.frequencies[f];
        double ff = 1.0;
        if (cfg_.formFactorRadius > 0.0) {
          const double x = omega * cfg_.formFactorRadius;
          ff = std::exp(-0.5 * x * x);
        }
        std::complex<double> ax{}, ay{}, az{};
        for (const std::size_t i : subset) {
          const double g = particles.gamma(i);
          const Vec3d beta{particles.ux[i] / g, particles.uy[i] / g,
                           particles.uz[i] / g};
          const Vec3d betaDot{bdx[i], bdy[i], bdz[i]};
          const double oneMinusNBeta = 1.0 - n.dot(beta);
          const Vec3d inner = (n - beta).cross(betaDot);
          const Vec3d kernel =
              n.cross(inner) * (1.0 / (oneMinusNBeta * oneMinusNBeta));
          const Vec3d r{particles.x[i] * grid.dx, particles.y[i] * grid.dy,
                        particles.z[i] * grid.dz};
          const double phase = omega * (time - n.dot(r));
          const std::complex<double> rot{std::cos(phase), std::sin(phase)};
          const double wff = particles.w[i] * ff * dt;
          ax += kernel.x * wff * rot;
          ay += kernel.y * wff * rot;
          az += kernel.z * wff * rot;
        }
        amp_[(d * nFreq + f) * 3 + 0] += ax;
        amp_[(d * nFreq + f) * 3 + 1] += ay;
        amp_[(d * nFreq + f) * 3 + 2] += az;
      }
    }
  }

  std::complex<double> amplitude(std::size_t d, std::size_t f,
                                 std::size_t c) const {
    return amp_[(d * cfg_.frequencies.size() + f) * 3 + c];
  }

 private:
  DetectorConfig cfg_;
  std::vector<std::complex<double>> amp_;
};

/// The one-region plugin: one accumulator over every electron, summed in
/// particle order through SpectralAccumulator::accumulate.
class AllParticlesPlugin : public pic::Plugin {
 public:
  AllParticlesPlugin(DetectorConfig cfg, std::size_t speciesIdx)
      : speciesIdx_(speciesIdx), acc_(std::move(cfg)) {}

  const char* name() const override { return "radiation/all"; }
  void onStepEnd(pic::Simulation& sim) override {
    acc_.accumulate(sim.species(speciesIdx_), sim.betaDotX(speciesIdx_),
                    sim.betaDotY(speciesIdx_), sim.betaDotZ(speciesIdx_),
                    sim.time(), sim.dt(), sim.grid());
  }

  const SpectralAccumulator& accumulator() const { return acc_; }

 private:
  std::size_t speciesIdx_;
  SpectralAccumulator acc_;
};

/// Runs ReferenceDetector beside the plugins under test: one detector over
/// every particle, and one per KHI region over its ascending index set.
class ReferencePlugin : public pic::Plugin {
 public:
  ReferencePlugin(const DetectorConfig& cfg, std::size_t speciesIdx,
                  double vortexHalfWidthCells)
      : speciesIdx_(speciesIdx),
        vortexHalfWidth_(vortexHalfWidthCells),
        all_(cfg),
        regions_(3, ReferenceDetector(cfg)) {}

  const char* name() const override { return "radiation/reference"; }
  void onStepEnd(pic::Simulation& sim) override {
    const auto& p = sim.species(speciesIdx_);
    std::vector<std::size_t> every, subset[3];
    for (std::size_t i = 0; i < p.size(); ++i) {
      every.push_back(i);
      const auto region =
          pic::classifyKhiRegion(p.y[i], sim.grid().ny, vortexHalfWidth_);
      subset[static_cast<std::size_t>(region)].push_back(i);
    }
    const auto& bdx = sim.betaDotX(speciesIdx_);
    const auto& bdy = sim.betaDotY(speciesIdx_);
    const auto& bdz = sim.betaDotZ(speciesIdx_);
    all_.accumulate(p, bdx, bdy, bdz, sim.time(), sim.dt(), sim.grid(),
                    every);
    for (int r = 0; r < 3; ++r)
      regions_[static_cast<std::size_t>(r)].accumulate(
          p, bdx, bdy, bdz, sim.time(), sim.dt(), sim.grid(), subset[r]);
  }

  const ReferenceDetector& all() const { return all_; }
  const ReferenceDetector& region(pic::KhiRegion r) const {
    return regions_[static_cast<std::size_t>(r)];
  }

 private:
  std::size_t speciesIdx_;
  double vortexHalfWidth_;
  ReferenceDetector all_;
  std::vector<ReferenceDetector> regions_;
};

/// Bitwise equality of every amplitude component, -0.0 vs +0.0 included.
void expectBitIdentical(const SpectralAccumulator& acc,
                        const ReferenceDetector& ref,
                        const std::string& what) {
  std::size_t mismatches = 0;
  for (std::size_t d = 0; d < acc.config().directions.size(); ++d)
    for (std::size_t f = 0; f < acc.frequencies().size(); ++f) {
      const auto a = acc.amplitude(d, f);
      for (std::size_t c = 0; c < 3; ++c) {
        const auto b = ref.amplitude(d, f, c);
        if (std::bit_cast<std::uint64_t>(a[c].real()) !=
                std::bit_cast<std::uint64_t>(b.real()) ||
            std::bit_cast<std::uint64_t>(a[c].imag()) !=
                std::bit_cast<std::uint64_t>(b.imag()))
          ++mismatches;
      }
    }
  EXPECT_EQ(mismatches, 0u) << what;
}

/// KHI box with the all-particles and region plugins and the reference
/// beside them.
struct OracleRun {
  std::shared_ptr<AllParticlesPlugin> single;
  std::shared_ptr<RegionRadiationPlugin> regions;
  std::shared_ptr<ReferencePlugin> reference;
};

OracleRun runOracle(const DetectorConfig& det, double vortexHalfWidthCells,
                    long steps) {
  pic::KhiConfig kcfg;
  kcfg.grid = GridSpec{8, 32, 4, 0.25, 0.25, 0.25};
  kcfg.dt = 0.08;
  // Weight = cell volume / 3 is no power of two, so any reassociation of
  // w * ff * dt shows in the bits.
  kcfg.particlesPerCell = 3;
  pic::SimulationConfig sc;
  sc.grid = kcfg.grid;
  sc.dt = kcfg.dt;
  sc.recordBetaDot = true;
  pic::Simulation sim(sc);
  const auto sp = initializeKhi(sim, kcfg);
  OracleRun run{
      std::make_shared<AllParticlesPlugin>(det, sp.electrons),
      std::make_shared<RegionRadiationPlugin>(det, sp.electrons,
                                              vortexHalfWidthCells),
      std::make_shared<ReferencePlugin>(det, sp.electrons,
                                        vortexHalfWidthCells)};
  sim.addPlugin(run.single);
  sim.addPlugin(run.regions);
  sim.addPlugin(run.reference);
  sim.run(steps);
  return run;
}

TEST(RadiationKernelOracle, BitIdenticalToPerFrequencyLoop) {
  // Two directions (one oblique, so n x ... mixes all components), with
  // and without the form factor, at OMP teams of 1, 2 and 8.
  DetectorConfig det;
  det.directions = {Vec3d{1, 0, 0}, Vec3d{0.6, 0.8, 0.0}};
  det.frequencies = logFrequencyAxis(0.3, 30.0, 16);
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
#endif
  for (double radius : {0.0, 0.05}) {
    det.formFactorRadius = radius;
    for (int threads : {1, 2, 8}) {
#ifdef _OPENMP
      omp_set_num_threads(threads);
#else
      if (threads > 1) continue;
#endif
      const auto run = runOracle(det, 3.0, 6);
      const std::string tag = "radius=" + std::to_string(radius) +
                              " threads=" + std::to_string(threads);
      expectBitIdentical(run.single->accumulator(), run.reference->all(),
                         "all particles " + tag);
      EXPECT_GT(totalIntensity(run.single->accumulator()), 0.0);
      for (auto region : kRegions) {
        const auto& acc = run.regions->accumulator(region);
        expectBitIdentical(acc, run.reference->region(region),
                           std::string(pic::khiRegionName(region)) + " " + tag);
        EXPECT_GT(totalIntensity(acc), 0.0) << pic::khiRegionName(region);
      }
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

TEST(RadiationKernelOracle, EmptyRegionsStayZero) {
  // A vortex half-width wider than the box puts every electron in the
  // vortex region; the two stream regions are empty.
  const auto run = runOracle(DetectorConfig::defaultKhi(8), 100.0, 3);
  for (auto region : kRegions)
    expectBitIdentical(run.regions->accumulator(region),
                       run.reference->region(region),
                       pic::khiRegionName(region));
  for (auto region :
       {pic::KhiRegion::kApproaching, pic::KhiRegion::kReceding})
    for (double v : run.regions->accumulator(region).intensity(0))
      EXPECT_EQ(v, 0.0);
  EXPECT_GT(totalIntensity(run.regions->accumulator(pic::KhiRegion::kVortex)),
            0.0);
}

}  // namespace
}  // namespace artsci::radiation
