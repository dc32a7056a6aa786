#include <gtest/gtest.h>

#include <cmath>

#include "common/histogram.hpp"
#include "common/units.hpp"
#include "pic/diagnostics.hpp"
#include "pic/khi.hpp"
#include "pic/simulation.hpp"
#include "reference_step.hpp"

// Sanitizer builds run the long-evolution tests on fewer steps: ASan's
// per-access cost turns this suite from ~4 s into ~40 s otherwise. Every
// assertion below stays valid at the reduced counts (verified against the
// same physics thresholds); Release coverage is unchanged.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ARTSCI_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ARTSCI_SANITIZED_BUILD 1
#endif
#endif
#ifndef ARTSCI_SANITIZED_BUILD
#define ARTSCI_SANITIZED_BUILD 0
#endif

namespace artsci::pic {
namespace {

constexpr bool kSanitized = ARTSCI_SANITIZED_BUILD != 0;

SimulationConfig smallConfig() {
  SimulationConfig cfg;
  cfg.grid = GridSpec{8, 8, 8, 0.3, 0.3, 0.3};
  cfg.dt = 0.1;
  return cfg;
}

TEST(Simulation, CflViolationRejected) {
  SimulationConfig cfg = smallConfig();
  cfg.dt = 10.0;
  EXPECT_THROW(Simulation sim(cfg), ContractError);
}

TEST(Simulation, EmptySimulationStepsQuietly) {
  Simulation sim(smallConfig());
  sim.run(5);
  EXPECT_DOUBLE_EQ(sim.time(), 5 * smallConfig().dt);
  EXPECT_EQ(sim.solver().fieldEnergy(sim.fieldE(), sim.fieldB()), 0.0);
}

TEST(Simulation, FomCountsWork) {
  Simulation sim(smallConfig());
  const auto s = sim.addSpecies({-1.0, 1.0, "e"});
  for (int i = 0; i < 50; ++i)
    sim.species(s).push({4.0 + 0.01 * i, 4.0, 4.0}, {}, 1.0);
  sim.run(10);
  EXPECT_DOUBLE_EQ(sim.fom().particleUpdates, 500.0);
  EXPECT_DOUBLE_EQ(sim.fom().cellUpdates, 10.0 * 512);
  EXPECT_GT(sim.fom().fom(), 0.0);
}

TEST(Simulation, PluginFiresEveryStep) {
  struct CountingPlugin : Plugin {
    int calls = 0;
    const char* name() const override { return "count"; }
    void onStepEnd(Simulation&) override { ++calls; }
  };
  Simulation sim(smallConfig());
  auto plugin = std::make_shared<CountingPlugin>();
  sim.addPlugin(plugin);
  sim.run(7);
  EXPECT_EQ(plugin->calls, 7);
}

TEST(Simulation, LangmuirOscillationAtPlasmaFrequency) {
  // A cold uniform plasma with a small sinusoidal velocity perturbation
  // oscillates at omega_pe (=1 in plasma units). This validates the whole
  // gather-push-deposit-solve loop quantitatively.
  SimulationConfig cfg;
  cfg.grid = GridSpec{32, 4, 4, 0.25, 0.25, 0.25};
  cfg.dt = 0.02;
  Simulation sim(cfg);
  const auto e = sim.addSpecies({-1.0, 1.0, "e"});
  const auto ion = sim.addSpecies({+1.0, 1e6, "i"});  // immobile-ish ions
  Rng rng(3);
  const int ppc = 8;
  const double w = cfg.grid.cellVolume() / ppc;
  const double lx = static_cast<double>(cfg.grid.nx);
  for (long i = 0; i < cfg.grid.nx; ++i)
    for (long j = 0; j < cfg.grid.ny; ++j)
      for (long k = 0; k < cfg.grid.nz; ++k)
        for (int p = 0; p < ppc; ++p) {
          const Vec3d pos{i + rng.uniform(), j + rng.uniform(),
                          k + rng.uniform()};
          const double u0 = 0.01 * std::sin(2 * units::kPi * pos.x / lx);
          sim.species(e).push(pos, {u0, 0, 0}, w);
          sim.species(ion).push(pos, {0, 0, 0}, w);
        }
  // Track the electric field energy: it oscillates at 2 omega_pe; find the
  // first two minima -> separation = pi / omega_pe. Energy maxima sit
  // ~157 steps apart (pi/omega at dt 0.02), so 300 steps still bracket the
  // two maxima the fit needs.
  const int steps = kSanitized ? 300 : 400;
  std::vector<double> energy;
  for (int s = 0; s < steps; ++s) {
    sim.step();
    energy.push_back(sim.solver().electricEnergy(sim.fieldE()));
  }
  // Locate maxima of E-field energy (robust against noise: use the global
  // rise/fall pattern).
  std::vector<double> maxima;
  for (std::size_t i = 2; i + 2 < energy.size(); ++i) {
    if (energy[i] > energy[i - 1] && energy[i] > energy[i + 1] &&
        energy[i] > 0.25 * *std::max_element(energy.begin(), energy.end()))
      maxima.push_back(static_cast<double>(i) * cfg.dt);
  }
  ASSERT_GE(maxima.size(), 2u);
  const double period2 = maxima[1] - maxima[0];  // = pi/omega_pe
  const double omegaMeasured = units::kPi / period2;
  EXPECT_NEAR(omegaMeasured, 1.0, 0.15);
}

TEST(Simulation, EnergyConservedInQuietPlasma) {
  SimulationConfig cfg;
  cfg.grid = GridSpec{8, 8, 8, 0.3, 0.3, 0.3};
  cfg.dt = 0.05;
  Simulation sim(cfg);
  const auto e = sim.addSpecies({-1.0, 1.0, "e"});
  const auto ion = sim.addSpecies({+1.0, 100.0, "i"});
  Rng rng(5);
  const double w = cfg.grid.cellVolume() / 4.0;
  for (long c = 0; c < cfg.grid.cellCount() * 4; ++c) {
    const Vec3d pos{rng.uniform(0, 8), rng.uniform(0, 8),
                    rng.uniform(0, 8)};
    const Vec3d u{rng.normal(0, 0.02), rng.normal(0, 0.02),
                  rng.normal(0, 0.02)};
    sim.species(e).push(pos, u, w);
    sim.species(ion).push(pos, u * 0.0, w);
  }
  const double e0 = energyReport(sim).total();
  sim.run(kSanitized ? 50 : 100);
  const double e1 = energyReport(sim).total();
  // CIC PIC exhibits a startup transient (thermal-fluctuation fields build
  // from the quiet start) plus slow grid heating; 10% over 100 steps
  // bounds both without masking real instabilities (fewer steps heat
  // strictly less, so the same bound holds on the sanitized run).
  EXPECT_NEAR(e1, e0, 0.10 * e0);
}

TEST(Simulation, BetaDotRecordedWhenRequested) {
  SimulationConfig cfg = smallConfig();
  cfg.recordBetaDot = true;
  Simulation sim(cfg);
  const auto s = sim.addSpecies({-1.0, 1.0, "e"});
  sim.species(s).push({4, 4, 4}, {0.1, 0, 0}, 1.0);
  sim.fieldE().y.fill(0.5);  // uniform E_y accelerates the particle
  sim.step();
  ASSERT_EQ(sim.betaDotY(s).size(), 1u);
  EXPECT_NE(sim.betaDotY(s)[0], 0.0);
}

TEST(Khi, StreamVelocityProfile) {
  EXPECT_DOUBLE_EQ(khiStreamVelocity(0.0, 64, 0.2), -0.2);
  EXPECT_DOUBLE_EQ(khiStreamVelocity(32.0, 64, 0.2), 0.2);
  EXPECT_DOUBLE_EQ(khiStreamVelocity(63.9, 64, 0.2), -0.2);
  EXPECT_DOUBLE_EQ(khiStreamVelocity(16.0, 64, 0.2), 0.2);  // boundary
}

TEST(Khi, RegionClassification) {
  // ny = 64: shear surfaces at y = 16 and y = 48.
  EXPECT_EQ(classifyKhiRegion(32.0, 64, 4.0), KhiRegion::kApproaching);
  EXPECT_EQ(classifyKhiRegion(2.0, 64, 4.0), KhiRegion::kReceding);
  EXPECT_EQ(classifyKhiRegion(17.0, 64, 4.0), KhiRegion::kVortex);
  EXPECT_EQ(classifyKhiRegion(45.0, 64, 4.0), KhiRegion::kVortex);
  EXPECT_EQ(classifyKhiRegion(62.0, 64, 4.0), KhiRegion::kReceding);
}

TEST(Khi, InitializationIsChargeAndCurrentNeutral) {
  KhiConfig cfg;
  cfg.grid = GridSpec{16, 32, 4, 0.25, 0.25, 0.25};
  cfg.dt = 0.05;
  cfg.particlesPerCell = 4;
  SimulationConfig sc;
  sc.grid = cfg.grid;
  sc.dt = cfg.dt;
  Simulation sim(sc);
  const auto species = initializeKhi(sim, cfg);
  // Same positions and velocities -> charge density and current cancel.
  Field3 rho(cfg.grid.nx, cfg.grid.ny, cfg.grid.nz);
  depositCharge(rho, cfg.grid, sim.species(species.electrons));
  depositCharge(rho, cfg.grid, sim.species(species.ions));
  double maxRho = 0.0;
  for (long i = 0; i < rho.size(); ++i)
    maxRho = std::max(maxRho, std::abs(rho.flat(i)));
  EXPECT_LT(maxRho, 1e-12);
}

TEST(Khi, ExpectedParticleCount) {
  KhiConfig cfg;
  cfg.grid = GridSpec{8, 16, 4, 0.25, 0.25, 0.25};
  cfg.particlesPerCell = 9;  // paper value
  cfg.dt = 0.05;
  SimulationConfig sc;
  sc.grid = cfg.grid;
  sc.dt = cfg.dt;
  Simulation sim(sc);
  initializeKhi(sim, cfg);
  EXPECT_EQ(sim.particleCount(),
            static_cast<std::size_t>(8 * 16 * 4 * 9 * 2));  // e + ions
}

TEST(Khi, MagneticFieldGrowsFromShear) {
  // The KHI converts flow shear into magnetic field energy: after the
  // linear phase E_B must exceed its seed level by orders of magnitude.
  KhiConfig cfg;
  cfg.grid = GridSpec{16, 32, 4, 0.25, 0.25, 0.25};
  cfg.dt = 0.1;
  cfg.particlesPerCell = 4;
  cfg.ionMassRatio = 25.0;
  SimulationConfig sc;
  sc.grid = cfg.grid;
  sc.dt = cfg.dt;
  Simulation sim(sc);
  initializeKhi(sim, cfg);
  sim.run(5);
  const double early = sim.solver().magneticEnergy(sim.fieldB());
  // The instability grows exponentially, so the sanitized run's shorter
  // window still clears the 20x floor with margin.
  sim.run(kSanitized ? 170 : 295);
  const double late = sim.solver().magneticEnergy(sim.fieldB());
  EXPECT_GT(late, 20.0 * early);
}

TEST(Distributed, MatchesSingleRankPhysics) {
  // The slab-decomposed run must reproduce the single-rank results.
  KhiConfig kcfg;
  kcfg.grid = GridSpec{16, 16, 4, 0.25, 0.25, 0.25};
  kcfg.dt = 0.08;
  kcfg.particlesPerCell = 2;

  // 4 ranks on nx=16 need at least 4 tile columns (slabs are whole tile
  // columns); use 4-cell tiles in both runs so they stay comparable.
  const TileDepositConfig tiles{4, 8};

  SimulationConfig sc;
  sc.grid = kcfg.grid;
  sc.dt = kcfg.dt;
  sc.tiles = tiles;
  Simulation ref(sc);
  initializeKhi(ref, kcfg);

  sc.ranks = 4;
  Simulation dist(sc);
  initializeKhi(dist, kcfg);

  ref.run(20);
  dist.run(20);

  const double eRef = ref.solver().magneticEnergy(ref.fieldB());
  const double eDist = dist.solver().magneticEnergy(dist.fieldB());
  EXPECT_NEAR(eDist, eRef, 1e-9 * std::max(1.0, eRef));

  // Same particle count preserved through migrations.
  EXPECT_EQ(dist.gatherSpecies(0).size(), ref.species(0).size());
}

TEST(Distributed, SlabPartitionCoversGrid) {
  SimulationConfig sc;
  sc.grid = GridSpec{17, 8, 8, 0.25, 0.25, 0.25};  // non-divisible
  sc.dt = 0.05;
  sc.ranks = 4;
  sc.tiles = TileDepositConfig{4, 8};  // 5 ragged tile columns for 4 ranks
  Simulation dist(sc);
  long covered = 0;
  long prevEnd = 0;
  for (std::size_t r = 0; r < 4; ++r) {
    const auto [b, e] = dist.slabOf(r);
    EXPECT_EQ(b, prevEnd);
    EXPECT_GT(e, b);
    covered += e - b;
    prevEnd = e;
  }
  EXPECT_EQ(covered, 17);
}

TEST(SupercellIndexTest, SortGroupsByTile) {
  GridSpec g{8, 8, 8, 0.2, 0.2, 0.2};
  ParticleBuffer p({-1.0, 1.0, "e"});
  Rng rng(9);
  for (int i = 0; i < 500; ++i)
    p.push({rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0, 8)},
           {rng.normal(), rng.normal(), rng.normal()}, 1.0);
  reference::KeyedIndex idx(g, 4, 2);
  EXPECT_EQ(idx.tileCount(), 8);
  idx.sort(p);
  // Every particle within a tile range must map back to that tile.
  std::size_t seen = 0;
  for (long t = 0; t < idx.tileCount(); ++t) {
    const auto range = idx.tileRange(t);
    for (std::size_t i = range.begin; i < range.end; ++i) {
      EXPECT_EQ(idx.tileOf(p.x[i], p.y[i], p.z[i]), t);
      ++seen;
    }
  }
  EXPECT_EQ(seen, p.size());
}

TEST(Diagnostics, GrowthRateFitRecoversExponential) {
  std::vector<double> energies;
  const double gamma = 0.21, dtSample = 0.5;
  for (int i = 0; i < 40; ++i)
    energies.push_back(1e-8 * std::exp(2.0 * gamma * i * dtSample));
  EXPECT_NEAR(fitGrowthRate(energies, dtSample, 5, 35), gamma, 1e-9);
}

/// Weighted histogram of u_x over the particles of one KHI region.
Histogram1D khiRegionMomentumHistogram(const ParticleBuffer& particles,
                                       long ny, KhiRegion region,
                                       double vortexHalfWidthCells, double lo,
                                       double hi, std::size_t bins) {
  Histogram1D h(lo, hi, bins);
  for (std::size_t i = 0; i < particles.size(); ++i)
    if (classifyKhiRegion(particles.y[i], ny, vortexHalfWidthCells) == region)
      h.fill(particles.ux[i], particles.w[i]);
  return h;
}

TEST(Diagnostics, MomentumHistogramSeparatesStreams) {
  KhiConfig cfg;
  cfg.grid = GridSpec{8, 32, 4, 0.25, 0.25, 0.25};
  cfg.dt = 0.05;
  cfg.particlesPerCell = 4;
  SimulationConfig sc;
  sc.grid = cfg.grid;
  sc.dt = cfg.dt;
  Simulation sim(sc);
  const auto sp = initializeKhi(sim, cfg);
  const auto& e = sim.species(sp.electrons);
  auto approaching = khiRegionMomentumHistogram(
      e, cfg.grid.ny, KhiRegion::kApproaching, 3.0, -0.5, 0.5, 50);
  auto receding = khiRegionMomentumHistogram(
      e, cfg.grid.ny, KhiRegion::kReceding, 3.0, -0.5, 0.5, 50);
  EXPECT_GT(approaching.meanValue(), 0.15);
  EXPECT_LT(receding.meanValue(), -0.15);
}

}  // namespace
}  // namespace artsci::pic
