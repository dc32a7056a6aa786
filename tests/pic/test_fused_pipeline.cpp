/// Contract tests of the supercell-fused particle pipeline
/// (pic/fused_pipeline.hpp):
///  * bit-identity to the scalar reference step of reference_step.hpp —
///    fields, particle state and d(beta)/dt, over multiple steps (both
///    run the once-per-step supercell sort, so even the particle order
///    matches);
///  * bit-identity to itself across OMP thread counts and repeated runs;
///  * bitwise equivalence of the support-clipped tile scatter kernel to
///    the reference Esirkepov kernel;
///  * the CFL displacement guard and the wrapped-position precondition;
///  * correct periodic wrapping for a near-light-speed particle on a
///    tiny grid (regression for the single-wrap assumption).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "pic/fused_pipeline.hpp"
#include "pic/khi.hpp"
#include "pic/simulation.hpp"
#include "reference_step.hpp"

namespace artsci::pic {
namespace {

using reference::ThreadCountGuard;

bool bitIdentical(const Field3& a, const Field3& b) {
  return a.raw().size() == b.raw().size() &&
         std::memcmp(a.raw().data(), b.raw().data(),
                     a.raw().size() * sizeof(double)) == 0;
}

bool bitIdentical(const VectorField& a, const VectorField& b) {
  return bitIdentical(a.x, b.x) && bitIdentical(a.y, b.y) &&
         bitIdentical(a.z, b.z);
}

bool sameDoubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool particlesBitIdentical(const ParticleBuffer& a, const ParticleBuffer& b) {
  return sameDoubles(a.x, b.x) && sameDoubles(a.y, b.y) &&
         sameDoubles(a.z, b.z) && sameDoubles(a.ux, b.ux) &&
         sameDoubles(a.uy, b.uy) && sameDoubles(a.uz, b.uz) &&
         sameDoubles(a.w, b.w);
}

KhiConfig smallKhi() {
  KhiConfig kcfg;
  kcfg.grid = GridSpec{16, 32, 4, 0.2, 0.2, 0.2};
  kcfg.particlesPerCell = 4;
  return kcfg;
}

SimulationConfig smallKhiConfig(bool recordBetaDot) {
  SimulationConfig cfg;
  cfg.grid = smallKhi().grid;
  cfg.dt = smallKhi().dt;
  cfg.recordBetaDot = recordBetaDot;
  return cfg;
}

std::unique_ptr<Simulation> makeKhiSim(bool recordBetaDot = false) {
  auto sim = std::make_unique<Simulation>(smallKhiConfig(recordBetaDot));
  initializeKhi(*sim, smallKhi());
  return sim;
}

TEST(FusedPipeline, MatchesReferenceStepBitwiseOverSteps) {
  auto fused = makeKhiSim();
  reference::Stepper ref(smallKhiConfig(false), *fused);
  for (int s = 0; s < 5; ++s) {
    ref.step();
    fused->step();
    EXPECT_TRUE(bitIdentical(ref.J, fused->currentJ()))
        << "J diverged at step " << s;
    EXPECT_TRUE(bitIdentical(ref.E, fused->fieldE()))
        << "E diverged at step " << s;
    EXPECT_TRUE(bitIdentical(ref.B, fused->fieldB()))
        << "B diverged at step " << s;
    for (std::size_t sp = 0; sp < fused->speciesCount(); ++sp)
      EXPECT_TRUE(particlesBitIdentical(ref.species[sp], fused->species(sp)))
          << "species " << sp << " diverged at step " << s;
  }
}

TEST(FusedPipeline, BetaDotMatchesReferenceStepBitwise) {
  auto fused = makeKhiSim(/*recordBetaDot=*/true);
  reference::Stepper ref(smallKhiConfig(true), *fused);
  ref.run(2);
  fused->run(2);
  for (std::size_t sp = 0; sp < fused->speciesCount(); ++sp) {
    EXPECT_TRUE(sameDoubles(ref.bdx[sp], fused->betaDotX(sp)));
    EXPECT_TRUE(sameDoubles(ref.bdy[sp], fused->betaDotY(sp)));
    EXPECT_TRUE(sameDoubles(ref.bdz[sp], fused->betaDotZ(sp)));
    ASSERT_EQ(fused->betaDotX(sp).size(), fused->species(sp).size());
  }
  // Guard against vacuity: something must have accelerated.
  double sum = 0;
  for (double v : fused->betaDotY(0)) sum += std::abs(v);
  EXPECT_GT(sum, 0.0);
}

TEST(FusedPipeline, BitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  std::vector<std::unique_ptr<Simulation>> runs;
  for (int threads : {1, 2, 8}) {
    guard.set(threads);
    auto sim = makeKhiSim();
    sim->run(3);
    runs.push_back(std::move(sim));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_TRUE(bitIdentical(runs[0]->fieldE(), runs[r]->fieldE()));
    EXPECT_TRUE(bitIdentical(runs[0]->fieldB(), runs[r]->fieldB()));
    EXPECT_TRUE(bitIdentical(runs[0]->currentJ(), runs[r]->currentJ()));
    for (std::size_t sp = 0; sp < runs[0]->speciesCount(); ++sp)
      EXPECT_TRUE(
          particlesBitIdentical(runs[0]->species(sp), runs[r]->species(sp)));
  }
}

TEST(FusedPipeline, BitIdenticalAcrossRepeatedRuns) {
  auto first = makeKhiSim();
  first->run(3);
  for (int run = 0; run < 2; ++run) {
    auto again = makeKhiSim();
    again->run(3);
    EXPECT_TRUE(bitIdentical(first->fieldE(), again->fieldE()));
    EXPECT_TRUE(bitIdentical(first->fieldB(), again->fieldB()));
    EXPECT_TRUE(bitIdentical(first->currentJ(), again->currentJ()));
  }
}

TEST(FusedPipeline, TileScatterKernelMatchesReferenceBitwise) {
  // The support-clipped kernel must emit the exact adds of the reference
  // kernel — same values, same cells — for sub-cell moves including
  // integer-position and zero/axis-aligned-displacement edge cases.
  const GridSpec g{16, 16, 8, 0.2, 0.2, 0.2};
  const double dt = 0.05;
  const long strideY = 12, strideZ = g.nz + 4;  // covers cells [0,8)^2 +-2
  const std::size_t planeSize =
      static_cast<std::size_t>(12 * strideY * strideZ);
  std::vector<double> refStore(3 * planeSize, 0.0);
  std::vector<double> fastStore(3 * planeSize, 0.0);
  const auto makeSink = [&](std::vector<double>& s) {
    return DepositBuffer::TileAccum{s.data(),
                                    s.data() + planeSize,
                                    s.data() + 2 * planeSize,
                                    -DepositBuffer::kHalo,
                                    -DepositBuffer::kHalo,
                                    strideY,
                                    strideZ};
  };
  const DepositBuffer::TileAccum ref = makeSink(refStore);
  const DepositBuffer::TileAccum fast = makeSink(fastStore);

  Rng rng(17);
  for (int c = 0; c < 400; ++c) {
    double x0 = rng.uniform(2.0, 6.0);
    double y0 = rng.uniform(2.0, 6.0);
    double z0 = rng.uniform(2.0, 6.0);
    double dx = rng.uniform(-0.45, 0.45);
    double dy = rng.uniform(-0.45, 0.45);
    double dz = rng.uniform(-0.45, 0.45);
    switch (c % 5) {
      case 1:  // exactly-on-node start
        x0 = std::floor(x0);
        y0 = std::floor(y0);
        break;
      case 2:  // zero displacement
        dx = dy = dz = 0.0;
        break;
      case 3:  // axis-aligned move
        dy = dz = 0.0;
        break;
      case 4:  // cell-boundary crossing
        x0 = std::floor(x0) + 0.95;
        dx = 0.3;
        break;
      default:
        break;
    }
    const double qw = rng.uniform(-2.0, 2.0);
    reference::scatterEsirkepov(g, x0, y0, z0, x0 + dx, y0 + dy, z0 + dz, qw,
                                dt, ref);
    DepositBuffer::scatterEsirkepovTile(g, x0, y0, z0, x0 + dx, y0 + dy,
                                        z0 + dz, qw, dt, fast);
  }
  EXPECT_EQ(std::memcmp(refStore.data(), fastStore.data(),
                        refStore.size() * sizeof(double)),
            0);
  double sum = 0;
  for (double v : refStore) sum += std::abs(v);
  EXPECT_GT(sum, 0.0);  // non-vacuous
}

TEST(FusedPipeline, NearLightSpeedParticleWrapsOnTinyGrid) {
  // Regression for the single-wrap assumption: a near-light-speed
  // particle (gamma ~ 374) on a 4^3 grid crosses the whole domain every
  // few steps; every step must leave it wrapped inside [0, n) and the
  // fused path must keep matching the reference step bitwise.
  SimulationConfig cfg;
  cfg.grid = GridSpec{4, 4, 4, 0.2, 0.2, 0.2};
  cfg.dt = 0.1;  // CFL 0.87
  Simulation fused(cfg);
  const auto s = fused.addSpecies({-1.0, 1.0, "e"});
  fused.species(s).push({0.5, 1.5, 2.5}, {300.0, 200.0, 100.0}, 1.0);
  fused.species(s).push({3.9, 0.1, 3.9}, {-250.0, 150.0, -50.0}, 1.0);
  reference::Stepper ref(cfg, fused);
  for (int step = 0; step < 100; ++step) {
    fused.step();
    ref.step();
    const ParticleBuffer& p = fused.species(0);
    for (std::size_t i = 0; i < p.size(); ++i) {
      ASSERT_GE(p.x[i], 0.0);
      ASSERT_LT(p.x[i], 4.0);
      ASSERT_GE(p.y[i], 0.0);
      ASSERT_LT(p.y[i], 4.0);
      ASSERT_GE(p.z[i], 0.0);
      ASSERT_LT(p.z[i], 4.0);
      ASSERT_TRUE(std::isfinite(p.ux[i]));
    }
  }
  EXPECT_TRUE(bitIdentical(fused.fieldE(), ref.E));
  EXPECT_TRUE(particlesBitIdentical(fused.species(0), ref.species[0]));
}

TEST(FusedPipeline, ExcessiveDisplacementThrows) {
  // The CFL displacement guard: a dt that moves a particle more than one
  // cell per step must be rejected, not silently mis-deposited.
  const GridSpec g{8, 8, 8, 0.1, 0.1, 0.1};
  FusedPipeline pipeline(g);
  VectorField E(g), B(g);
  ParticleBuffer p({-1.0, 1.0, "e"});
  p.push({4.0, 4.0, 4.0}, {1000.0, 0.0, 0.0}, 1.0);  // beta ~ 1
  // displacement ~ c * dt / dx = 5 cells.
  EXPECT_THROW(pipeline.pushAndScatter(p, E, B, 0.5), ContractError);
}

TEST(FusedPipeline, OutOfDomainPositionThrows) {
  SimulationConfig cfg;
  cfg.grid = GridSpec{8, 8, 8, 0.3, 0.3, 0.3};
  cfg.dt = 0.1;
  Simulation sim(cfg);
  const auto s = sim.addSpecies({-1.0, 1.0, "e"});
  sim.species(s).push({-0.5, 4.0, 4.0}, {}, 1.0);  // not wrapped
  EXPECT_THROW(sim.step(), ContractError);
}

}  // namespace
}  // namespace artsci::pic
