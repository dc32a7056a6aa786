/// Determinism and agreement tests for the tiled deposition
/// (pic/deposit_buffer.hpp): the tiled current deposit of the fused
/// particle pipeline and the tiled charge deposit must be bit-identical
/// across OMP thread counts and repeated runs, must agree with the serial
/// tile-free reference scatters (reference_step.hpp) to floating-point
/// reassociation tolerance, and must keep the discrete continuity
/// equation over long multi-rank runs. This is the test the README's
/// "Determinism guarantees" section points at for deposition.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "pic/deposit.hpp"
#include "pic/deposit_buffer.hpp"
#include "pic/fused_pipeline.hpp"
#include "pic/khi.hpp"
#include "pic/simulation.hpp"
#include "reference_step.hpp"

namespace artsci::pic {
namespace {

using reference::ThreadCountGuard;

/// Random wrapped particles. Their field-free moves (u / gamma * dt per
/// step, under half a cell for dt/dx <= 0.5) cross cell boundaries and the
/// periodic seam.
ParticleBuffer makeParticles(const GridSpec& g, int n, std::uint64_t seed) {
  ParticleBuffer p({-1.0, 1.0, "e"});
  Rng rng(seed);
  for (int i = 0; i < n; ++i)
    p.push({rng.uniform(0.0, static_cast<double>(g.nx)),
            rng.uniform(0.0, static_cast<double>(g.ny)),
            rng.uniform(0.0, static_cast<double>(g.nz))},
           {rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9),
            rng.uniform(-0.9, 0.9)},
           rng.uniform(0.5, 1.5));
  return p;
}

/// Current of one field-free fused step (E = B = 0, so every particle
/// drifts by u / gamma * dt) of a copy of `p`.
VectorField fusedCurrent(const GridSpec& g, ParticleBuffer p, double dt,
                         FusedPipeline& pipeline) {
  const VectorField zero(g);
  VectorField J(g);
  pipeline.pushAndScatter(p, zero, zero, dt);
  pipeline.accumulators().reduce(J, pipeline.index(), 0, g.nx);
  return J;
}

VectorField fusedCurrent(const GridSpec& g, const ParticleBuffer& p,
                         double dt) {
  FusedPipeline pipeline(g);
  return fusedCurrent(g, p, dt, pipeline);
}

/// The same field-free moves, deposited serially in particle order by the
/// tile-free reference scatter.
VectorField serialCurrent(const GridSpec& g, const ParticleBuffer& p,
                          double dt) {
  VectorField J(g);
  const double q = p.info().charge;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double gamma = p.gamma(i);
    reference::depositCurrent(J, g, p.x[i], p.y[i], p.z[i],
                              p.x[i] + p.ux[i] / gamma * dt / g.dx,
                              p.y[i] + p.uy[i] / gamma * dt / g.dy,
                              p.z[i] + p.uz[i] / gamma * dt / g.dz,
                              q * p.w[i], dt);
  }
  return J;
}

bool bitIdentical(const Field3& a, const Field3& b) {
  return a.raw().size() == b.raw().size() &&
         std::memcmp(a.raw().data(), b.raw().data(),
                     a.raw().size() * sizeof(double)) == 0;
}

bool bitIdentical(const VectorField& a, const VectorField& b) {
  return bitIdentical(a.x, b.x) && bitIdentical(a.y, b.y) &&
         bitIdentical(a.z, b.z);
}

double maxAbsDiff(const Field3& a, const Field3& b) {
  double m = 0.0;
  for (long i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a.flat(i) - b.flat(i)));
  return m;
}

TEST(TiledDeposit, MatchesSerialCurrent) {
  const GridSpec g{16, 32, 8, 0.2, 0.2, 0.2};
  const double dt = 0.1;
  const ParticleBuffer p = makeParticles(g, 5000, 7);

  const VectorField serialJ = serialCurrent(g, p, dt);
  const VectorField tiledJ = fusedCurrent(g, p, dt);

  EXPECT_LT(maxAbsDiff(serialJ.x, tiledJ.x), 1e-10);
  EXPECT_LT(maxAbsDiff(serialJ.y, tiledJ.y), 1e-10);
  EXPECT_LT(maxAbsDiff(serialJ.z, tiledJ.z), 1e-10);
  // Non-trivial deposit.
  EXPECT_GT(tiledJ.x.sumSquares() + tiledJ.y.sumSquares() +
                tiledJ.z.sumSquares(),
            0.0);
}

TEST(TiledDeposit, MatchesSerialCharge) {
  const GridSpec g{16, 32, 8, 0.2, 0.2, 0.2};
  const ParticleBuffer p = makeParticles(g, 5000, 11);

  Field3 serialRho(g.nx, g.ny, g.nz), tiledRho(g.nx, g.ny, g.nz);
  reference::depositCharge(serialRho, g, p);
  depositCharge(tiledRho, g, p);
  EXPECT_LT(maxAbsDiff(serialRho, tiledRho), 1e-10);
  EXPECT_GT(tiledRho.sumSquares(), 0.0);
}

TEST(TiledDeposit, BitIdenticalAcrossThreadCounts) {
  const GridSpec g{16, 32, 8, 0.2, 0.2, 0.2};
  const double dt = 0.1;
  const ParticleBuffer p = makeParticles(g, 8000, 23);

  ThreadCountGuard guard;
  std::vector<VectorField> js;
  std::vector<Field3> rhos;
  for (int threads : {1, 2, 8}) {
    guard.set(threads);
    js.push_back(fusedCurrent(g, p, dt));
    Field3 rho(g.nx, g.ny, g.nz);
    depositCharge(rho, g, p);
    rhos.push_back(std::move(rho));
  }
  EXPECT_TRUE(bitIdentical(js[0], js[1])) << "J: 1 vs 2 threads differ";
  EXPECT_TRUE(bitIdentical(js[0], js[2])) << "J: 1 vs 8 threads differ";
  EXPECT_TRUE(bitIdentical(rhos[0], rhos[1])) << "rho: 1 vs 2 threads differ";
  EXPECT_TRUE(bitIdentical(rhos[0], rhos[2])) << "rho: 1 vs 8 threads differ";
}

TEST(TiledDeposit, BitIdenticalAcrossRepeatedRuns) {
  const GridSpec g{12, 12, 6, 0.25, 0.25, 0.25};
  const double dt = 0.1;
  const ParticleBuffer p = makeParticles(g, 4000, 31);
  FusedPipeline pipeline(g);

  const VectorField first = fusedCurrent(g, p, dt, pipeline);
  for (int run = 0; run < 3; ++run) {
    const VectorField again = fusedCurrent(g, p, dt, pipeline);
    EXPECT_TRUE(bitIdentical(first, again)) << "run " << run;
  }
}

TEST(DepositBuffer, ReduceOverSlabsEqualsFullRange) {
  // The rank-decomposed driver reduces each slab's rows separately; the
  // union over disjoint row ranges must be the single reduce over
  // [0, nx) bit for bit, including the halo rows that wrap across the
  // periodic seam (tile column 0 spills into rows nx-2, nx-1 and the
  // last column into rows 0, 1). 3 x 3 tiles, the last y row ragged.
  const GridSpec g{12, 10, 4, 0.25, 0.25, 0.25};
  const double dt = 0.1;
  ParticleBuffer p = makeParticles(g, 3000, 61);
  FusedPipeline pipeline(g, TileDepositConfig{4, 4});
  const VectorField zero(g);
  pipeline.pushAndScatter(p, zero, zero, dt);
  const DepositBuffer& accum = pipeline.accumulators();

  VectorField full(g);
  accum.reduce(full, pipeline.index(), 0, g.nx);
  ASSERT_GT(full.x.sumSquares(), 0.0);

  // Two slabs split inside a tile column; rows past the first slab stay
  // untouched until the second reduce.
  VectorField two(g);
  const long a = 5;
  accum.reduce(two, pipeline.index(), 0, a);
  for (long i = a; i < g.nx; ++i)
    for (long j = 0; j < g.ny; ++j)
      for (long k = 0; k < g.nz; ++k)
        ASSERT_EQ(two.x.at(i, j, k), 0.0) << "row " << i << " committed";
  accum.reduce(two, pipeline.index(), a, g.nx);
  EXPECT_TRUE(bitIdentical(full, two));

  // Three ragged slabs (one row, eight rows, three rows), reduced in
  // descending order: disjoint ranges make the order irrelevant.
  VectorField three(g);
  accum.reduce(three, pipeline.index(), 9, g.nx);
  accum.reduce(three, pipeline.index(), 1, 9);
  accum.reduce(three, pipeline.index(), 0, 1);
  EXPECT_TRUE(bitIdentical(full, three));
}

TEST(TiledDeposit, ContinuityHoldsOverDistributedSteps) {
  // Esirkepov's theorem on the production path: over 30 steps of a
  // rank-decomposed Simulation, (rho^{n+1} - rho^n)/dt + div J = 0 at every
  // node for every rank and thread count. Immobile ions and a warm
  // electron gas keep div J far from zero (the default KHI is charge- and
  // current-neutral, which would make the check vacuous), so a dropped or
  // doubled halo row shows as an O(1) residual.
  KhiConfig kcfg;
  kcfg.grid = GridSpec{32, 32, 4, 0.2, 0.2, 0.2};
  kcfg.mobileIons = false;
  kcfg.thermalMomentum = 0.05;
  const GridSpec& g = kcfg.grid;
  const auto chargeDensity = [&g](const Simulation& dist) {
    Field3 rho(g.nx, g.ny, g.nz);
    depositCharge(rho, g, dist.gatherSpecies(0));
    return rho;
  };

  ThreadCountGuard guard;
  for (const int threads : {1, 8}) {
    guard.set(threads);
    for (const std::size_t ranks : {1u, 2u, 4u}) {
      SimulationConfig sc;
      sc.grid = g;
      sc.dt = kcfg.dt;
      sc.ranks = ranks;
      Simulation dist(sc);
      initializeKhi(dist, kcfg);
      ASSERT_EQ(dist.speciesCount(), 1u);

      Field3 rho0 = chargeDensity(dist);
      double maxResidual = 0.0, maxDivJ = 0.0;
      for (int step = 0; step < 30; ++step) {
        dist.step();
        const Field3 rho1 = chargeDensity(dist);
        const VectorField& J = dist.currentJ();
        for (long i = 0; i < g.nx; ++i)
          for (long j = 0; j < g.ny; ++j)
            for (long k = 0; k < g.nz; ++k) {
              const double divJ =
                  (J.x.at(i, j, k) - J.x.at(i - 1, j, k)) / g.dx +
                  (J.y.at(i, j, k) - J.y.at(i, j - 1, k)) / g.dy +
                  (J.z.at(i, j, k) - J.z.at(i, j, k - 1)) / g.dz;
              const double dRho =
                  (rho1.at(i, j, k) - rho0.at(i, j, k)) / sc.dt;
              maxResidual = std::max(maxResidual, std::abs(dRho + divJ));
              maxDivJ = std::max(maxDivJ, std::abs(divJ));
            }
        rho0 = rho1;
      }
      EXPECT_LT(maxResidual, 1e-11)
          << ranks << " ranks, " << threads << " threads";
      EXPECT_GT(maxDivJ, 1.0) << ranks << " ranks, " << threads << " threads";
    }
  }
}

TEST(TiledDeposit, SmallGridWrapOverlapAgrees) {
  // Grid smaller than one default tile: the padded halo wraps onto the
  // tile's own interior; agreement + thread invariance must still hold.
  const GridSpec g{6, 6, 6, 0.25, 0.25, 0.25};
  const double dt = 0.1;
  const ParticleBuffer p = makeParticles(g, 1500, 53);

  const VectorField serialJ = serialCurrent(g, p, dt);
  const VectorField tiledJ = fusedCurrent(g, p, dt);
  EXPECT_LT(maxAbsDiff(serialJ.x, tiledJ.x), 1e-10);
  EXPECT_LT(maxAbsDiff(serialJ.y, tiledJ.y), 1e-10);
  EXPECT_LT(maxAbsDiff(serialJ.z, tiledJ.z), 1e-10);

  ThreadCountGuard guard;
  guard.set(8);
  const VectorField tiled8 = fusedCurrent(g, p, dt);
  guard.set(1);
  const VectorField tiled1 = fusedCurrent(g, p, dt);
  EXPECT_TRUE(bitIdentical(tiled1, tiled8));
}

TEST(TiledDeposit, OutOfDomainPositionThrows) {
  const GridSpec g{8, 8, 8, 0.25, 0.25, 0.25};
  Field3 rho(g.nx, g.ny, g.nz);
  // Every axis must be validated — an unwrapped z would scatter outside
  // the padded tile column (the x/y tile key alone can't catch it).
  for (int axis = 0; axis < 3; ++axis) {
    ParticleBuffer p({-1.0, 1.0, "e"});
    Vec3d pos{2.0, 2.0, 2.0};
    (axis == 0 ? pos.x : axis == 1 ? pos.y : pos.z) = -0.5;  // not wrapped
    p.push(pos, {}, 1.0);
    EXPECT_THROW(depositCharge(rho, g, p), ContractError)
        << "axis " << axis;
  }
}

TEST(TiledDeposit, ScratchCellSizeMismatchThrows) {
  // Same extent, different spacing: the tiled kernels take the physics
  // factors from the scratch buffer's grid, so this must be rejected,
  // not silently mis-scaled.
  const GridSpec g{8, 8, 8, 0.25, 0.25, 0.25};
  GridSpec finer = g;
  finer.dx = 0.125;
  DepositBuffer scratch(finer);
  ParticleBuffer p({-1.0, 1.0, "e"});
  p.push({2.0, 2.0, 2.0}, {}, 1.0);
  Field3 rho(g.nx, g.ny, g.nz);
  EXPECT_THROW(depositCharge(rho, g, p, &scratch), ContractError);
}

TEST(TiledDeposit, SimulationStepBitIdenticalAcrossThreadCounts) {
  // With tiled deposition the *whole* PIC step is thread-count invariant:
  // gather/push/move are per-particle, the FDTD update writes disjoint
  // cells, and deposition is the only cross-thread reduction.
  auto runKhi = [](int threads) {
    ThreadCountGuard guard;
    guard.set(threads);
    KhiConfig kcfg;
    kcfg.grid = GridSpec{16, 16, 4, 0.2, 0.2, 0.2};
    kcfg.particlesPerCell = 4;
    SimulationConfig cfg;
    cfg.grid = kcfg.grid;
    cfg.dt = kcfg.dt;
    auto sim = std::make_unique<Simulation>(cfg);
    initializeKhi(*sim, kcfg);
    sim->run(3);
    return sim;
  };

  const auto a = runKhi(1);
  const auto b = runKhi(4);
  EXPECT_TRUE(bitIdentical(a->fieldE(), b->fieldE()));
  EXPECT_TRUE(bitIdentical(a->fieldB(), b->fieldB()));
  EXPECT_TRUE(bitIdentical(a->currentJ(), b->currentJ()));
}

}  // namespace
}  // namespace artsci::pic
