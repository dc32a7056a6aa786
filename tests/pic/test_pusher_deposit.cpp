#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hpp"
#include "pic/deposit.hpp"
#include "pic/interpolate.hpp"
#include "pic/pusher.hpp"
#include "reference_step.hpp"

namespace artsci::pic {
namespace {

TEST(Boris, PureMagneticFieldPreservesEnergy) {
  // |u| is exactly conserved in a pure B field (rotation only).
  Vec3d u{0.3, 0.1, -0.2};
  const double u0 = u.norm();
  const Vec3d B{0.0, 0.0, 1.5};
  for (int s = 0; s < 1000; ++s) u = borisPush(u, {}, B, -1.0, 0.05);
  EXPECT_NEAR(u.norm(), u0, 1e-12);
}

TEST(Boris, GyrationFrequency) {
  // Nonrelativistic electron in B_z: omega_c = |q| B / (gamma m).
  const double B0 = 1.0;
  const double u0 = 0.01;  // nonrelativistic
  Vec3d u{u0, 0.0, 0.0};
  const double dt = 0.001;
  // u_x = u0 cos(omega_c t): zero crossings at T/4, 3T/4, 5T/4 — the
  // separation between the 1st and 3rd crossing is one full period.
  double t = 0.0;
  std::vector<double> crossings;
  double prev = u.x;
  while (crossings.size() < 3 && t < 100.0) {
    u = borisPush(u, {}, {0, 0, B0}, -1.0, dt);
    t += dt;
    if ((prev > 0 && u.x <= 0) || (prev < 0 && u.x >= 0))
      crossings.push_back(t);
    prev = u.x;
  }
  ASSERT_EQ(crossings.size(), 3u);
  const double period = 2.0 * units::kPi / B0;
  EXPECT_NEAR(crossings[2] - crossings[0], period, 0.01 * period);
}

TEST(Boris, ExBDrift) {
  // Crossed fields E_x, B_z: drift velocity v_d = E x B / B^2 = -E/B y^.
  const double E0 = 0.01, B0 = 1.0;
  Vec3d u{0, 0, 0};
  Vec3d displacement{};
  const double dt = 0.01;
  const int steps = 100000;
  for (int s = 0; s < steps; ++s) {
    u = borisPush(u, {E0, 0, 0}, {0, 0, B0}, -1.0, dt);
    const double g = std::sqrt(1.0 + u.dot(u));
    displacement += u * (dt / g);
  }
  const Vec3d vDrift = displacement / (steps * dt);
  // E x B / B^2 for fields along x and z: drift along -y... with q sign
  // the guiding-center drift is charge independent: v = E x B / B^2.
  const Vec3d expected = Vec3d{E0, 0, 0}.cross({0, 0, B0}) / (B0 * B0);
  EXPECT_NEAR(vDrift.x, expected.x, 5e-4);
  EXPECT_NEAR(vDrift.y, expected.y, 5e-4);
}

TEST(Boris, ElectricAcceleration) {
  // Constant E along x: du/dt = (q/m) E exactly in Boris (no B).
  Vec3d u{0, 0, 0};
  const double dt = 0.1, E0 = 0.2;
  for (int s = 0; s < 100; ++s) u = borisPush(u, {E0, 0, 0}, {}, -1.0, dt);
  EXPECT_NEAR(u.x, -E0 * dt * 100, 1e-12);
}

TEST(Boris, RelativisticGammaGrowth) {
  Vec3d u{0, 0, 0};
  const double dt = 0.05;
  for (int s = 0; s < 2000; ++s) u = borisPush(u, {1.0, 0, 0}, {}, -1.0, dt);
  const double gamma = std::sqrt(1.0 + u.dot(u));
  EXPECT_NEAR(gamma, std::sqrt(1.0 + 100.0 * 100.0), 1e-9);
}

TEST(Gather, UniformFieldIsExact) {
  GridSpec g{8, 8, 8, 0.2, 0.2, 0.2};
  VectorField E(g);
  E.x.fill(2.0);
  E.y.fill(-1.0);
  E.z.fill(0.5);
  for (double px : {0.1, 3.7, 7.9}) {
    const Vec3d e = gatherE(E, px, 4.2, 1.3);
    EXPECT_NEAR(e.x, 2.0, 1e-12);
    EXPECT_NEAR(e.y, -1.0, 1e-12);
    EXPECT_NEAR(e.z, 0.5, 1e-12);
  }
}

TEST(Gather, LinearFieldInterpolatedExactly) {
  // CIC reproduces linear functions exactly (away from the periodic seam).
  GridSpec g{16, 8, 8, 0.2, 0.2, 0.2};
  VectorField B(g);
  for (long i = 0; i < g.nx; ++i)
    for (long j = 0; j < g.ny; ++j)
      for (long k = 0; k < g.nz; ++k)
        B.z.at(i, j, k) = 2.0 * (i + 0.5) + 3.0 * (j + 0.5);  // Bz stagger
  const double px = 5.3, py = 3.6, pz = 2.0;
  const Vec3d b = gatherB(B, px, py, pz);
  EXPECT_NEAR(b.z, 2.0 * px + 3.0 * py, 1e-10);
}

TEST(Deposit, ChargeConservationSingleParticle) {
  // The Esirkepov theorem: (rho1 - rho0)/dt + div J = 0 holds exactly.
  GridSpec g{8, 8, 8, 0.3, 0.3, 0.3};
  const double dt = 0.07;

  ParticleBuffer before({-1.0, 1.0, "e"});
  ParticleBuffer after({-1.0, 1.0, "e"});
  const Vec3d x0{3.4, 4.7, 2.1};
  const Vec3d x1{3.9, 4.2, 2.65};  // moves less than one cell per axis
  before.push(x0, {}, 1.7);
  after.push(x1, {}, 1.7);

  Field3 rho0(g.nx, g.ny, g.nz), rho1(g.nx, g.ny, g.nz);
  depositCharge(rho0, g, before);
  depositCharge(rho1, g, after);

  VectorField J(g);
  reference::depositCurrent(J, g, x0.x, x0.y, x0.z, x1.x, x1.y, x1.z,
                            -1.0 * 1.7, dt);

  double maxViolation = 0.0;
  for (long i = 0; i < g.nx; ++i) {
    for (long j = 0; j < g.ny; ++j) {
      for (long k = 0; k < g.nz; ++k) {
        const double dRho = (rho1.at(i, j, k) - rho0.at(i, j, k)) / dt;
        const double divJ =
            (J.x.at(i, j, k) - J.x.at(i - 1, j, k)) / g.dx +
            (J.y.at(i, j, k) - J.y.at(i, j - 1, k)) / g.dy +
            (J.z.at(i, j, k) - J.z.at(i, j, k - 1)) / g.dz;
        maxViolation = std::max(maxViolation, std::abs(dRho + divJ));
      }
    }
  }
  EXPECT_LT(maxViolation, 1e-12);
}

TEST(Deposit, ChargeConservationAcrossCellBoundary) {
  GridSpec g{8, 8, 8, 0.25, 0.25, 0.25};
  const double dt = 0.1;
  const Vec3d x0{2.95, 3.05, 4.99};
  const Vec3d x1{3.05, 2.95, 5.01};  // crosses boundaries on all axes

  ParticleBuffer before({-1.0, 1.0, "e"}), after({-1.0, 1.0, "e"});
  before.push(x0, {}, 0.8);
  after.push(x1, {}, 0.8);
  Field3 rho0(g.nx, g.ny, g.nz), rho1(g.nx, g.ny, g.nz);
  depositCharge(rho0, g, before);
  depositCharge(rho1, g, after);
  VectorField J(g);
  reference::depositCurrent(J, g, x0.x, x0.y, x0.z, x1.x, x1.y, x1.z,
                            -1.0 * 0.8, dt);
  double maxViolation = 0.0;
  for (long i = 0; i < g.nx; ++i)
    for (long j = 0; j < g.ny; ++j)
      for (long k = 0; k < g.nz; ++k) {
        const double dRho = (rho1.at(i, j, k) - rho0.at(i, j, k)) / dt;
        const double divJ =
            (J.x.at(i, j, k) - J.x.at(i - 1, j, k)) / g.dx +
            (J.y.at(i, j, k) - J.y.at(i, j - 1, k)) / g.dy +
            (J.z.at(i, j, k) - J.z.at(i, j, k - 1)) / g.dz;
        maxViolation = std::max(maxViolation, std::abs(dRho + divJ));
      }
  EXPECT_LT(maxViolation, 1e-12);
}

TEST(Deposit, ChargeConservationAcrossPeriodicSeam) {
  GridSpec g{6, 6, 6, 0.25, 0.25, 0.25};
  const double dt = 0.1;
  // Unwrapped movement past the right edge; wrapped position for rho.
  const Vec3d x0{5.8, 2.5, 2.5};
  const Vec3d x1{6.2, 2.5, 2.5};
  ParticleBuffer before({-1.0, 1.0, "e"}), after({-1.0, 1.0, "e"});
  before.push(x0, {}, 1.0);
  after.push({0.2, 2.5, 2.5}, {}, 1.0);  // wrapped
  Field3 rho0(g.nx, g.ny, g.nz), rho1(g.nx, g.ny, g.nz);
  depositCharge(rho0, g, before);
  depositCharge(rho1, g, after);
  VectorField J(g);
  reference::depositCurrent(J, g, x0.x, x0.y, x0.z, x1.x, x1.y, x1.z,
                            -1.0, dt);
  double maxViolation = 0.0;
  for (long i = 0; i < g.nx; ++i)
    for (long j = 0; j < g.ny; ++j)
      for (long k = 0; k < g.nz; ++k) {
        const double dRho = (rho1.at(i, j, k) - rho0.at(i, j, k)) / dt;
        const double divJ =
            (J.x.at(i, j, k) - J.x.at(i - 1, j, k)) / g.dx +
            (J.y.at(i, j, k) - J.y.at(i, j - 1, k)) / g.dy +
            (J.z.at(i, j, k) - J.z.at(i, j, k - 1)) / g.dz;
        maxViolation = std::max(maxViolation, std::abs(dRho + divJ));
      }
  EXPECT_LT(maxViolation, 1e-12);
}

TEST(Deposit, StationaryParticleNoCurrent) {
  GridSpec g{6, 6, 6, 0.2, 0.2, 0.2};
  VectorField J(g);
  reference::depositCurrent(J, g, 2.3, 3.1, 4.7, 2.3, 3.1, 4.7, -1.0, 0.1);
  EXPECT_EQ(J.x.sumSquares() + J.y.sumSquares() + J.z.sumSquares(), 0.0);
}

TEST(Deposit, TotalCurrentMatchesQV) {
  // Integrated J over the grid = q * w * v (for a particle moving along x).
  GridSpec g{8, 8, 8, 0.2, 0.2, 0.2};
  const double dt = 0.05;
  const double vCell = 0.5;  // cells per step -> v = vCell*dx/dt
  VectorField J(g);
  reference::depositCurrent(J, g, 3.2, 4.1, 4.6, 3.2 + vCell, 4.1, 4.6,
                            -2.0, dt);
  double sumJx = 0.0;
  for (long idx = 0; idx < J.x.size(); ++idx) sumJx += J.x.flat(idx);
  // sum(J * V_cell) = q w v.
  const double v = vCell * g.dx / dt;
  EXPECT_NEAR(sumJx * g.cellVolume(), -2.0 * v, 1e-12);
}

TEST(Deposit, ChargeDensityIntegratesToTotalCharge) {
  GridSpec g{8, 8, 8, 0.2, 0.2, 0.2};
  ParticleBuffer p({-1.0, 1.0, "e"});
  Rng rng(4);
  double totalW = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double w = rng.uniform(0.5, 1.5);
    totalW += w;
    p.push({rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0, 8)}, {},
           w);
  }
  Field3 rho(g.nx, g.ny, g.nz);
  depositCharge(rho, g, p);
  double integral = 0.0;
  for (long idx = 0; idx < rho.size(); ++idx) integral += rho.flat(idx);
  EXPECT_NEAR(integral * g.cellVolume(), -totalW, 1e-9);
}

}  // namespace
}  // namespace artsci::pic
