/// \file reference_step.hpp
/// Test-only scalar references for the particle update — the correctness
/// oracles of tests/pic, kept out of src/ the way the naive GEMM is:
///
///  * scatterEsirkepov: the textbook Esirkepov (2001) density-
///    decomposition loops over the full 5-node CIC stencil. The production
///    kernel DepositBuffer::scatterEsirkepovTile must emit exactly its
///    adds (test_fused_pipeline pins that bitwise).
///  * depositCurrent / depositCharge: serial, tile-free scatters straight
///    into the global field with a periodic wrap per write. They sum in
///    particle order, so the tiled deposits agree with them to FP
///    reassociation tolerance, not bitwise.
///  * Stepper: a whole PIC step built from the scalar kernels — the
///    canonical SupercellIndex::sort, then gatherE/gatherB, borisPush and
///    the move per particle, then scatterEsirkepov into DepositBuffer tile
///    accumulators in sorted order, then the fixed-order reduce, then
///    wrapCoordinate, then the FDTD update. Its fields, particle state and
///    d(beta)/dt are bit-identical to the fused Simulation::step().
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "pic/deposit.hpp"
#include "pic/deposit_buffer.hpp"
#include "pic/interpolate.hpp"
#include "pic/pusher.hpp"
#include "pic/simulation.hpp"

namespace artsci::pic::reference {

/// Esirkepov density-decomposition scatter for one particle that moved
/// from (x0,y0,z0) to (x1,y1,z1) in cell units (|x1-x0| < 1 cell per
/// axis). Emits every nonzero current contribution through
/// `sink.addJx/addJy/addJz(i, j, k, value)`; all emitted node indices lie
/// within +-2 of (floor(x0), floor(y0), floor(z0)).
template <class Sink>
inline void scatterEsirkepov(const GridSpec& grid, double x0, double y0,
                             double z0, double x1, double y1, double z1,
                             double chargeWeight, double dt, Sink&& sink) {
  const long icx = static_cast<long>(std::floor(x0));
  const long icy = static_cast<long>(std::floor(y0));
  const long icz = static_cast<long>(std::floor(z0));

  double S0x[5], S0y[5], S0z[5], S1x[5], S1y[5], S1z[5];
  detail::cicWeights5(x0, icx, S0x);
  detail::cicWeights5(y0, icy, S0y);
  detail::cicWeights5(z0, icz, S0z);
  detail::cicWeights5(x1, icx, S1x);
  detail::cicWeights5(y1, icy, S1y);
  detail::cicWeights5(z1, icz, S1z);

  double DSx[5], DSy[5], DSz[5];
  for (int r = 0; r < 5; ++r) {
    DSx[r] = S1x[r] - S0x[r];
    DSy[r] = S1y[r] - S0y[r];
    DSz[r] = S1z[r] - S0z[r];
  }

  // Esirkepov density decomposition weights.
  const double invVdt = 1.0 / (grid.cellVolume() * dt);
  const double fx = chargeWeight * grid.dx * invVdt;
  const double fy = chargeWeight * grid.dy * invVdt;
  const double fz = chargeWeight * grid.dz * invVdt;

  // Jx: accumulate along x for each (j,k).
  for (int j = 0; j < 5; ++j) {
    for (int k = 0; k < 5; ++k) {
      const double wyz = S0y[j] * S0z[k] + 0.5 * DSy[j] * S0z[k] +
                         0.5 * S0y[j] * DSz[k] + DSy[j] * DSz[k] / 3.0;
      if (wyz == 0.0) continue;
      double acc = 0.0;
      for (int i = 0; i < 5; ++i) {
        acc -= DSx[i] * wyz;
        if (acc != 0.0) {
          sink.addJx(icx + i - 2, icy + j - 2, icz + k - 2, fx * acc);
        }
      }
    }
  }
  // Jy.
  for (int i = 0; i < 5; ++i) {
    for (int k = 0; k < 5; ++k) {
      const double wxz = S0x[i] * S0z[k] + 0.5 * DSx[i] * S0z[k] +
                         0.5 * S0x[i] * DSz[k] + DSx[i] * DSz[k] / 3.0;
      if (wxz == 0.0) continue;
      double acc = 0.0;
      for (int j = 0; j < 5; ++j) {
        acc -= DSy[j] * wxz;
        if (acc != 0.0) {
          sink.addJy(icx + i - 2, icy + j - 2, icz + k - 2, fy * acc);
        }
      }
    }
  }
  // Jz.
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      const double wxy = S0x[i] * S0y[j] + 0.5 * DSx[i] * S0y[j] +
                         0.5 * S0x[i] * DSy[j] + DSx[i] * DSy[j] / 3.0;
      if (wxy == 0.0) continue;
      double acc = 0.0;
      for (int k = 0; k < 5; ++k) {
        acc -= DSz[k] * wxy;
        if (acc != 0.0) {
          sink.addJz(icx + i - 2, icy + j - 2, icz + k - 2, fz * acc);
        }
      }
    }
  }
}

/// Global-field sinks: every write wraps periodically through Field3::at.
struct CurrentSink {
  VectorField& J;
  void addJx(long i, long j, long k, double v) const { J.x.at(i, j, k) += v; }
  void addJy(long i, long j, long k, double v) const { J.y.at(i, j, k) += v; }
  void addJz(long i, long j, long k, double v) const { J.z.at(i, j, k) += v; }
};

struct ChargeSink {
  Field3& rho;
  void add(long i, long j, long k, double v) const { rho.at(i, j, k) += v; }
};

/// Serial, tile-free current deposit of one particle that moved from
/// (x0,y0,z0) to (x1,y1,z1), unwrapped; `chargeWeight` is q * w.
inline void depositCurrent(VectorField& J, const GridSpec& grid, double x0,
                           double y0, double z0, double x1, double y1,
                           double z1, double chargeWeight, double dt) {
  scatterEsirkepov(grid, x0, y0, z0, x1, y1, z1, chargeWeight, dt,
                   CurrentSink{J});
}

/// Serial, tile-free CIC charge deposit of every particle, in index order
/// (same per-particle factorization q * w / V as pic::depositCharge).
inline void depositCharge(Field3& rho, const GridSpec& grid,
                          const ParticleBuffer& buffer) {
  const double q = buffer.info().charge;
  const double invV = 1.0 / grid.cellVolume();
  for (std::size_t i = 0; i < buffer.size(); ++i)
    detail::scatterCic(buffer.x[i], buffer.y[i], buffer.z[i],
                       q * buffer.w[i] * invV, ChargeSink{rho});
}

/// Scalar reference of Simulation::step(): same config, same initial
/// state (copied from `initial`), one step per step() call.
class Stepper {
 public:
  Stepper(const SimulationConfig& cfg, const Simulation& initial)
      : E(initial.fieldE()),
        B(initial.fieldB()),
        J(cfg.grid),
        cfg_(cfg),
        solver_(cfg.grid),
        accum_(cfg.grid, cfg.tiles),
        index_(cfg.grid, cfg.tiles.tileEdgeX, cfg.tiles.tileEdgeY) {
    for (std::size_t s = 0; s < initial.speciesCount(); ++s)
      species.push_back(initial.species(s));
    bdx.resize(species.size());
    bdy.resize(species.size());
    bdz.resize(species.size());
  }

  void step() {
    J.fill(0.0);
    for (std::size_t s = 0; s < species.size(); ++s) pushAndDeposit(s);
    solver_.updateBHalf(B, E, cfg_.dt);
    solver_.updateE(E, B, J, cfg_.dt);
    solver_.updateBHalf(B, E, cfg_.dt);
  }

  void run(long steps) {
    for (long s = 0; s < steps; ++s) step();
  }

  VectorField E, B, J;
  std::vector<ParticleBuffer> species;
  /// d(beta)/dt of the last step, per species (empty unless
  /// cfg.recordBetaDot), index-parallel to the post-sort species columns.
  std::vector<std::vector<double>> bdx, bdy, bdz;

 private:
  void pushAndDeposit(std::size_t s) {
    ParticleBuffer& p = species[s];
    const std::size_t n = p.size();
    if (n == 0) return;
    index_.sort(p);

    const GridSpec& g = cfg_.grid;
    const double dt = cfg_.dt;
    const double qOverM = p.info().charge / p.info().mass;
    std::vector<double> x1(n), y1(n), z1(n);
    if (cfg_.recordBetaDot) {
      bdx[s].resize(n);
      bdy[s].resize(n);
      bdz[s].resize(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Vec3d Ep = gatherE(E, p.x[i], p.y[i], p.z[i]);
      const Vec3d Bp = gatherB(B, p.x[i], p.y[i], p.z[i]);
      const Vec3d uOld{p.ux[i], p.uy[i], p.uz[i]};
      const double gOld = std::sqrt(1.0 + uOld.dot(uOld));
      const Vec3d uNew = borisPush(uOld, Ep, Bp, qOverM, dt);
      const double gNew = std::sqrt(1.0 + uNew.dot(uNew));
      p.ux[i] = uNew.x;
      p.uy[i] = uNew.y;
      p.uz[i] = uNew.z;
      if (cfg_.recordBetaDot) {
        bdx[s][i] = (uNew.x / gNew - uOld.x / gOld) / dt;
        bdy[s][i] = (uNew.y / gNew - uOld.y / gOld) / dt;
        bdz[s][i] = (uNew.z / gNew - uOld.z / gOld) / dt;
      }
      x1[i] = p.x[i] + uNew.x / gNew * dt / g.dx;
      y1[i] = p.y[i] + uNew.y / gNew * dt / g.dy;
      z1[i] = p.z[i] + uNew.z / gNew * dt / g.dz;
    }

    // Sorted order is tile order, so each tile scatters its particles in
    // ascending index — the production per-tile order.
    const double q = p.info().charge;
    for (long t = 0; t < index_.tileCount(); ++t) {
      const SupercellIndex::Range r = index_.tileRange(t);
      if (r.begin == r.end) continue;
      const DepositBuffer::TileAccum sink = accum_.zeroedTile(t);
      for (std::size_t i = r.begin; i < r.end; ++i)
        scatterEsirkepov(g, p.x[i], p.y[i], p.z[i], x1[i], y1[i], z1[i],
                         q * p.w[i], dt, sink);
    }
    accum_.reduce(J, index_, 0, g.nx);

    const double lx = static_cast<double>(g.nx);
    const double ly = static_cast<double>(g.ny);
    const double lz = static_cast<double>(g.nz);
    for (std::size_t i = 0; i < n; ++i) {
      p.x[i] = wrapCoordinate(x1[i], lx);
      p.y[i] = wrapCoordinate(y1[i], ly);
      p.z[i] = wrapCoordinate(z1[i], lz);
    }
  }

  SimulationConfig cfg_;
  FieldSolver solver_;
  DepositBuffer accum_;
  SupercellIndex index_;
};

}  // namespace artsci::pic::reference
