/// \file deposit.hpp
/// CIC shape weights shared by the Esirkepov current scatter, and CIC
/// charge-density deposition for diagnostics.
///
/// Esirkepov's scheme (DepositBuffer::scatterEsirkepovTile, run by the
/// fused particle pipeline) guarantees the *discrete* continuity equation
///   (rho^{n+1} - rho^n)/dt + div J = 0
/// to machine precision on the Yee grid, so Gauss's law never drifts —
/// the property PIConGPU relies on (no Poisson cleaning step).
///
/// Charge deposition is tiled and deterministic: particles are binned
/// into x/y domain tiles and scattered into per-tile halo-padded private
/// accumulators (no synchronization), which are then reduced into the
/// global field in fixed tile order. Bit-identical for any thread count
/// and schedule (see deposit_buffer.hpp for the invariant's proof sketch,
/// and tests/pic/test_deposit_modes.cpp for its enforcement).
#pragma once

#include <cmath>

#include "pic/grid.hpp"
#include "pic/particles.hpp"

namespace artsci::pic {

class DepositBuffer;

namespace detail {

/// CIC node weights of coordinate `x` on the 5-node stencil centered at
/// node `ic` (relative offsets -2..+2). S(i) = max(0, 1 - |x - i|).
inline void cicWeights5(double x, long ic, double out[5]) {
  for (int r = 0; r < 5; ++r) {
    const double xi = static_cast<double>(ic + r - 2);
    const double d = std::abs(x - xi);
    out[r] = d < 1.0 ? 1.0 - d : 0.0;
  }
}

/// CIC (trilinear) scatter of one particle's charge `qw` (already divided
/// by the cell volume) at position (x,y,z) in cell units. Emits the eight
/// node contributions through `sink.add(i, j, k, value)`; emitted indices
/// lie in [floor(.), floor(.)+1] per axis.
template <class Sink>
inline void scatterCic(double x, double y, double z, double qw, Sink&& sink) {
  const long i0 = static_cast<long>(std::floor(x));
  const long j0 = static_cast<long>(std::floor(y));
  const long k0 = static_cast<long>(std::floor(z));
  const double fx = x - static_cast<double>(i0);
  const double fy = y - static_cast<double>(j0);
  const double fz = z - static_cast<double>(k0);
  for (int a = 0; a < 2; ++a) {
    const double wx = a ? fx : 1.0 - fx;
    for (int b = 0; b < 2; ++b) {
      const double wy = b ? fy : 1.0 - fy;
      for (int c = 0; c < 2; ++c) {
        const double wz = c ? fz : 1.0 - fz;
        sink.add(i0 + a, j0 + b, k0 + c, qw * wx * wy * wz);
      }
    }
  }
}

}  // namespace detail

/// CIC deposit of charge density rho (units e n0) at grid nodes.
/// Positions must lie inside [0, n) per axis (wrapped). Accumulates into
/// rho; the result is bit-identical for any OMP thread count. `scratch`,
/// when given, supplies reusable tile storage (must match `grid`); the
/// binning index is built per call. A steady-state caller that keeps its
/// own index calls DepositBuffer::depositCharge instead.
void depositCharge(Field3& rho, const GridSpec& grid,
                   const ParticleBuffer& buffer,
                   DepositBuffer* scratch = nullptr);

}  // namespace artsci::pic
