#include "pic/deposit_buffer.hpp"

#include <algorithm>
#include <cmath>

namespace artsci::pic {

namespace {

/// Grid validation must precede the geometry index's construction, so
/// invalid extents fail with this message, not a clamp internals one.
const GridSpec& validatedGrid(const GridSpec& grid) {
  ARTSCI_EXPECTS_MSG(grid.nx > 0 && grid.ny > 0 && grid.nz > 0,
                     "DepositBuffer needs positive grid extents");
  return grid;
}

}  // namespace

DepositBuffer::DepositBuffer(const GridSpec& grid, TileDepositConfig cfg)
    : grid_(validatedGrid(grid)) {
  // The geometry of the indexes callers bin with; built only to read the
  // edges it clamps, so the clamp stays in one place.
  const SupercellIndex geometry(grid, cfg.tileEdgeX, cfg.tileEdgeY);
  edgeX_ = geometry.tileEdgeX();
  edgeY_ = geometry.tileEdgeY();
  tilesX_ = geometry.tilesX();
  tilesY_ = geometry.tilesY();
  padX_ = edgeX_ + 2 * kHalo;
  padY_ = edgeY_ + 2 * kHalo;
  padZ_ = grid.nz + 2 * kHalo;
  tileStride_ = padX_ * padY_ * padZ_;
  store_.resize(static_cast<std::size_t>(tileCount() * 3 * tileStride_));
  wrapZ_.resize(static_cast<std::size_t>(padZ_));
  for (long lk = 0; lk < padZ_; ++lk)
    wrapZ_[static_cast<std::size_t>(lk)] = Field3::wrap(lk - kHalo, grid.nz);
}

DepositBuffer::TileExtent DepositBuffer::extentOf(long tile) const {
  const long tx = tile / tilesY();
  const long ty = tile % tilesY();
  TileExtent e;
  e.x0 = tx * edgeX_;
  e.x1 = std::min(grid_.nx, e.x0 + edgeX_);
  e.y0 = ty * edgeY_;
  e.y1 = std::min(grid_.ny, e.y0 + edgeY_);
  return e;
}

DepositBuffer::TileAccum DepositBuffer::zeroedTile(long tile, int components) {
  ARTSCI_EXPECTS(tile >= 0 && tile < tileCount());
  ARTSCI_EXPECTS(components >= 1 && components <= 3);
  const TileExtent e = extentOf(tile);
  double* jx = tileComponent(tile, 0);
  double* jy = tileComponent(tile, 1);
  double* jz = tileComponent(tile, 2);
  std::fill(jx, jx + components * tileStride_, 0.0);  // planes are adjacent
  return TileAccum{jx, jy, jz, e.x0 - kHalo, e.y0 - kHalo, padY_, padZ_};
}

void DepositBuffer::reduceComponent(Field3& dst, int comp,
                                    const SupercellIndex& occ, long xBegin,
                                    long xEnd) const {
  const long nyz = grid_.ny * grid_.nz;
  for (long t = 0; t < tileCount(); ++t) {
    const SupercellIndex::Range r = occ.tileRange(t);
    if (r.begin == r.end) continue;
    const TileExtent e = extentOf(t);
    const double* src = tileComponent(t, comp);
    const long spanX = (e.x1 - e.x0) + 2 * kHalo;
    const long spanY = (e.y1 - e.y0) + 2 * kHalo;
    for (long li = 0; li < spanX; ++li) {
      const long gi = Field3::wrap(e.x0 - kHalo + li, grid_.nx);
      if (gi < xBegin || gi >= xEnd) continue;
      for (long lj = 0; lj < spanY; ++lj) {
        const long gj = Field3::wrap(e.y0 - kHalo + lj, grid_.ny);
        const double* row = src + (li * padY_ + lj) * padZ_;
        const long base = gi * nyz + gj * grid_.nz;
        for (long lk = 0; lk < padZ_; ++lk) {
          const double v = row[lk];
          // The skip is itself deterministic (tile values are), so it
          // never perturbs the fixed summation order.
          if (v != 0.0)
            dst.flat(base + wrapZ_[static_cast<std::size_t>(lk)]) += v;
        }
      }
    }
  }
}

void DepositBuffer::scatterEsirkepovTile(const GridSpec& grid, double x0,
                                         double y0, double z0, double x1,
                                         double y1, double z1,
                                         double chargeWeight, double dt,
                                         const TileAccum& sink) {
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

  const double invVdt = 1.0 / (grid.cellVolume() * dt);
  const double fx = chargeWeight * grid.dx * invVdt;
  const double fy = chargeWeight * grid.dy * invVdt;
  const double fz = chargeWeight * grid.dz * invVdt;

  // Nonzero supports. For a sub-cell move S0 lives on stencil entries
  // [2,3] and entry 0 of every DS is identically zero, so each axis'
  // support is one of [1,3], [2,3], [2,4]. Outside it the reference
  // kernel's transverse weight is a product/sum of exact zeros and its
  // running `acc` stays exactly 0 — precisely the iterations its
  // `== 0.0` guards skip, so clipping the loops to these bounds drops no
  // emission and reorders nothing. Inner (accumulated) axes still run to
  // the stencil end: `acc` keeps a rounding residue past the support,
  // and the reference emits those residue adds.
  const int xlo = DSx[1] != 0.0 ? 1 : 2, xhi = DSx[4] != 0.0 ? 4 : 3;
  const int ylo = DSy[1] != 0.0 ? 1 : 2, yhi = DSy[4] != 0.0 ? 4 : 3;
  const int zlo = DSz[1] != 0.0 ? 1 : 2, zhi = DSz[4] != 0.0 ? 4 : 3;

  const long stepX = sink.strideY * sink.strideZ;
  const long stepY = sink.strideZ;

  // Jx: accumulate along x for each (j,k); the write pointer advances by
  // a whole x-plane per step.
  for (int j = ylo; j <= yhi; ++j) {
    for (int k = zlo; k <= zhi; ++k) {
      const double wyz = S0y[j] * S0z[k] + 0.5 * DSy[j] * S0z[k] +
                         0.5 * S0y[j] * DSz[k] + DSy[j] * DSz[k] / 3.0;
      if (wyz == 0.0) continue;
      double acc = 0.0;
      double* px =
          sink.jx + sink.index(icx + xlo - 2, icy + j - 2, icz + k - 2);
      for (int i = xlo; i < 5; ++i, px += stepX) {
        acc -= DSx[i] * wyz;
        if (acc != 0.0) *px += fx * acc;
      }
    }
  }
  // Jy.
  for (int i = xlo; i <= xhi; ++i) {
    for (int k = zlo; k <= zhi; ++k) {
      const double wxz = S0x[i] * S0z[k] + 0.5 * DSx[i] * S0z[k] +
                         0.5 * S0x[i] * DSz[k] + DSx[i] * DSz[k] / 3.0;
      if (wxz == 0.0) continue;
      double acc = 0.0;
      double* py =
          sink.jy + sink.index(icx + i - 2, icy + ylo - 2, icz + k - 2);
      for (int j = ylo; j < 5; ++j, py += stepY) {
        acc -= DSy[j] * wxz;
        if (acc != 0.0) *py += fy * acc;
      }
    }
  }
  // Jz: the accumulated axis is contiguous in the padded tile.
  for (int i = xlo; i <= xhi; ++i) {
    for (int j = ylo; j <= yhi; ++j) {
      const double wxy = S0x[i] * S0y[j] + 0.5 * DSx[i] * S0y[j] +
                         0.5 * S0x[i] * DSy[j] + DSx[i] * DSy[j] / 3.0;
      if (wxy == 0.0) continue;
      double acc = 0.0;
      double* pz =
          sink.jz + sink.index(icx + i - 2, icy + j - 2, icz + zlo - 2);
      for (int k = zlo; k < 5; ++k, ++pz) {
        acc -= DSz[k] * wxy;
        if (acc != 0.0) *pz += fz * acc;
      }
    }
  }
}

void DepositBuffer::reduce(VectorField& J, const SupercellIndex& occupancy,
                           long xBegin, long xEnd) const {
  ARTSCI_EXPECTS(occupancy.tilesX() == tilesX() &&
                 occupancy.tilesY() == tilesY());
  ARTSCI_EXPECTS(xBegin >= 0 && xBegin <= xEnd && xEnd <= grid_.nx);
  ARTSCI_EXPECTS(J.x.nx() == grid_.nx && J.x.ny() == grid_.ny &&
                 J.x.nz() == grid_.nz);
  reduceComponent(J.x, 0, occupancy, xBegin, xEnd);
  reduceComponent(J.y, 1, occupancy, xBegin, xEnd);
  reduceComponent(J.z, 2, occupancy, xBegin, xEnd);
}

void DepositBuffer::depositCharge(Field3& rho, const ParticleBuffer& buffer,
                                  SupercellIndex& bins) {
  ARTSCI_EXPECTS(rho.nx() == grid_.nx && rho.ny() == grid_.ny &&
                 rho.nz() == grid_.nz);
  ARTSCI_EXPECTS(bins.tilesX() == tilesX_ && bins.tilesY() == tilesY_ &&
                 bins.tileEdgeX() == edgeX_ && bins.tileEdgeY() == edgeY_);
  // bin() checks every axis: z doesn't affect the tile key, but an
  // unwrapped z would scatter outside the padded column.
  const bool inDomain = bins.bin(buffer.x.data(), buffer.y.data(),
                                 buffer.z.data(), buffer.size());
  ARTSCI_EXPECTS_MSG(inDomain,
                     "tiled deposit: particle position outside [0, n) — "
                     "positions must be periodically wrapped");

  const double q = buffer.info().charge;
  const double invV = 1.0 / grid_.cellVolume();
  const std::vector<std::uint32_t>& perm = bins.permutation();
  const long tiles = tileCount();
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic)
#endif
  for (long t = 0; t < tiles; ++t) {
    const SupercellIndex::Range r = bins.tileRange(t);
    if (r.begin == r.end) continue;
    const TileAccum sink = zeroedTile(t, /*components=*/1);
    for (std::size_t s = r.begin; s < r.end; ++s) {
      const auto i = static_cast<std::size_t>(perm[s]);
      detail::scatterCic(buffer.x[i], buffer.y[i], buffer.z[i],
                         q * buffer.w[i] * invV, sink);
    }
  }

  reduceComponent(rho, 0, bins, 0, grid_.nx);
}

}  // namespace artsci::pic
