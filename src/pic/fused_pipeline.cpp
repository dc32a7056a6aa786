#include "pic/fused_pipeline.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <cstring>

#include "obs/trace.hpp"
#include "pic/interpolate.hpp"
#include "pic/pusher.hpp"

namespace artsci::pic {

namespace {

/// Read accessor over one component's halo-padded tile cache. Global node
/// indices translate by the padded origin with precomputed strides — the
/// per-access periodic wrap (three modulo ops per Field3::at) is gone;
/// wrapping happened once when the cache row was filled.
struct CacheAt {
  const double* base;
  long originX;  ///< global x of padded local index 0 (tile x0 - 1)
  long originY;  ///< global y of padded local index 0 (tile y0 - 1)
  long strideY;  ///< padded y extent
  long strideZ;  ///< padded z extent
  double operator()(long i, long j, long k) const {
    return base[((i - originX) * strideY + (j - originY)) * strideZ +
                (k + 1)];
  }
};

/// Copy `f` over the tile's gather footprint [x0-1, x0+spanX+1) x
/// [y0-1, ...) x [-1, nz+1) into `dst`, wrapping once per cache row. The
/// CIC gather of a staggered sample reads at most one node beyond the
/// owned cells per side, so a halo of 1 suffices.
void fillCache(double* dst, const Field3& f, long x0, long spanX, long y0,
               long spanY, const GridSpec& g) {
  const long padY = spanY + 2;
  const long padZ = g.nz + 2;
  const double* raw = f.raw().data();
  for (long li = 0; li < spanX + 2; ++li) {
    const long gi = Field3::wrap(x0 - 1 + li, g.nx);
    for (long lj = 0; lj < padY; ++lj) {
      const long gj = Field3::wrap(y0 - 1 + lj, g.ny);
      const double* src = raw + (gi * g.ny + gj) * g.nz;
      double* row = dst + (li * padY + lj) * padZ;
      row[0] = src[g.nz - 1];
      std::memcpy(row + 1, src, sizeof(double) * static_cast<std::size_t>(g.nz));
      row[g.nz + 1] = src[0];
    }
  }
}

}  // namespace

FusedPipeline::FusedPipeline(const GridSpec& grid, TileDepositConfig tiles)
    : index_(grid, tiles.tileEdgeX, tiles.tileEdgeY),
      accum_(grid, tiles) {}

void FusedPipeline::pushAndScatter(ParticleBuffer& p, const VectorField& E,
                                   const VectorField& B, double dt,
                                   std::vector<double>* bdx,
                                   std::vector<double>* bdy,
                                   std::vector<double>* bdz) {
  ARTSCI_EXPECTS(dt > 0);
  ARTSCI_EXPECTS((bdx == nullptr) == (bdy == nullptr) &&
                 (bdx == nullptr) == (bdz == nullptr));
  const std::size_t n = p.size();

  // The one binning pass of the step: supercell sort by the pre-push
  // (= Esirkepov-center) position, canonical phase-space order within
  // each tile — the order the reference step of the tests scatters in,
  // which is what keeps the two bit-identical. Runs even for an empty
  // buffer so index() always reflects *this* call's occupancy.
  bool wrapped;
  {
    TRACE_SCOPE("pic", "supercell_sort");
    wrapped = index_.sort(p);
  }
  ARTSCI_EXPECTS_MSG(wrapped,
                     "fused pipeline: particle position outside [0, n) — "
                     "positions must be periodically wrapped");
  if (n == 0) return;

  if (bdx != nullptr) {
    bdx->resize(n);
    bdy->resize(n);
    bdz->resize(n);
  }

  const double qOverM = p.info().charge / p.info().mass;
  const double q = p.info().charge;
  const GridSpec& g = accum_.grid();
  const double lx = static_cast<double>(g.nx);
  const double ly = static_cast<double>(g.ny);
  const double lz = static_cast<double>(g.nz);
  const long tiles = index_.tileCount();
  // Tile 0 is never ragged, so its spans bound every tile's cache size.
  const DepositBuffer::TileExtent e0 = accum_.extentOf(0);
  const std::size_t compStride =
      static_cast<std::size_t>((e0.x1 - e0.x0 + 2) * (e0.y1 - e0.y0 + 2) *
                               (g.nz + 2));

  // Displacement guard: collected as a flag (throwing inside an OpenMP
  // region would terminate) and raised after the region. Oversized
  // displacements cannot corrupt memory — the Esirkepov scatter only
  // emits indices within +-2 of floor(old position) by construction —
  // they would just deposit unphysical currents and wrap wrongly.
  bool displacementOk = true;

#ifdef _OPENMP
  const std::size_t teamSize =
      static_cast<std::size_t>(omp_get_max_threads());
#else
  const std::size_t teamSize = 1;
#endif
  if (caches_.size() < teamSize) caches_.resize(teamSize);

#ifdef _OPENMP
#pragma omp parallel reduction(&& : displacementOk)
#endif
  {
    // One span per worker thread covering its whole share of the tile
    // loop — per-tile (let alone per-particle) spans would swamp the ring.
    TRACE_SCOPE("pic", "tile_pass");
    // This thread's E/B read-cache arena, reused across its tiles and
    // across steps (grow-only; no allocation in the steady state).
#ifdef _OPENMP
    std::vector<double>& cache =
        caches_[static_cast<std::size_t>(omp_get_thread_num())];
#else
    std::vector<double>& cache = caches_[0];
#endif
    cache.resize(6 * compStride);
#ifdef _OPENMP
#pragma omp for schedule(dynamic)
#endif
    for (long t = 0; t < tiles; ++t) {
      const SupercellIndex::Range range = index_.tileRange(t);
      if (range.begin == range.end) continue;
      const DepositBuffer::TileExtent e = accum_.extentOf(t);
      const long spanX = e.x1 - e.x0;
      const long spanY = e.y1 - e.y0;
      const long padY = spanY + 2;
      const long padZ = g.nz + 2;

      const Field3* comps[6] = {&E.x, &E.y, &E.z, &B.x, &B.y, &B.z};
      for (int c = 0; c < 6; ++c)
        fillCache(cache.data() + static_cast<std::size_t>(c) * compStride,
                  *comps[c], e.x0, spanX, e.y0, spanY, g);
      const auto at = [&](int c) {
        return CacheAt{cache.data() + static_cast<std::size_t>(c) * compStride,
                       e.x0 - 1, e.y0 - 1, padY, padZ};
      };
      const CacheAt ex = at(0), ey = at(1), ez = at(2);
      const CacheAt bx = at(3), by = at(4), bz = at(5);

      const DepositBuffer::TileAccum sink = accum_.zeroedTile(t);

      // (a) gather, with SoA-staged addressing. Yee staggering only ever
      // offsets an axis by 0 or 0.5, so a particle has just 6 distinct
      // staggered (floor, frac) pairs — two per axis — not the 18 the
      // six per-component gatherStaggeredAt calls recomputed. Phase 1
      // stages those pairs for a block of particles in SoA form (a flat
      // simd loop); the per-particle pass then reads its pairs from the
      // staging arrays and accumulates the 8 corners per component in
      // registers — corner terms add in (a,b,c)-ascending order with the
      // exact gatherStaggeredAt weight expression, so every field value
      // is bit-identical to the scalar gatherE/B (pinned by
      // test_fused_pipeline). Keeping the corner accumulation
      // particle-outer matters: a corner-outer/particle-inner layout is
      // an indirect gather the compiler cannot vectorize, and measured
      // ~20% slower end-to-end than this form.
      constexpr std::size_t kBlock = 64;
      long ix[2][kBlock], iy[2][kBlock], iz[2][kBlock];
      double fx[2][kBlock], fy[2][kBlock], fz[2][kBlock];
      const CacheAt comps6[6] = {ex, ey, ez, bx, by, bz};
      // Per component and axis: 0 -> offset 0.0 pair, 1 -> offset 0.5.
      static constexpr int sel[6][3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
                                        {0, 1, 1}, {1, 0, 1}, {1, 1, 0}};

      for (std::size_t blk = range.begin; blk < range.end; blk += kBlock) {
        const std::size_t m = std::min(kBlock, range.end - blk);
        for (int s = 0; s < 2; ++s) {
          const double off = s ? 0.5 : 0.0;
#ifdef _OPENMP
#pragma omp simd
#endif
          for (std::size_t u = 0; u < m; ++u) {
            const double gx = p.x[blk + u] - off;
            const double gy = p.y[blk + u] - off;
            const double gz = p.z[blk + u] - off;
            const long i0 = static_cast<long>(std::floor(gx));
            const long j0 = static_cast<long>(std::floor(gy));
            const long k0 = static_cast<long>(std::floor(gz));
            ix[s][u] = i0;
            iy[s][u] = j0;
            iz[s][u] = k0;
            fx[s][u] = gx - static_cast<double>(i0);
            fy[s][u] = gy - static_cast<double>(j0);
            fz[s][u] = gz - static_cast<double>(k0);
          }
        }
        for (std::size_t u = 0; u < m; ++u) {
          const std::size_t i = blk + u;
          const double ox = p.x[i], oy = p.y[i], oz = p.z[i];
          double field[6];  // Ex Ey Ez Bx By Bz
          for (int comp = 0; comp < 6; ++comp) {
            const CacheAt& f = comps6[comp];
            const long i0 = ix[sel[comp][0]][u];
            const long j0 = iy[sel[comp][1]][u];
            const long k0 = iz[sel[comp][2]][u];
            const double fxv = fx[sel[comp][0]][u];
            const double fyv = fy[sel[comp][1]][u];
            const double fzv = fz[sel[comp][2]][u];
            double acc = 0.0;
            for (int a = 0; a < 2; ++a) {
              const double wxp = a ? fxv : 1.0 - fxv;
              for (int b = 0; b < 2; ++b) {
                const double wyp = b ? fyv : 1.0 - fyv;
                for (int c = 0; c < 2; ++c) {
                  const double wzp = c ? fzv : 1.0 - fzv;
                  acc += wxp * wyp * wzp * f(i0 + a, j0 + b, k0 + c);
                }
              }
            }
            field[comp] = acc;
          }
          const Vec3d Ep{field[0], field[1], field[2]};
          const Vec3d Bp{field[3], field[4], field[5]};
          // (b) push + move.
          const Vec3d uOld{p.ux[i], p.uy[i], p.uz[i]};
          const double gOld = std::sqrt(1.0 + uOld.dot(uOld));
          const Vec3d uNew = borisPush(uOld, Ep, Bp, qOverM, dt);
          const double gNew = std::sqrt(1.0 + uNew.dot(uNew));
          p.ux[i] = uNew.x;
          p.uy[i] = uNew.y;
          p.uz[i] = uNew.z;
          if (bdx != nullptr) {
            (*bdx)[i] = (uNew.x / gNew - uOld.x / gOld) / dt;
            (*bdy)[i] = (uNew.y / gNew - uOld.y / gOld) / dt;
            (*bdz)[i] = (uNew.z / gNew - uOld.z / gOld) / dt;
          }
          const double nx1 = ox + uNew.x / gNew * dt / g.dx;
          const double ny1 = oy + uNew.y / gNew * dt / g.dy;
          const double nz1 = oz + uNew.z / gNew * dt / g.dz;
          displacementOk = displacementOk && std::abs(nx1 - ox) < 1.0 &&
                           std::abs(ny1 - oy) < 1.0 &&
                           std::abs(nz1 - oz) < 1.0;
          // (c) deposit from the unwrapped displacement, straight into the
          // tile's private accumulator — the support-clipped bit-exact
          // replica of the reference Esirkepov kernel.
          DepositBuffer::scatterEsirkepovTile(g, ox, oy, oz, nx1, ny1, nz1,
                                              q * p.w[i], dt, sink);
          // (d) wrap in place — the old position died in this iteration's
          // registers; no snapshot vectors, no separate wrap sweep.
          p.x[i] = wrapCoordinate(nx1, lx);
          p.y[i] = wrapCoordinate(ny1, ly);
          p.z[i] = wrapCoordinate(nz1, lz);
        }
      }
    }
  }
  ARTSCI_EXPECTS_MSG(displacementOk,
                     "fused pipeline: particle displacement >= 1 cell in one "
                     "step — dt violates the CFL displacement bound");
}

}  // namespace artsci::pic
