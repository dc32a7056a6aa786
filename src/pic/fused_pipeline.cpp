#include "pic/fused_pipeline.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/isa_clones.hpp"
#include "obs/trace.hpp"
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

/// Particles per block of the block kernel: its staging arrays (~11 KiB)
/// stay in L1.
constexpr std::size_t kBlock = 64;

/// One tile's share of a pushAndScatter call, as the block kernel reads
/// it. Column pointers start at the tile's first (post-sort) particle.
struct TileWork {
  double* x;
  double* y;
  double* z;
  double* ux;
  double* uy;
  double* uz;
  const double* w;
  double* bdx;  ///< d(beta)/dt columns, or null when not recorded
  double* bdy;
  double* bdz;
  std::size_t count;  ///< particles in the tile
  const CacheAt* fields;  ///< Ex Ey Ez Bx By Bz tile caches
  DepositBuffer::TileAccum sink;
  const GridSpec* grid;
  double qOverM, q, dt;
};

/// The block kernel: one tile's particles, kBlock at a time, each block
/// in five phases — (1) stage the staggered (floor, frac) pairs, (2)
/// gather E/B into SoA arrays, (3) Boris push, gamma, d(beta)/dt, new
/// positions and the displacement check, (4) Esirkepov scatter particle
/// by particle in sorted order, (5) wrap. Phase 3, the arithmetic of the
/// update, vectorizes across the block in the AVX-512 and x86-64-v3
/// clones.
///
/// Every lane runs exactly the scalar operation sequence of the reference
/// kernels: the expressions are theirs, this file is built with
/// -ffp-contract=off (the AVX-512 and x86-64-v3 clones may not fuse a
/// multiply-add the baseline build rounds twice) and -fno-math-errno (sqrt
/// vectorizes; IEEE sqrt and division round the same in every lane). Bits
/// therefore do not depend on the clone that runs. Returns false when some
/// particle moved a cell or more on some axis.
ARTSCI_ISA_CLONES
bool updateTile(const TileWork& t) {
  const GridSpec& g = *t.grid;
  const double lx = static_cast<double>(g.nx);
  const double ly = static_cast<double>(g.ny);
  const double lz = static_cast<double>(g.nz);
  const double qOverM = t.qOverM;
  const double dt = t.dt;
  const double dx = g.dx, dy = g.dy, dz = g.dz;
  // Per component and axis: 0 -> the offset-0.0 pair, 1 -> offset 0.5
  // (Yee staggering only ever offsets an axis by 0 or 0.5).
  static constexpr int sel[6][3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
                                    {0, 1, 1}, {1, 0, 1}, {1, 1, 0}};
  bool inCell = true;

  for (std::size_t blk = 0; blk < t.count; blk += kBlock) {
    const std::size_t m = std::min(kBlock, t.count - blk);
    double* const x = t.x + blk;
    double* const y = t.y + blk;
    double* const z = t.z + blk;
    double* const ux = t.ux + blk;
    double* const uy = t.uy + blk;
    double* const uz = t.uz + blk;
    const double* const w = t.w + blk;

    // (1) A particle has just 6 distinct staggered (floor, frac) pairs —
    // two per axis — not the 18 six gatherStaggeredAt calls recompute.
    // Cell indices as int: double -> int64 conversion has no packed form
    // before AVX-512DQ, double -> int32 has one in every clone.
    int ix[2][kBlock], iy[2][kBlock], iz[2][kBlock];
    double fx[2][kBlock], fy[2][kBlock], fz[2][kBlock];
    for (int s = 0; s < 2; ++s) {
      const double off = s ? 0.5 : 0.0;
#ifdef _OPENMP
#pragma omp simd
#endif
      for (std::size_t u = 0; u < m; ++u) {
        const double gx = x[u] - off;
        const double gy = y[u] - off;
        const double gz = z[u] - off;
        const int i0 = static_cast<int>(std::floor(gx));
        const int j0 = static_cast<int>(std::floor(gy));
        const int k0 = static_cast<int>(std::floor(gz));
        ix[s][u] = i0;
        iy[s][u] = j0;
        iz[s][u] = k0;
        fx[s][u] = gx - static_cast<double>(i0);
        fy[s][u] = gy - static_cast<double>(j0);
        fz[s][u] = gz - static_cast<double>(k0);
      }
    }

    // (2) Corner terms add in (a,b,c)-ascending order with the exact
    // gatherStaggeredAt weight expression, so every field value is the
    // scalar gatherE/gatherB's. Particle-outer on purpose: a
    // corner-outer/particle-inner layout is an indirect gather that
    // measured ~20% slower end to end.
    double field[6][kBlock];  // Ex Ey Ez Bx By Bz
    for (std::size_t u = 0; u < m; ++u) {
      for (int comp = 0; comp < 6; ++comp) {
        const CacheAt& f = t.fields[comp];
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
        field[comp][u] = acc;
      }
    }

    // (3) Push and move.
    double x1[kBlock], y1[kBlock], z1[kBlock];
    double bd[3][kBlock];
    int blockInCell = 1;
#ifdef _OPENMP
#pragma omp simd reduction(& : blockInCell)
#endif
    for (std::size_t u = 0; u < m; ++u) {
      const Vec3d Ep{field[0][u], field[1][u], field[2][u]};
      const Vec3d Bp{field[3][u], field[4][u], field[5][u]};
      const Vec3d uOld{ux[u], uy[u], uz[u]};
      const double gOld = std::sqrt(1.0 + uOld.dot(uOld));
      const Vec3d uNew = borisPush(uOld, Ep, Bp, qOverM, dt);
      const double gNew = std::sqrt(1.0 + uNew.dot(uNew));
      ux[u] = uNew.x;
      uy[u] = uNew.y;
      uz[u] = uNew.z;
      bd[0][u] = (uNew.x / gNew - uOld.x / gOld) / dt;
      bd[1][u] = (uNew.y / gNew - uOld.y / gOld) / dt;
      bd[2][u] = (uNew.z / gNew - uOld.z / gOld) / dt;
      x1[u] = x[u] + uNew.x / gNew * dt / dx;
      y1[u] = y[u] + uNew.y / gNew * dt / dy;
      z1[u] = z[u] + uNew.z / gNew * dt / dz;
      blockInCell &= (std::abs(x1[u] - x[u]) < 1.0) &
                     (std::abs(y1[u] - y[u]) < 1.0) &
                     (std::abs(z1[u] - z[u]) < 1.0);
    }
    inCell = inCell && blockInCell;
    if (t.bdx != nullptr) {
      std::copy(bd[0], bd[0] + m, t.bdx + blk);
      std::copy(bd[1], bd[1] + m, t.bdy + blk);
      std::copy(bd[2], bd[2] + m, t.bdz + blk);
    }

    // (4) Deposit from the unwrapped displacement, straight into the
    // tile's private accumulator — the support-clipped bit-exact replica
    // of the reference Esirkepov kernel, in sorted particle order.
    for (std::size_t u = 0; u < m; ++u)
      DepositBuffer::scatterEsirkepovTile(g, x[u], y[u], z[u], x1[u], y1[u],
                                          z1[u], t.q * w[u], dt, t.sink);

    // (5) Wrap in place.
#ifdef _OPENMP
#pragma omp simd
#endif
    for (std::size_t u = 0; u < m; ++u) {
      x[u] = wrapCoordinate(x1[u], lx);
      y[u] = wrapCoordinate(y1[u], ly);
      z[u] = wrapCoordinate(z1[u], lz);
    }
  }
  return inCell;
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

      const Field3* comps[6] = {&E.x, &E.y, &E.z, &B.x, &B.y, &B.z};
      CacheAt fields[6];
      for (int c = 0; c < 6; ++c) {
        double* dst = cache.data() + static_cast<std::size_t>(c) * compStride;
        fillCache(dst, *comps[c], e.x0, spanX, e.y0, spanY, g);
        fields[c] = CacheAt{dst, e.x0 - 1, e.y0 - 1, spanY + 2, g.nz + 2};
      }

      const std::size_t b = range.begin;
      const TileWork work{
          .x = p.x.data() + b,
          .y = p.y.data() + b,
          .z = p.z.data() + b,
          .ux = p.ux.data() + b,
          .uy = p.uy.data() + b,
          .uz = p.uz.data() + b,
          .w = p.w.data() + b,
          .bdx = bdx != nullptr ? bdx->data() + b : nullptr,
          .bdy = bdy != nullptr ? bdy->data() + b : nullptr,
          .bdz = bdz != nullptr ? bdz->data() + b : nullptr,
          .count = range.end - b,
          .fields = fields,
          .sink = accum_.zeroedTile(t),
          .grid = &g,
          .qOverM = qOverM,
          .q = q,
          .dt = dt};
      const bool inCell = updateTile(work);
      displacementOk = displacementOk && inCell;
    }
  }
  ARTSCI_EXPECTS_MSG(displacementOk,
                     "fused pipeline: particle displacement >= 1 cell in one "
                     "step — dt violates the CFL displacement bound");
}

}  // namespace artsci::pic
