/// \file deposit_buffer.hpp
/// Deterministic tiled deposition: per-tile halo-padded accumulators and a
/// fixed-order reduction in place of `omp atomic` float accumulation.
///
/// Why: the in-transit pipeline trains surrogates from live PIC output, so
/// run-to-run bit-reproducibility of the producer is a correctness
/// property. Atomic float adds commit in scheduling order; since FP
/// addition is not associative, two runs (or two thread counts) would
/// produce different low-order bits. Atomics also serialize under high
/// particle-per-cell contention, so this is a scaling lever too.
///
/// How: the grid is partitioned into x/y tiles (full z columns — the KHI
/// box is thin in z). Each deposit
///  1. *bins* particles by the tile of their (floor(x), floor(y)) cell —
///     the fused pipeline's supercell sort for current, a stable counting
///     sort for charge — so per-tile order is independent of threads;
///  2. *scatters* each tile's particles, one tile per task, into that
///     tile's private halo-padded accumulator — no synchronization, since
///     no other tile writes it (the +-2-cell Esirkepov stencil stays
///     within the halo by construction);
///  3. *reduces* the tile accumulators into the global field serially in
///     ascending tile order, wrapping padded cells periodically. One loop
///     does this for every caller; it commits only destination rows in a
///     caller-given x range, so the rank-decomposed driver runs the same
///     loop over its slab that Simulation runs over [0, nx).
///
/// Determinism invariant: every global cell receives its partial sums
/// grouped per tile and ordered by (tile index, particle index within
/// tile). Tile geometry depends only on (grid, config) and binning only
/// on particle positions, so the summation order — hence every bit of the
/// result — is invariant under OMP_NUM_THREADS and scheduling. Enforced
/// by tests/pic/test_deposit_modes.cpp across 1/2/8 threads.
#pragma once

#include <cstdint>
#include <vector>

#include "pic/deposit.hpp"
#include "pic/grid.hpp"
#include "pic/particles.hpp"

namespace artsci::pic {

/// Tile geometry knobs for DepositBuffer. The default 8x8 (x cells per
/// tile in x/y) balances parallelism (enough tiles for the thread team)
/// against reduction overhead (halo cells are reduced once per touching
/// tile); edges are clamped to the grid extent.
struct TileDepositConfig {
  long tileEdgeX = 8;  ///< owned cells per tile along x (>= 1)
  long tileEdgeY = 8;  ///< owned cells per tile along y (>= 1)
};

/// Reusable tile-accumulator storage for deterministic deposition on one
/// grid. Not thread-safe: one DepositBuffer per concurrent depositing
/// driver (it is itself internally OpenMP-parallel). Steady-state callers
/// keep one instance alive across steps so no allocation happens in the
/// hot loop; each FusedPipeline owns the one its current is scattered
/// into.
///
/// The buffer holds no index of its own: callers bin with a
/// SupercellIndex of the same geometry (full-z tile columns; the tile
/// edges below are that index's clamped edges). The fused pipeline
/// scatters its current into these accumulators through zeroedTile();
/// reduce() adds them into J.
class DepositBuffer {
 public:
  /// Halo width in cells around each tile's owned region, per axis and
  /// side. 2 covers the Esirkepov stencil (+-2 nodes around floor(old
  /// position)) and the CIC charge stencil (+1 node).
  static constexpr long kHalo = 2;

  /// Sizes tile storage for `grid`; geometry is fixed for the lifetime of
  /// the buffer (rebuild for a different grid).
  explicit DepositBuffer(const GridSpec& grid, TileDepositConfig cfg = {});

  /// CIC charge deposition (same contract as the free depositCharge):
  /// positions wrapped into [0, n). Bins the particles with `bins`, which
  /// must share this buffer's tile geometry, and accumulates into rho.
  /// Bit-identical for any thread count.
  void depositCharge(Field3& rho, const ParticleBuffer& buffer,
                     SupercellIndex& bins);

  const GridSpec& grid() const { return grid_; }
  long tilesX() const { return tilesX_; }
  long tilesY() const { return tilesY_; }
  long tileCount() const { return tilesX_ * tilesY_; }
  long tileEdgeX() const { return edgeX_; }
  long tileEdgeY() const { return edgeY_; }

  /// Cell range [x0,x1) x [y0,y1) owned by one tile (full z column).
  /// Public so the fused pipeline can size its tile field caches.
  struct TileExtent {
    long x0 = 0, x1 = 0, y0 = 0, y1 = 0;
  };
  TileExtent extentOf(long tile) const;

  /// Raw scatter view into one tile's halo-padded accumulator: the exact
  /// sink the internal deposit loops use. Indices are *global* cell
  /// coordinates — translation by the padded origin replaces per-write
  /// periodic wrapping (the reduction wraps once per padded cell). Every
  /// index within +-kHalo of a cell the tile owns is valid; nothing else.
  struct TileAccum {
    double* jx;    ///< x-component accumulator (also the charge plane)
    double* jy;    ///< y-component accumulator
    double* jz;    ///< z-component accumulator
    long originX;  ///< global x of padded local index 0 (tile x0 - halo)
    long originY;  ///< global y of padded local index 0 (tile y0 - halo)
    long strideY;  ///< padded y extent
    long strideZ;  ///< padded z extent

    /// Flat offset of global cell (i, j, k) inside the padded tile.
    long index(long i, long j, long k) const {
      return ((i - originX) * strideY + (j - originY)) * strideZ +
             (k + DepositBuffer::kHalo);
    }
    void addJx(long i, long j, long k, double v) const {
      jx[index(i, j, k)] += v;
    }
    void addJy(long i, long j, long k, double v) const {
      jy[index(i, j, k)] += v;
    }
    void addJz(long i, long j, long k, double v) const {
      jz[index(i, j, k)] += v;
    }
    /// Scalar-deposit alias (charge lands in the jx plane).
    void add(long i, long j, long k, double v) const {
      jx[index(i, j, k)] += v;
    }
  };

  /// Esirkepov scatter of one particle that moved from (x0,y0,z0) to
  /// (x1,y1,z1) in cell units (|x1-x0| < 1 cell per axis, unwrapped) into
  /// a tile accumulator; `chargeWeight` is q * w. It emits the exact
  /// contribution values, in the exact order, of the textbook
  /// density-decomposition loops — it only skips the iterations whose
  /// `== 0.0` guards skip (the shape functions' zero support) and hoists
  /// the strided row pointers out of the inner loops. The fused
  /// pipeline's per-particle scatter; tests/pic/test_fused_pipeline.cpp
  /// asserts bitwise equality against the reference kernel kept in
  /// tests/pic/reference_step.hpp.
  static void scatterEsirkepovTile(const GridSpec& grid, double x0, double y0,
                                   double z0, double x1, double y1, double z1,
                                   double chargeWeight, double dt,
                                   const TileAccum& sink);

  /// Zero the first `components` planes (1..3) of tile `tile`'s
  /// accumulator and return a scatter view into it (charge deposits only
  /// touch the jx plane; pass 1 to skip zeroing the other two). Safe to
  /// call from concurrent threads for *distinct* tiles (the fused
  /// pipeline's per-tile pass); the view stays valid until the next
  /// geometry-changing call.
  TileAccum zeroedTile(long tile, int components = 3);

  /// Fixed-order reduction of every tile `occupancy` marks non-empty into
  /// J (ascending tile order, serial — the determinism-critical step),
  /// committing only destination rows whose wrapped global x index lies
  /// in [xBegin, xEnd). `occupancy` must share this buffer's tile
  /// geometry; the fused pipeline's post-sort index() does. Reducing
  /// disjoint row ranges that cover [0, nx), in any order, gives every
  /// cell the bits of one reduce over [0, nx): a cell's adds still come
  /// in ascending tile order. Rank-decomposed stepping relies on that
  /// (pic/simulation.hpp); reads are const, so ranks with disjoint ranges
  /// may reduce from one buffer concurrently.
  void reduce(VectorField& J, const SupercellIndex& occupancy, long xBegin,
              long xEnd) const;

 private:
  /// Base pointer of component `comp` (0..2) of tile `tile`.
  double* tileComponent(long tile, int comp) {
    return store_.data() +
           static_cast<std::size_t>((tile * 3 + comp) * tileStride_);
  }
  const double* tileComponent(long tile, int comp) const {
    return store_.data() +
           static_cast<std::size_t>((tile * 3 + comp) * tileStride_);
  }

  /// The one loop that adds tile accumulators into a global field:
  /// serially add `comp` of every tile `occ` marks non-empty into `dst`
  /// in ascending tile order, wrapping padded cells periodically and
  /// committing only rows with wrapped x in [xBegin, xEnd).
  void reduceComponent(Field3& dst, int comp, const SupercellIndex& occ,
                       long xBegin, long xEnd) const;

  GridSpec grid_;
  long edgeX_ = 0, edgeY_ = 0;    ///< clamped tile edges in cells
  long tilesX_ = 0, tilesY_ = 0;  ///< tiles per axis
  long padX_ = 0, padY_ = 0, padZ_ = 0;  ///< padded accumulator extents
  long tileStride_ = 0;                  ///< padX_ * padY_ * padZ_
  /// Accumulators, [tile][component][padX_ x padY_ x padZ_] row-major.
  std::vector<double> store_;
  /// Precomputed periodic wrap of padded z index -> global z index.
  std::vector<long> wrapZ_;
};

}  // namespace artsci::pic
