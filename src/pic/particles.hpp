/// \file particles.hpp
/// Structure-of-arrays particle storage with supercell tiling.
///
/// PIConGPU's key data structure is the supercell: particles are kept
/// grouped by small tiles of cells so neighbouring particles are adjacent
/// in memory [Hoenig et al. 2010]. We reproduce that with a counting-sort
/// based reordering into supercell bins (full-z tile columns); the fused
/// particle pipeline and the tiled deposits iterate tiles for locality.
///
/// Positions are stored in *cell units* (continuous, x in [0, nx)),
/// momenta as u = gamma*beta in units of m c.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/vec3.hpp"
#include "pic/grid.hpp"

namespace artsci::pic {

/// Physical species parameters in normalized units (electron: q=-1, m=1).
struct SpeciesInfo {
  double charge = -1.0;    ///< charge in units of e
  double mass = 1.0;       ///< mass in units of m_e
  const char* name = "e";  ///< label for logs/openPMD records
};

/// SoA particle container.
class ParticleBuffer {
 public:
  ParticleBuffer() = default;
  explicit ParticleBuffer(SpeciesInfo info) : info_(info) {}

  /// Number of particles stored.
  std::size_t size() const { return x.size(); }
  bool empty() const { return x.empty(); }

  /// Reserve capacity for `n` particles in every SoA column.
  void reserve(std::size_t n);
  /// Drop all particles (capacity kept).
  void clear();

  /// Append one particle; position in cell units, momentum u = gamma beta.
  void push(const Vec3d& position, const Vec3d& momentum, double weight);

  /// Append all of `other`'s particles (used for rank migration).
  void append(const ParticleBuffer& other);

  /// Remove particle i by swapping with the last (O(1), order not kept).
  void swapRemove(std::size_t i);

  const SpeciesInfo& info() const { return info_; }

  /// gamma = sqrt(1 + u^2) of particle i.
  double gamma(std::size_t i) const;
  /// velocity beta = u/gamma of particle i.
  Vec3d velocity(std::size_t i) const;
  /// Total kinetic energy sum w * (gamma - 1) * m (plasma units).
  double kineticEnergy() const;

  // SoA columns; kept public for hot loops (pusher/deposit/radiation).
  std::vector<double> x, y, z;     ///< cell units
  std::vector<double> ux, uy, uz;  ///< gamma*beta
  std::vector<double> w;           ///< macroparticle weight (n/n0 * V_cell/ppc)

 private:
  SpeciesInfo info_;
};

/// Wrap one particle coordinate into [0, n), assuming it moved less than
/// one domain length since it was last wrapped (the CFL displacement
/// bound guarantees far less). Shared by the fused pipeline and the
/// scalar reference step of the tests, so the two wrap bit-identically.
inline double wrapCoordinate(double v, double n) {
  if (v < 0) v += n;
  if (v >= n) v -= n;
  return v;
}

/// Supercell index: after sort(), particles are ordered by tile and
/// tileRange() gives each tile's contiguous [begin, end) range. bin()
/// provides a stable counting sort as an index permutation without
/// moving particle data (charge deposition's binning).
///
/// Determinism: binning depends only on positions and the tile geometry.
/// bin()'s per-tile order is ascending input index (stable); sort()
/// additionally orders each tile canonically by the x-major phase-space
/// key (x, y, z, ux, uy, uz, w), so the post-sort order is a pure
/// function of the particle *multiset* — independent of input order,
/// OMP thread count, and schedule. That last property is what makes the
/// rank-decomposed driver bit-identical to single-rank stepping: an
/// x-slab partition splits each tile's population into contiguous runs
/// of the canonical order (slab bounds are x-thresholds and the key is
/// x-major), so scattering rank parts in ascending rank order
/// reproduces the single-rank per-tile scatter sequence exactly
/// (see pic/domain.hpp).
///
/// Cost: both passes run on the OpenMP team. sort() expects each tile to
/// arrive nearly in canonical order — the previous step's sort, pushed —
/// and sorts it with an insertion pass on (x, index) keys, falling back
/// to std::sort when a tile needs more than a fixed number of moves per
/// particle (a fresh load, random within each cell), so the worst case
/// stays O(m log m) per tile of m particles.
class SupercellIndex {
 public:
  /// Tiles of edgeX x edgeY cells over full z columns (the KHI box is thin
  /// in z; PIConGPU's supercells are 8x8x4). Each edge is clamped to the
  /// grid extent here and nowhere else: DepositBuffer, the fused pipeline
  /// and the rank decomposition all read their tile geometry from an
  /// index.
  SupercellIndex(const GridSpec& grid, long edgeX, long edgeY);

  long tileCount() const { return tilesX_ * tilesY_; }

  /// Stable counting-sort binning of `n` positions into an index
  /// permutation; no particle data moves. Fills tileRange() and
  /// permutation(); per-tile order is ascending input index. A particle's
  /// tile is (floor(x) / edgeX, floor(y) / edgeY), each clamped into the
  /// grid; z never selects the tile, since tiles are full z columns. Returns
  /// false when any position lies outside [0, extent) on some axis (its
  /// tile key is clamped, so the ranges stay valid either way).
  bool bin(const double* xs, const double* ys, const double* zs,
           std::size_t n);

  /// Tile-sorted particle indices of the latest bin()/sort() call.
  const std::vector<std::uint32_t>& permutation() const { return perm_; }

  /// Counting-sort the buffer by tile id, then order each tile by the
  /// canonical phase-space key (x, y, z, ux, uy, uz, w) — see the class
  /// comment; ties across all seven keys are physically indistinguishable
  /// particles, so the order is total for every observable purpose.
  /// Returns bin()'s in-domain flag; out-of-domain particles are sorted
  /// into their clamped tile.
  bool sort(ParticleBuffer& buffer);

  struct Range {
    std::size_t begin = 0, end = 0;
  };
  Range tileRange(long tile) const {
    ARTSCI_EXPECTS(tile >= 0 && tile < tileCount());
    return ranges_[static_cast<std::size_t>(tile)];
  }

  long tilesX() const { return tilesX_; }
  long tilesY() const { return tilesY_; }
  long tileEdgeX() const { return edgeX_; }
  long tileEdgeY() const { return edgeY_; }

 private:
  long edgeX_, edgeY_;
  long tilesX_, tilesY_;
  GridSpec grid_;
  std::vector<Range> ranges_;
  std::vector<std::uint32_t> perm_;  ///< tile-sorted particle indices
  std::vector<std::int32_t> tileOf_;  ///< binning scratch: particle -> tile
  /// bin()'s counting-sort write heads, one row of tiles per thread.
  std::vector<std::size_t> heads_;
  ParticleBuffer scratch_;  ///< sort() staging (storage reused)
};

}  // namespace artsci::pic
