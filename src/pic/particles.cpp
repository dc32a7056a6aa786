#include "pic/particles.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace artsci::pic {

void ParticleBuffer::reserve(std::size_t n) {
  x.reserve(n);
  y.reserve(n);
  z.reserve(n);
  ux.reserve(n);
  uy.reserve(n);
  uz.reserve(n);
  w.reserve(n);
}

void ParticleBuffer::clear() {
  x.clear();
  y.clear();
  z.clear();
  ux.clear();
  uy.clear();
  uz.clear();
  w.clear();
}

void ParticleBuffer::push(const Vec3d& position, const Vec3d& momentum,
                          double weight) {
  x.push_back(position.x);
  y.push_back(position.y);
  z.push_back(position.z);
  ux.push_back(momentum.x);
  uy.push_back(momentum.y);
  uz.push_back(momentum.z);
  w.push_back(weight);
}

void ParticleBuffer::append(const ParticleBuffer& other) {
  x.insert(x.end(), other.x.begin(), other.x.end());
  y.insert(y.end(), other.y.begin(), other.y.end());
  z.insert(z.end(), other.z.begin(), other.z.end());
  ux.insert(ux.end(), other.ux.begin(), other.ux.end());
  uy.insert(uy.end(), other.uy.begin(), other.uy.end());
  uz.insert(uz.end(), other.uz.begin(), other.uz.end());
  w.insert(w.end(), other.w.begin(), other.w.end());
}

void ParticleBuffer::swapRemove(std::size_t i) {
  ARTSCI_EXPECTS(i < size());
  const std::size_t last = size() - 1;
  x[i] = x[last];
  y[i] = y[last];
  z[i] = z[last];
  ux[i] = ux[last];
  uy[i] = uy[last];
  uz[i] = uz[last];
  w[i] = w[last];
  x.pop_back();
  y.pop_back();
  z.pop_back();
  ux.pop_back();
  uy.pop_back();
  uz.pop_back();
  w.pop_back();
}

double ParticleBuffer::gamma(std::size_t i) const {
  const double u2 = ux[i] * ux[i] + uy[i] * uy[i] + uz[i] * uz[i];
  return std::sqrt(1.0 + u2);
}

Vec3d ParticleBuffer::velocity(std::size_t i) const {
  const double g = gamma(i);
  return {ux[i] / g, uy[i] / g, uz[i] / g};
}

double ParticleBuffer::kineticEnergy() const {
  double e = 0.0;
  for (std::size_t i = 0; i < size(); ++i)
    e += w[i] * (gamma(i) - 1.0) * info_.mass;
  return e;
}

namespace {

long clampedEdge(long edge, long cells) {
  ARTSCI_EXPECTS(edge >= 1 && cells >= 1);
  return std::min(edge, cells);
}

/// OpenMP team queries that read 1 in a build without OpenMP.
int maxTeamSize() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

int teamSize() {
#ifdef _OPENMP
  return omp_get_num_threads();
#else
  return 1;
#endif
}

int threadIndex() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// Moves per key the insertion pass of sortTileKeys may spend. sort()'s
/// steady-state input is the previous step's canonical order, pushed: on
/// the 32x64x8 KHI box (8x8 tiles, 4 per cell) a tile needs under 4 moves
/// per key, and up to ~38 where particles wrap around the periodic x
/// boundary and so arrive at the wrong end of their new tile. A fresh
/// load, random in x within each cell column, needs 64.
constexpr std::size_t kMovesPerKey = 48;

/// Sorts one tile's keys into canonical order: x values `xs` and particle
/// indices `idx`, moved together, with `tieBefore` ordering two particles
/// of equal x. The keys arrive nearly in order, so an insertion pass
/// sorts them while it stays within kMovesPerKey * m moves; once it does
/// not, std::sort orders the indices, reading x through them, and the x
/// values are filled in again — so the worst case stays O(m log m).
template <class TieBefore>
void sortTileKeys(double* xs, std::uint32_t* idx, std::size_t m,
                  const double* x, TieBefore tieBefore) {
  std::size_t budget = kMovesPerKey * m;
  for (std::size_t s = 1; s < m; ++s) {
    const double kx = xs[s];
    const std::uint32_t ki = idx[s];
    std::size_t hole = s;
    for (; hole > 0 && (xs[hole - 1] != kx ? kx < xs[hole - 1]
                                           : tieBefore(ki, idx[hole - 1]));
         --hole) {
      if (budget == 0) {
        xs[hole] = kx;
        idx[hole] = ki;
        std::sort(idx, idx + m, [&](std::uint32_t a, std::uint32_t c) {
          return x[a] != x[c] ? x[a] < x[c] : tieBefore(a, c);
        });
        for (std::size_t k = 0; k < m; ++k) xs[k] = x[idx[k]];
        return;
      }
      --budget;
      xs[hole] = xs[hole - 1];
      idx[hole] = idx[hole - 1];
    }
    xs[hole] = kx;
    idx[hole] = ki;
  }
}

}  // namespace

SupercellIndex::SupercellIndex(const GridSpec& grid, long edgeX, long edgeY)
    : edgeX_(clampedEdge(edgeX, grid.nx)),
      edgeY_(clampedEdge(edgeY, grid.ny)),
      grid_(grid) {
  ARTSCI_EXPECTS(grid.nz >= 1);
  tilesX_ = (grid.nx + edgeX_ - 1) / edgeX_;
  tilesY_ = (grid.ny + edgeY_ - 1) / edgeY_;
}

bool SupercellIndex::bin(const double* xs, const double* ys, const double* zs,
                         std::size_t n) {
  ARTSCI_EXPECTS(n <= static_cast<std::size_t>(UINT32_MAX));
  const auto tiles = static_cast<std::size_t>(tileCount());
  tileOf_.resize(n);
  perm_.resize(n);
  ranges_.assign(tiles, Range{});
  // One row of counting-sort heads per thread, sized here on the calling
  // thread so that no worker allocates.
  const int team = maxTeamSize();
  heads_.assign(static_cast<std::size_t>(team) * tiles, 0);

  // Stable counting sort on the team: each thread keys and counts one
  // contiguous chunk of particles, the heads are laid out in (tile,
  // chunk) order, and each thread scatters its chunk in index order. A
  // tile's particles from a lower chunk have lower indices, so per-tile
  // order is ascending particle index, whatever the team size: a stable
  // sort's permutation is unique. Out-of-domain positions are flagged
  // rather than thrown here — throwing inside an OpenMP region would
  // terminate — and their keys clamped so the ranges stay valid.
  bool inDomain = true;
#ifdef _OPENMP
#pragma omp parallel num_threads(team) reduction(&& : inDomain)
#endif
  {
    const auto threads = static_cast<std::size_t>(teamSize());
    const auto id = static_cast<std::size_t>(threadIndex());
    const std::size_t lo = n * id / threads;
    const std::size_t hi = n * (id + 1) / threads;
    std::size_t* heads = heads_.data() + id * tiles;
    for (std::size_t s = lo; s < hi; ++s) {
      const long ci = static_cast<long>(std::floor(xs[s]));
      const long cj = static_cast<long>(std::floor(ys[s]));
      const long ck = static_cast<long>(std::floor(zs[s]));
      const bool ok = ci >= 0 && ci < grid_.nx && cj >= 0 && cj < grid_.ny &&
                      ck >= 0 && ck < grid_.nz;
      inDomain = inDomain && ok;
      const long ti = std::clamp(ci / edgeX_, 0L, tilesX_ - 1);
      const long tj = std::clamp(cj / edgeY_, 0L, tilesY_ - 1);
      const auto tile = static_cast<std::int32_t>(ti * tilesY_ + tj);
      tileOf_[s] = tile;
      ++heads[tile];
    }
#ifdef _OPENMP
#pragma omp barrier
#pragma omp single
#endif
    {
      std::size_t at = 0;
      for (std::size_t t = 0; t < tiles; ++t) {
        ranges_[t].begin = at;
        for (std::size_t c = 0; c < threads; ++c) {
          std::size_t& head = heads_[c * tiles + t];
          const std::size_t count = head;
          head = at;
          at += count;
        }
        ranges_[t].end = at;
      }
    }
    for (std::size_t s = lo; s < hi; ++s)
      perm_[heads[tileOf_[s]]++] = static_cast<std::uint32_t>(s);
  }
  return inDomain;
}

bool SupercellIndex::sort(ParticleBuffer& buffer) {
  const std::size_t n = buffer.size();
  const bool inDomain =
      bin(buffer.x.data(), buffer.y.data(), buffer.z.data(), n);
  scratch_.x.resize(n);
  scratch_.y.resize(n);
  scratch_.z.resize(n);
  scratch_.ux.resize(n);
  scratch_.uy.resize(n);
  scratch_.uz.resize(n);
  scratch_.w.resize(n);

  // Canonical in-tile order: ascending x-major phase-space key. This
  // erases the buffer's arrival history from the per-tile order, making
  // it a pure function of the particle multiset (the property the
  // rank-decomposed driver's cross-rank bit-identity rests on). Each tile
  // sorts contiguous (x, index) keys — x in the staging x column, where
  // the sorted values belong anyway, the index in permutation() — since
  // x resolves almost every pair; an x tie falls through to the rest of
  // the key, read through the index. Full seven-key ties are physically
  // identical particles, for which any order yields the same bits
  // everywhere downstream.
  const ParticleBuffer& b = buffer;
  const auto tieBefore = [&b](std::uint32_t ia, std::uint32_t ic) {
    const auto a = static_cast<std::size_t>(ia);
    const auto c = static_cast<std::size_t>(ic);
    if (b.y[a] != b.y[c]) return b.y[a] < b.y[c];
    if (b.z[a] != b.z[c]) return b.z[a] < b.z[c];
    if (b.ux[a] != b.ux[c]) return b.ux[a] < b.ux[c];
    if (b.uy[a] != b.uy[c]) return b.uy[a] < b.uy[c];
    if (b.uz[a] != b.uz[c]) return b.uz[a] < b.uz[c];
    return b.w[a] < b.w[c];
  };
  const long tiles = tileCount();
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic)
#endif
  for (long t = 0; t < tiles; ++t) {
    const Range r = ranges_[static_cast<std::size_t>(t)];
    const std::size_t m = r.end - r.begin;
    double* const xs = scratch_.x.data() + r.begin;
    std::uint32_t* const idx = perm_.data() + r.begin;
    for (std::size_t s = 0; s < m; ++s) xs[s] = buffer.x[idx[s]];
    sortTileKeys(xs, idx, m, buffer.x.data(), tieBefore);

    // Apply the tile's permutation to the other columns as a gather into
    // the staging buffer (tiles write disjoint ranges).
    for (std::size_t s = r.begin; s < r.end; ++s) {
      const std::uint32_t src = perm_[s];
      scratch_.y[s] = buffer.y[src];
      scratch_.z[s] = buffer.z[src];
      scratch_.ux[s] = buffer.ux[src];
      scratch_.uy[s] = buffer.uy[src];
      scratch_.uz[s] = buffer.uz[src];
      scratch_.w[s] = buffer.w[src];
    }
  }

  // Swap the columns so both allocations are reused on the next call.
  buffer.x.swap(scratch_.x);
  buffer.y.swap(scratch_.y);
  buffer.z.swap(scratch_.z);
  buffer.ux.swap(scratch_.ux);
  buffer.uy.swap(scratch_.uy);
  buffer.uz.swap(scratch_.uz);
  buffer.w.swap(scratch_.w);
  return inDomain;
}

}  // namespace artsci::pic
