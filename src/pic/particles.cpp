#include "pic/particles.hpp"

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

}  // namespace

SupercellIndex::SupercellIndex(const GridSpec& grid, long edgeX, long edgeY)
    : edgeX_(clampedEdge(edgeX, grid.nx)),
      edgeY_(clampedEdge(edgeY, grid.ny)),
      grid_(grid) {
  ARTSCI_EXPECTS(grid.nz >= 1);
  tilesX_ = (grid.nx + edgeX_ - 1) / edgeX_;
  tilesY_ = (grid.ny + edgeY_ - 1) / edgeY_;
}

long SupercellIndex::tileOf(double xCell, double yCell, double) const {
  const long ti = static_cast<long>(std::floor(xCell)) / edgeX_;
  const long tj = static_cast<long>(std::floor(yCell)) / edgeY_;
  return std::clamp(ti, 0L, tilesX_ - 1) * tilesY_ +
         std::clamp(tj, 0L, tilesY_ - 1);
}

bool SupercellIndex::bin(const double* xs, const double* ys, const double* zs,
                         std::size_t n) {
  ARTSCI_EXPECTS(n <= static_cast<std::size_t>(UINT32_MAX));
  const long nl = static_cast<long>(n);
  tileOf_.resize(n);
  perm_.resize(n);

  // Tile keys (parallel; order-independent). Out-of-domain positions are
  // flagged rather than thrown here — throwing inside an OpenMP region
  // would terminate — and their keys clamped so the ranges stay valid.
  bool inDomain = true;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) reduction(&& : inDomain)
#endif
  for (long i = 0; i < nl; ++i) {
    const auto s = static_cast<std::size_t>(i);
    const long ci = static_cast<long>(std::floor(xs[s]));
    const long cj = static_cast<long>(std::floor(ys[s]));
    const long ck = static_cast<long>(std::floor(zs[s]));
    const bool ok = ci >= 0 && ci < grid_.nx && cj >= 0 && cj < grid_.ny &&
                    ck >= 0 && ck < grid_.nz;
    inDomain = inDomain && ok;
    // Same key arithmetic as tileOf(), reusing the floors computed for
    // the domain check above.
    const long ti = std::clamp(ci / edgeX_, 0L, tilesX_ - 1);
    const long tj = std::clamp(cj / edgeY_, 0L, tilesY_ - 1);
    tileOf_[s] = static_cast<std::int32_t>(ti * tilesY_ + tj);
  }

  // Stable counting sort: per-tile order is ascending particle index.
  // Serial: O(N) with trivial constants next to the per-particle physics.
  const long tiles = tileCount();
  cursor_.assign(static_cast<std::size_t>(tiles) + 1, 0);
  for (long i = 0; i < nl; ++i)
    ++cursor_[static_cast<std::size_t>(tileOf_[static_cast<std::size_t>(i)]) +
              1];
  for (long t = 0; t < tiles; ++t)
    cursor_[static_cast<std::size_t>(t) + 1] +=
        cursor_[static_cast<std::size_t>(t)];
  ranges_.assign(static_cast<std::size_t>(tiles), Range{});
  for (long t = 0; t < tiles; ++t)
    ranges_[static_cast<std::size_t>(t)] = {
        cursor_[static_cast<std::size_t>(t)],
        cursor_[static_cast<std::size_t>(t) + 1]};
  for (long i = 0; i < nl; ++i) {
    const auto s = static_cast<std::size_t>(i);
    perm_[cursor_[static_cast<std::size_t>(tileOf_[s])]++] =
        static_cast<std::uint32_t>(i);
  }
  return inDomain;
}

bool SupercellIndex::sort(ParticleBuffer& buffer) {
  const std::size_t n = buffer.size();
  const bool inDomain =
      bin(buffer.x.data(), buffer.y.data(), buffer.z.data(), n);

  // Canonical in-tile order: ascending x-major phase-space key. This
  // erases the buffer's arrival history from the per-tile order, making
  // it a pure function of the particle multiset (the property the
  // rank-decomposed driver's cross-rank bit-identity rests on). The
  // x-first comparison resolves almost every pair in one compare, and
  // full seven-key ties are physically identical particles, for which
  // any order yields the same bits everywhere downstream.
  const ParticleBuffer& b = buffer;
  const auto canonicalBefore = [&b](std::uint32_t ia, std::uint32_t ib) {
    const auto a = static_cast<std::size_t>(ia);
    const auto c = static_cast<std::size_t>(ib);
    if (b.x[a] != b.x[c]) return b.x[a] < b.x[c];
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
    if (r.end - r.begin > 1)
      std::sort(perm_.begin() + static_cast<std::ptrdiff_t>(r.begin),
                perm_.begin() + static_cast<std::ptrdiff_t>(r.end),
                canonicalBefore);
  }

  // Apply the permutation as a gather (parallel-safe: every destination
  // is written exactly once) into the staging buffer, then swap the
  // columns so both allocations are reused on the next call.
  scratch_.x.resize(n);
  scratch_.y.resize(n);
  scratch_.z.resize(n);
  scratch_.ux.resize(n);
  scratch_.uy.resize(n);
  scratch_.uz.resize(n);
  scratch_.w.resize(n);
  const long nl = static_cast<long>(n);
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (long i = 0; i < nl; ++i) {
    const auto dst = static_cast<std::size_t>(i);
    const auto src = static_cast<std::size_t>(perm_[dst]);
    scratch_.x[dst] = buffer.x[src];
    scratch_.y[dst] = buffer.y[src];
    scratch_.z[dst] = buffer.z[src];
    scratch_.ux[dst] = buffer.ux[src];
    scratch_.uy[dst] = buffer.uy[src];
    scratch_.uz[dst] = buffer.uz[src];
    scratch_.w[dst] = buffer.w[src];
  }
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
