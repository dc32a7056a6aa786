/// Edge-case tests of the particle container and the supercell index:
/// bin()'s counting-sort stability, sort()'s canonical in-tile order (the
/// order-is-a-function-of-the-multiset property the rank-decomposed
/// driver's bit-identity rests on), per-axis tile geometry, and the
/// ParticleBuffer::swapRemove/append interactions (empty buffer,
/// all-one-tile, remove-last) that the rank-migration path exercises.
/// The SupercellSort oracle cases compare sort() and bin() at 1/2/8
/// threads with a serial stable counting sort and a per-tile std::sort
/// over the full canonical comparator, on inputs that reach both the
/// insertion pass and its std::sort fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "pic/khi.hpp"
#include "pic/particles.hpp"
#include "pic/simulation.hpp"
#include "reference_step.hpp"

namespace artsci::pic {
namespace {

using reference::KeyedIndex;
using reference::ThreadCountGuard;

ParticleBuffer randomParticles(const GridSpec& g, int n, std::uint64_t seed) {
  ParticleBuffer p({-1.0, 1.0, "e"});
  Rng rng(seed);
  for (int i = 0; i < n; ++i)
    p.push({rng.uniform(0.0, static_cast<double>(g.nx)),
            rng.uniform(0.0, static_cast<double>(g.ny)),
            rng.uniform(0.0, static_cast<double>(g.nz))},
           {rng.normal(), rng.normal(), rng.normal()},
           static_cast<double>(i));  // weight tags the insertion order
  return p;
}

TEST(SupercellSort, CanonicalOrderWithinEveryTile) {
  const GridSpec g{16, 16, 8, 0.2, 0.2, 0.2};
  ParticleBuffer p = randomParticles(g, 2000, 3);
  KeyedIndex idx(g, 8, 8);
  EXPECT_TRUE(idx.sort(p));
  std::size_t seen = 0;
  for (long t = 0; t < idx.tileCount(); ++t) {
    const auto r = idx.tileRange(t);
    for (std::size_t i = r.begin; i < r.end; ++i, ++seen) {
      EXPECT_EQ(idx.tileOf(p.x[i], p.y[i], p.z[i]), t);
      // Canonical x-major key: x must ascend within the tile (random
      // continuous positions never tie, so x alone decides the order).
      if (i > r.begin) {
        EXPECT_LT(p.x[i - 1], p.x[i]);
      }
    }
  }
  EXPECT_EQ(seen, p.size());
}

TEST(SupercellSort, OrderIsIndependentOfInputOrder) {
  // The property the rank-decomposed driver rests on: the post-sort
  // order is a pure function of the particle *multiset*, so buffers
  // with different arrival histories (distribution order, migration)
  // sort to the exact same sequence.
  const GridSpec g{16, 16, 8, 0.2, 0.2, 0.2};
  ParticleBuffer p = randomParticles(g, 1500, 9);
  ParticleBuffer reversed({-1.0, 1.0, "e"});
  for (std::size_t i = p.size(); i-- > 0;)
    reversed.push({p.x[i], p.y[i], p.z[i]}, {p.ux[i], p.uy[i], p.uz[i]},
                  p.w[i]);
  SupercellIndex idx(g, 8, 8);
  EXPECT_TRUE(idx.sort(p));
  EXPECT_TRUE(idx.sort(reversed));
  ASSERT_EQ(p.size(), reversed.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p.x[i], reversed.x[i]);
    EXPECT_EQ(p.uy[i], reversed.uy[i]);
    EXPECT_EQ(p.w[i], reversed.w[i]);
  }
}

TEST(SupercellSort, AllOneTileSortsCanonically) {
  const GridSpec g{32, 32, 8, 0.2, 0.2, 0.2};
  ParticleBuffer p({-1.0, 1.0, "e"});
  Rng rng(5);
  for (int i = 0; i < 300; ++i)
    p.push({rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0),
            rng.uniform(0.0, 8.0)},
           {}, static_cast<double>(i));
  const double wSumBefore = [&] {
    double s = 0;
    for (double w : p.w) s += w;
    return s;
  }();
  SupercellIndex idx(g, 8, 8);
  EXPECT_TRUE(idx.sort(p));
  // Everything lives in tile 0, ordered by ascending x; nothing lost.
  EXPECT_EQ(idx.tileRange(0).end, p.size());
  double wSumAfter = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    wSumAfter += p.w[i];
    if (i > 0) {
      EXPECT_LT(p.x[i - 1], p.x[i]);
    }
  }
  EXPECT_DOUBLE_EQ(wSumAfter, wSumBefore);
}

TEST(SupercellSort, EmptyBufferIsFine) {
  const GridSpec g{8, 8, 8, 0.2, 0.2, 0.2};
  ParticleBuffer p({-1.0, 1.0, "e"});
  SupercellIndex idx(g, 4, 4);
  EXPECT_TRUE(idx.sort(p));
  EXPECT_TRUE(p.empty());
  for (long t = 0; t < idx.tileCount(); ++t)
    EXPECT_EQ(idx.tileRange(t).begin, idx.tileRange(t).end);
}

TEST(SupercellSort, PermutationReflectsAppliedSort) {
  const GridSpec g{16, 16, 4, 0.2, 0.2, 0.2};
  ParticleBuffer p = randomParticles(g, 500, 7);
  ParticleBuffer sorted = p;
  SupercellIndex idx(g, 8, 8);
  EXPECT_TRUE(idx.sort(sorted));
  // permutation() after sort() is the gather actually applied (bin()'s
  // stable-by-index permutation plus the canonical in-tile reorder).
  const std::vector<std::uint32_t>& perm = idx.permutation();
  ASSERT_EQ(perm.size(), p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_DOUBLE_EQ(sorted.x[i], p.x[perm[i]]);
    EXPECT_DOUBLE_EQ(sorted.w[i], p.w[perm[i]]);
  }
}

TEST(SupercellSort, BinAloneStaysStableByIndex) {
  // bin() (charge deposition's binning) must remain stable by input
  // index: it preserves the order it is given rather than re-sorting.
  const GridSpec g{16, 16, 4, 0.2, 0.2, 0.2};
  ParticleBuffer p = randomParticles(g, 500, 7);
  SupercellIndex idx(g, 8, 8);
  EXPECT_TRUE(idx.bin(p.x.data(), p.y.data(), p.z.data(), p.size()));
  const std::vector<std::uint32_t>& perm = idx.permutation();
  for (long t = 0; t < idx.tileCount(); ++t) {
    const auto r = idx.tileRange(t);
    for (std::size_t i = r.begin; i + 1 < r.end; ++i)
      EXPECT_LT(perm[i], perm[i + 1]);
  }
}

TEST(SupercellSort, FlagsOutOfDomainButStaysValid) {
  const GridSpec g{8, 8, 8, 0.2, 0.2, 0.2};
  ParticleBuffer p({-1.0, 1.0, "e"});
  p.push({2.0, 2.0, 2.0}, {}, 0.0);
  p.push({-0.5, 2.0, 2.0}, {}, 1.0);  // unwrapped x
  p.push({2.0, 2.0, 9.5}, {}, 2.0);   // unwrapped z
  SupercellIndex idx(g, 4, 4);
  EXPECT_FALSE(idx.sort(p));
  EXPECT_EQ(p.size(), 3u);  // clamped into valid tiles, nothing lost
  std::size_t counted = 0;
  for (long t = 0; t < idx.tileCount(); ++t)
    counted += idx.tileRange(t).end - idx.tileRange(t).begin;
  EXPECT_EQ(counted, 3u);
}

/// The canonical comparator over all seven keys, without the index's
/// (x, index) split.
bool canonicalBefore(const ParticleBuffer& b, std::uint32_t i,
                     std::uint32_t j) {
  return std::tie(b.x[i], b.y[i], b.z[i], b.ux[i], b.uy[i], b.uz[i],
                  b.w[i]) < std::tie(b.x[j], b.y[j], b.z[j], b.ux[j],
                                     b.uy[j], b.uz[j], b.w[j]);
}

/// Serial stable counting sort by tile: one bucket per tile, filled in
/// index order. Returns the buckets.
std::vector<std::vector<std::uint32_t>> serialBins(const ParticleBuffer& p,
                                                   const KeyedIndex& idx) {
  std::vector<std::vector<std::uint32_t>> bins(
      static_cast<std::size_t>(idx.tileCount()));
  for (std::size_t i = 0; i < p.size(); ++i)
    bins[static_cast<std::size_t>(idx.tileOf(p.x[i], p.y[i], p.z[i]))]
        .push_back(static_cast<std::uint32_t>(i));
  return bins;
}

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Checks bin() and sort() on `input` at 1, 2 and 8 threads against the
/// serial oracles: bin()'s permutation must equal the concatenated
/// buckets, and each tile of the sorted buffer must hold its bucket in
/// std::sort's canonical order, bit for bit.
void expectSortMatchesOracle(const ParticleBuffer& input, const GridSpec& g,
                             long edgeX, long edgeY) {
  const KeyedIndex keys(g, edgeX, edgeY);
  std::vector<std::vector<std::uint32_t>> bins = serialBins(input, keys);
  std::vector<std::uint32_t> binned;
  for (const auto& tile : bins) binned.insert(binned.end(), tile.begin(), tile.end());
  for (auto& tile : bins)
    std::sort(tile.begin(), tile.end(), [&](std::uint32_t i, std::uint32_t j) {
      return canonicalBefore(input, i, j);
    });

  ThreadCountGuard guard;
  for (int threads : {1, 2, 8}) {
    guard.set(threads);
    SupercellIndex idx(g, edgeX, edgeY);
    ASSERT_TRUE(
        idx.bin(input.x.data(), input.y.data(), input.z.data(), input.size()));
    EXPECT_EQ(idx.permutation(), binned) << threads << " threads";

    ParticleBuffer sorted = input;
    ASSERT_TRUE(idx.sort(sorted));
    std::size_t mismatches = 0;
    for (long t = 0; t < idx.tileCount(); ++t) {
      const auto& tile = bins[static_cast<std::size_t>(t)];
      const SupercellIndex::Range r = idx.tileRange(t);
      ASSERT_EQ(r.end - r.begin, tile.size()) << "tile " << t;
      for (std::size_t k = 0; k < tile.size(); ++k) {
        const std::size_t at = r.begin + k;
        const std::uint32_t want = tile[k];
        mismatches += !(sameBits(sorted.x[at], input.x[want]) &&
                        sameBits(sorted.y[at], input.y[want]) &&
                        sameBits(sorted.z[at], input.z[want]) &&
                        sameBits(sorted.ux[at], input.ux[want]) &&
                        sameBits(sorted.uy[at], input.uy[want]) &&
                        sameBits(sorted.uz[at], input.uz[want]) &&
                        sameBits(sorted.w[at], input.w[want]));
      }
    }
    EXPECT_EQ(mismatches, 0u) << threads << " threads";
  }
}

/// A KHI box of 16x16x8 cells.
SimulationConfig khiBox() {
  SimulationConfig sc;
  sc.grid = GridSpec{16, 16, 8, 0.25, 0.25, 0.25};
  sc.dt = 0.08;
  return sc;
}

/// Fills `sim` with a fresh KHI load, 4 particles per cell, and returns
/// its electrons: x is random within each cell column, so an 8x8 tile
/// arrives with ~64 inversions per particle — past the insertion pass's
/// move budget. A step later each tile is nearly sorted again.
ParticleBuffer loadKhi(Simulation& sim) {
  KhiConfig k;
  k.grid = sim.grid();
  k.particlesPerCell = 4;
  return sim.species(initializeKhi(sim, k).electrons);
}

TEST(SupercellSort, FreshKhiLoadMatchesOracle) {
  Simulation sim(khiBox());
  expectSortMatchesOracle(loadKhi(sim), sim.grid(), 8, 8);
}

TEST(SupercellSort, SteppedKhiMatchesOracle) {
  // The steady-state input: the previous step's canonical order, pushed
  // and wrapped — nearly sorted, so the insertion pass finishes alone.
  Simulation sim(khiBox());
  loadKhi(sim);
  sim.run(3);
  for (std::size_t s = 0; s < sim.speciesCount(); ++s)
    expectSortMatchesOracle(sim.species(s), sim.grid(), 8, 8);
}

TEST(SupercellSort, ReversedTileMatchesOracle) {
  Simulation sim(khiBox());
  ParticleBuffer p = loadKhi(sim);
  SupercellIndex idx(sim.grid(), 8, 8);
  ASSERT_TRUE(idx.sort(p));
  // Reverse one tile in place; the other tiles stay canonical.
  const SupercellIndex::Range r = idx.tileRange(1);
  ASSERT_GT(r.end - r.begin, 1000u);
  for (std::vector<double>* col : {&p.x, &p.y, &p.z, &p.ux, &p.uy, &p.uz, &p.w})
    std::reverse(col->begin() + static_cast<std::ptrdiff_t>(r.begin),
                 col->begin() + static_cast<std::ptrdiff_t>(r.end));
  expectSortMatchesOracle(p, sim.grid(), 8, 8);
}

TEST(SupercellSort, ExactXTiesBreakOnTheRestOfTheKey) {
  // Every pair shares x with many others; the order must fall through y,
  // z, ux, uy, uz and w in turn. Exact duplicates (full ties) included.
  const GridSpec g{8, 8, 4, 0.2, 0.2, 0.2};
  ParticleBuffer p({-1.0, 1.0, "e"});
  Rng rng(17);
  const double xs[] = {1.25, 1.5, 5.75};
  const double ys[] = {2.0, 2.5};
  const double zs[] = {0.5, 3.25};
  const double us[] = {-0.125, 0.0, 0.125};
  for (int copy = 0; copy < 2; ++copy)
    for (double x : xs)
      for (double y : ys)
        for (double z : zs)
          for (double ux : us)
            for (double uy : us)
              for (double uz : us)
                for (double w : {1.0, 2.0}) p.push({x, y, z}, {ux, uy, uz}, w);
  const auto swapParticles = [&p](std::size_t i, std::size_t j) {
    for (std::vector<double>* col :
         {&p.x, &p.y, &p.z, &p.ux, &p.uy, &p.uz, &p.w})
      std::swap((*col)[i], (*col)[j]);
  };
  // Shuffled, ties arrive in arbitrary order (past the move budget).
  for (std::size_t i = p.size(); i-- > 1;)
    swapParticles(i, static_cast<std::size_t>(rng.uniformInt(i + 1)));
  expectSortMatchesOracle(p, g, 4, 4);
  // Canonical order with neighbours swapped: the insertion pass alone
  // breaks the ties.
  SupercellIndex idx(g, 4, 4);
  ASSERT_TRUE(idx.sort(p));
  for (std::size_t i = 0; i + 1 < p.size(); i += 5) swapParticles(i, i + 1);
  expectSortMatchesOracle(p, g, 4, 4);
}

TEST(SupercellSort, AppendedMigrantsMatchOracle) {
  // The rank driver's buffers: sorted last step, some particles removed
  // by swapRemove, migrants appended at the end.
  Simulation sim(khiBox());
  loadKhi(sim);
  sim.run(2);
  ParticleBuffer p = sim.species(0);
  for (std::size_t i = 0; i < p.size(); i += 97) p.swapRemove(i);
  const ParticleBuffer migrants = randomParticles(sim.grid(), 300, 29);
  p.append(migrants);
  expectSortMatchesOracle(p, sim.grid(), 8, 8);
}

TEST(SupercellIndexGeometry, PerAxisEdgesAndFullZColumns) {
  const GridSpec g{32, 64, 8, 0.2, 0.2, 0.2};
  KeyedIndex idx(g, 8, 8);
  EXPECT_EQ(idx.tilesX(), 4);
  EXPECT_EQ(idx.tilesY(), 8);
  EXPECT_EQ(idx.tileCount(), 32);
  // z never affects the tile id (full columns).
  EXPECT_EQ(idx.tileOf(10.0, 20.0, 0.5), idx.tileOf(10.0, 20.0, 7.5));
  // Edges are clamped to the grid extent.
  SupercellIndex small(GridSpec{4, 4, 4, 0.2, 0.2, 0.2}, 8, 8);
  EXPECT_EQ(small.tileCount(), 1);
  EXPECT_EQ(small.tileEdgeX(), 4);
}

TEST(ParticleBuffer, SwapRemoveLastAndSingle) {
  ParticleBuffer p({-1.0, 1.0, "e"});
  p.push({1, 1, 1}, {0.1, 0, 0}, 10.0);
  p.push({2, 2, 2}, {0.2, 0, 0}, 20.0);
  p.push({3, 3, 3}, {0.3, 0, 0}, 30.0);
  p.swapRemove(2);  // remove-last: no swap partner beyond itself
  ASSERT_EQ(p.size(), 2u);
  EXPECT_DOUBLE_EQ(p.w[0], 10.0);
  EXPECT_DOUBLE_EQ(p.w[1], 20.0);
  p.swapRemove(0);  // middle/first: last slides in
  ASSERT_EQ(p.size(), 1u);
  EXPECT_DOUBLE_EQ(p.w[0], 20.0);
  EXPECT_DOUBLE_EQ(p.x[0], 2.0);
  p.swapRemove(0);  // singleton -> empty
  EXPECT_TRUE(p.empty());
  EXPECT_THROW(p.swapRemove(0), ContractError);  // empty buffer
}

TEST(ParticleBuffer, AppendEdgeCases) {
  ParticleBuffer empty({-1.0, 1.0, "e"});
  ParticleBuffer a({-1.0, 1.0, "e"});
  a.append(empty);  // empty onto empty
  EXPECT_TRUE(a.empty());
  ParticleBuffer b({-1.0, 1.0, "e"});
  b.push({1, 2, 3}, {0.1, 0.2, 0.3}, 1.5);
  a.append(b);  // onto empty
  ASSERT_EQ(a.size(), 1u);
  EXPECT_DOUBLE_EQ(a.uy[0], 0.2);
  a.append(b);
  a.append(empty);  // empty onto non-empty: no change
  ASSERT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a.z[1], 3.0);
}

TEST(ParticleBuffer, AppendSortSwapRemoveInteraction) {
  // The migration pattern: append incoming particles, sort for the next
  // step, remove leavers — counts and content must stay consistent.
  const GridSpec g{8, 8, 8, 0.2, 0.2, 0.2};
  ParticleBuffer p = randomParticles(g, 40, 11);
  ParticleBuffer incoming = randomParticles(g, 10, 13);
  p.append(incoming);
  ASSERT_EQ(p.size(), 50u);
  SupercellIndex idx(g, 4, 4);
  EXPECT_TRUE(idx.sort(p));
  const auto sumW = [](const ParticleBuffer& b) {
    double s = 0;
    for (double w : b.w) s += w;
    return s;
  };
  const double before = sumW(p);
  const double removed = p.w[p.size() - 1] + p.w[0];
  p.swapRemove(p.size() - 1);  // remove-last straight after a sort
  p.swapRemove(0);
  EXPECT_EQ(p.size(), 48u);
  // Content conservation: exactly the two removed weights are gone (a
  // duplicate or dropped particle in sort/swapRemove would break this).
  EXPECT_NEAR(sumW(p), before - removed, 1e-9);
  // Re-sorting a partially modified buffer stays valid.
  EXPECT_TRUE(idx.sort(p));
  EXPECT_NEAR(sumW(p), before - removed, 1e-9);
  std::size_t counted = 0;
  for (long t = 0; t < idx.tileCount(); ++t)
    counted += idx.tileRange(t).end - idx.tileRange(t).begin;
  EXPECT_EQ(counted, 48u);
}

}  // namespace
}  // namespace artsci::pic
