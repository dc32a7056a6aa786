/// Edge-case tests of the particle container and the supercell index:
/// bin()'s counting-sort stability, sort()'s canonical in-tile order (the
/// order-is-a-function-of-the-multiset property the rank-decomposed
/// driver's bit-identity rests on), per-axis tile geometry, and the
/// ParticleBuffer::swapRemove/append interactions (empty buffer,
/// all-one-tile, remove-last) that the rank-migration path exercises.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "pic/particles.hpp"

namespace artsci::pic {
namespace {

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
  SupercellIndex idx(g, 8, 8);
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
  // bin() (the split deposit path's re-binning) must remain stable by
  // input index: the split path relies on it to *preserve* the canonical
  // pre-push order rather than re-sort by post-push state.
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

TEST(SupercellIndexGeometry, PerAxisEdgesAndFullZColumns) {
  const GridSpec g{32, 64, 8, 0.2, 0.2, 0.2};
  SupercellIndex idx(g, 8, 8);
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
