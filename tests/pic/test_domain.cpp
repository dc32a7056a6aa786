/// Bit-level determinism tests for the rank decomposition
/// (SimulationConfig::ranks, pic/simulation.hpp): multi-rank runs must be
/// bit-identical to one rank — fields AND particle state — for any rank
/// count, any OMP thread count, and any repetition, including slab edge
/// cases (ragged tile columns, one cell per rank) and migration across
/// the periodic seam. Also pins the handoff of particles added between
/// steps, the ownerOf out-of-domain contract (no silent last-rank
/// fallback), and that a rank which throws releases its peers. This is
/// the test docs/ARCHITECTURE.md's determinism table points at for the
/// rank decomposition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "pic/khi.hpp"
#include "pic/simulation.hpp"
#include "reference_step.hpp"

namespace artsci::pic {
namespace {

using reference::ThreadCountGuard;

bool bitEqual(const Field3& a, const Field3& b) {
  return a.raw().size() == b.raw().size() &&
         std::memcmp(a.raw().data(), b.raw().data(),
                     a.raw().size() * sizeof(double)) == 0;
}

bool bitEqual(const VectorField& a, const VectorField& b) {
  return bitEqual(a.x, b.x) && bitEqual(a.y, b.y) && bitEqual(a.z, b.z);
}

bool columnBitEqual(const std::vector<double>& a,
                    const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Order the whole buffer by the canonical x-major phase-space key. Rank
/// buffer concatenation order depends on the decomposition, so particle
/// state is compared as a canonically ordered multiset.
ParticleBuffer canonicalOrder(const ParticleBuffer& p) {
  std::vector<std::size_t> idx(p.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(), [&p](std::size_t a, std::size_t c) {
    if (p.x[a] != p.x[c]) return p.x[a] < p.x[c];
    if (p.y[a] != p.y[c]) return p.y[a] < p.y[c];
    if (p.z[a] != p.z[c]) return p.z[a] < p.z[c];
    if (p.ux[a] != p.ux[c]) return p.ux[a] < p.ux[c];
    if (p.uy[a] != p.uy[c]) return p.uy[a] < p.uy[c];
    if (p.uz[a] != p.uz[c]) return p.uz[a] < p.uz[c];
    return p.w[a] < p.w[c];
  });
  ParticleBuffer out(p.info());
  out.reserve(p.size());
  for (std::size_t i : idx)
    out.push({p.x[i], p.y[i], p.z[i]}, {p.ux[i], p.uy[i], p.uz[i]}, p.w[i]);
  return out;
}

bool sameParticleMultiset(const ParticleBuffer& a, const ParticleBuffer& b) {
  if (a.size() != b.size()) return false;
  const ParticleBuffer ca = canonicalOrder(a);
  const ParticleBuffer cb = canonicalOrder(b);
  return columnBitEqual(ca.x, cb.x) && columnBitEqual(ca.y, cb.y) &&
         columnBitEqual(ca.z, cb.z) && columnBitEqual(ca.ux, cb.ux) &&
         columnBitEqual(ca.uy, cb.uy) && columnBitEqual(ca.uz, cb.uz) &&
         columnBitEqual(ca.w, cb.w);
}

/// A simulation of `ranks` slabs holding the KHI state initializeKhi
/// gives it.
std::unique_ptr<Simulation> makeKhi(const KhiConfig& kcfg, std::size_t ranks,
                                    TileDepositConfig tiles) {
  SimulationConfig sc;
  sc.grid = kcfg.grid;
  sc.dt = kcfg.dt;
  sc.tiles = tiles;
  sc.ranks = ranks;
  auto sim = std::make_unique<Simulation>(sc);
  initializeKhi(*sim, kcfg);
  return sim;
}

KhiConfig smallKhi() {
  KhiConfig kcfg;
  kcfg.grid = GridSpec{16, 16, 4, 0.25, 0.25, 0.25};
  kcfg.dt = 0.08;
  kcfg.particlesPerCell = 2;
  return kcfg;
}

/// A 16x8x8 config with the default 8-cell tiles (two tile columns).
SimulationConfig boxConfig(std::size_t ranks) {
  SimulationConfig sc;
  sc.grid = GridSpec{16, 8, 8, 0.25, 0.25, 0.25};
  sc.dt = 0.05;
  sc.ranks = ranks;
  return sc;
}

/// Core check: a multi-rank run equals one rank bit-for-bit (fields and
/// the particle multiset of every species).
void expectMatchesSimulation(const KhiConfig& kcfg, std::size_t ranks,
                             TileDepositConfig tiles, long steps) {
  SimulationConfig sc;
  sc.grid = kcfg.grid;
  sc.dt = kcfg.dt;
  sc.tiles = tiles;
  Simulation ref(sc);
  const KhiSpecies sp = initializeKhi(ref, kcfg);
  ref.run(steps);

  const auto dist = makeKhi(kcfg, ranks, tiles);
  dist->run(steps);

  EXPECT_TRUE(bitEqual(dist->fieldE(), ref.fieldE())) << ranks << " ranks: E";
  EXPECT_TRUE(bitEqual(dist->fieldB(), ref.fieldB())) << ranks << " ranks: B";
  EXPECT_TRUE(bitEqual(dist->currentJ(), ref.currentJ()))
      << ranks << " ranks: J";
  EXPECT_TRUE(sameParticleMultiset(dist->gatherSpecies(0),
                                   ref.species(sp.electrons)))
      << ranks << " ranks: electrons";
  EXPECT_TRUE(sameParticleMultiset(dist->gatherSpecies(1),
                                   ref.species(sp.ions)))
      << ranks << " ranks: ions";
}

TEST(Domain, BitIdenticalToSingleRankAcrossRankCounts) {
  const KhiConfig kcfg = smallKhi();
  const TileDepositConfig tiles{4, 8};  // 4 tile columns -> up to 4 ranks
  for (const std::size_t ranks : {1u, 2u, 4u})
    expectMatchesSimulation(kcfg, ranks, tiles, 12);
}

TEST(Domain, BitIdenticalAcrossThreadCounts) {
  const KhiConfig kcfg = smallKhi();
  const TileDepositConfig tiles{4, 8};
  ThreadCountGuard guard;

  guard.set(1);
  const auto base = makeKhi(kcfg, 2, tiles);
  base->run(12);
  const ParticleBuffer baseE = base->gatherSpecies(0);

  for (const int threads : {2, 8}) {
    guard.set(threads);
    const auto other = makeKhi(kcfg, 2, tiles);
    other->run(12);
    EXPECT_TRUE(bitEqual(other->fieldE(), base->fieldE())) << threads;
    EXPECT_TRUE(bitEqual(other->fieldB(), base->fieldB())) << threads;
    EXPECT_TRUE(sameParticleMultiset(other->gatherSpecies(0), baseE))
        << threads;
  }
}

TEST(Domain, RepeatedRunsIdenticalIncludingBufferOrder) {
  const KhiConfig kcfg = smallKhi();
  const TileDepositConfig tiles{4, 8};
  const auto a = makeKhi(kcfg, 4, tiles);
  const auto b = makeKhi(kcfg, 4, tiles);
  a->run(12);
  b->run(12);
  EXPECT_TRUE(bitEqual(a->fieldE(), b->fieldE()));
  EXPECT_TRUE(bitEqual(a->fieldB(), b->fieldB()));
  for (std::size_t s = 0; s < 2; ++s) {
    // Repetition is deterministic down to rank buffer order (handoff and
    // migration absorb order are fixed), so gathered columns match
    // elementwise — stronger than the multiset comparison.
    const ParticleBuffer pa = a->gatherSpecies(s);
    const ParticleBuffer pb = b->gatherSpecies(s);
    EXPECT_TRUE(columnBitEqual(pa.x, pb.x));
    EXPECT_TRUE(columnBitEqual(pa.ux, pb.ux));
    EXPECT_TRUE(columnBitEqual(pa.w, pb.w));
  }
}

TEST(Domain, MigrationAcrossPeriodicWrapMatchesSingleRank) {
  // Counter-streaming KHI plasma on a short-x box: the +-x streams cross
  // slab boundaries and the x=0 periodic seam within a few steps, so
  // this exercises migration in both directions including the wrap.
  // Conservation plus bit-identity with the (migration-free) one-rank
  // run pins the migration path end to end.
  KhiConfig kcfg = smallKhi();
  kcfg.grid = GridSpec{8, 16, 4, 0.25, 0.25, 0.25};
  kcfg.beta = 0.3;  // faster streams: guaranteed boundary crossings
  const TileDepositConfig tiles{2, 8};  // 4 columns on nx=8
  const auto probe = makeKhi(kcfg, 4, tiles);
  const std::size_t before = probe->gatherSpecies(0).size();
  expectMatchesSimulation(kcfg, 4, tiles, 15);
  probe->run(15);
  EXPECT_EQ(probe->gatherSpecies(0).size(), before);
  for (double x : probe->gatherSpecies(0).x) {
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 8.0);
  }
}

TEST(Domain, RaggedAndSingleCellSlabsMatchSingleRank) {
  // nx % ranks != 0 with a ragged last tile column: nx=17 over 3 ranks
  // on 4-cell columns -> slabs of 8, 5, and 4 cells.
  KhiConfig ragged = smallKhi();
  ragged.grid = GridSpec{17, 8, 4, 0.25, 0.25, 0.25};
  expectMatchesSimulation(ragged, 3, TileDepositConfig{4, 8}, 8);

  // One cell per rank: nx=4 over 4 ranks on single-cell tile columns.
  KhiConfig tiny = smallKhi();
  tiny.grid = GridSpec{4, 8, 4, 0.25, 0.25, 0.25};
  expectMatchesSimulation(tiny, 4, TileDepositConfig{1, 8}, 8);
}

TEST(Domain, SlabsAreWholeTileColumnsAndCoverGrid) {
  SimulationConfig sc;
  sc.grid = GridSpec{17, 8, 8, 0.25, 0.25, 0.25};
  sc.dt = 0.05;
  sc.ranks = 4;
  sc.tiles = TileDepositConfig{4, 8};  // 5 ragged columns for 4 ranks
  Simulation dist(sc);
  long prevEnd = 0;
  for (std::size_t r = 0; r < 4; ++r) {
    const auto [b, e] = dist.slabOf(r);
    EXPECT_EQ(b, prevEnd);
    EXPECT_GT(e, b);
    EXPECT_EQ(b % 4, 0) << "slab boundaries must sit on tile columns";
    prevEnd = e;
  }
  EXPECT_EQ(prevEnd, 17);
}

TEST(Domain, RejectsMoreRanksThanTileColumns) {
  SimulationConfig sc = boxConfig(4);  // 8-cell tiles give only 2 columns
  EXPECT_THROW(Simulation{sc}, ContractError);
  sc.tiles = TileDepositConfig{4, 8};
  EXPECT_NO_THROW(Simulation{sc});
  sc.ranks = 0;
  EXPECT_THROW(Simulation{sc}, ContractError);
}

TEST(Domain, OwnerOfRejectsOutOfDomainAndNaN) {
  Simulation dist(boxConfig(2));
  EXPECT_EQ(dist.ownerOf(0.0), 0u);
  EXPECT_EQ(dist.ownerOf(15.999), 1u);
  EXPECT_THROW(dist.ownerOf(-0.001), ContractError);
  EXPECT_THROW(dist.ownerOf(16.0), ContractError);
  EXPECT_THROW(dist.ownerOf(std::numeric_limits<double>::quiet_NaN()),
               ContractError);
  EXPECT_THROW(dist.ownerOf(std::numeric_limits<double>::infinity()),
               ContractError);
}

TEST(Domain, StepRejectsUnwrappedAddedPositions) {
  // Particles added through species(i) are validated on the calling
  // thread when the next step hands them to their owners.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Vec3d bad : {Vec3d{16.5, 1.0, 1.0}, Vec3d{1.0, -2.0, 1.0},
                          Vec3d{nan, 1.0, 1.0}, Vec3d{1.0, 1.0, nan},
                          Vec3d{1.0, 1.0, 8.0}}) {
    Simulation dist(boxConfig(2));
    dist.addSpecies({-1.0, 1.0, "e"});
    dist.species(0).push(bad, {}, 1.0);
    EXPECT_THROW(dist.step(), ContractError)
        << bad.x << ", " << bad.y << ", " << bad.z;
  }
  {
    // The valid case still lands every particle on its owner.
    Simulation dist(boxConfig(2));
    dist.addSpecies({-1.0, 1.0, "e"});
    dist.species(0).push({1.0, 1.0, 1.0}, {}, 1.0);
    dist.species(0).push({15.0, 1.0, 1.0}, {}, 2.0);
    dist.step();
    EXPECT_EQ(dist.gatherSpecies(0).size(), 2u);
    EXPECT_EQ(dist.species(0).size(), 1u);
  }
}

TEST(Domain, ParticlesAddedBetweenStepsReachTheirOwners) {
  const auto dist = makeKhi(smallKhi(), 2, TileDepositConfig{4, 8});
  dist->run(3);
  const std::size_t before = dist->gatherSpecies(0).size();
  // Five electrons spread over both slabs, pushed into rank 0's buffer.
  for (const double x : {0.5, 5.5, 8.5, 12.5, 15.5})
    dist->species(0).push({x, 3.0, 1.0}, {0.01, 0.0, 0.0}, 0.01);
  dist->step();
  const ParticleBuffer all = dist->gatherSpecies(0);
  EXPECT_EQ(all.size(), before + 5);
  // gatherSpecies concatenates the ranks in order: rank 0's buffer, then
  // rank 1's. Each holds only particles of its own slab.
  const std::size_t onRank0 = dist->species(0).size();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto [x0, x1] = dist->slabOf(i < onRank0 ? 0 : 1);
    EXPECT_GE(all.x[i], static_cast<double>(x0)) << i;
    EXPECT_LT(all.x[i], static_cast<double>(x1)) << i;
  }
}

TEST(Domain, PluginsAndBetaDotRequireOneRank) {
  struct NoopPlugin : Plugin {
    const char* name() const override { return "noop"; }
    void onStepEnd(Simulation&) override {}
  };
  Simulation dist(boxConfig(2));
  EXPECT_THROW(dist.addPlugin(std::make_shared<NoopPlugin>()), ContractError);
  SimulationConfig sc = boxConfig(2);
  sc.recordBetaDot = true;
  EXPECT_THROW(Simulation{sc}, ContractError);
  sc.ranks = 1;
  Simulation one(sc);
  EXPECT_NO_THROW(one.addPlugin(std::make_shared<NoopPlugin>()));
}

TEST(Domain, ThrowingRankReleasesItsPeers) {
  // A NaN momentum fails the fused pass's displacement check on the rank
  // that owns the particle. Its peer must not wait for it at the next
  // barrier: step() rethrows on the caller at every rank count.
  for (const std::size_t ranks : {1u, 2u}) {
    Simulation sim(boxConfig(ranks));
    sim.addSpecies({-1.0, 1.0, "e"});
    sim.species(0).push({2.5, 3.0, 3.0}, {0.1, 0.0, 0.0}, 1.0);
    sim.species(0).push({12.5, 3.0, 3.0},
                        {std::numeric_limits<double>::quiet_NaN(), 0.0, 0.0},
                        1.0);
    EXPECT_THROW(sim.step(), ContractError) << ranks << " ranks";
  }
}

}  // namespace
}  // namespace artsci::pic
