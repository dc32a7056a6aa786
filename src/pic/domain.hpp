/// \file domain.hpp
/// SPMD domain-decomposed PIC driver: the grid is split into x-slabs, one
/// per rank ("GCD"), with barrier-synchronized phases per step — the
/// shared-memory equivalent of PIConGPU's MPI domain decomposition with
/// next-neighbour halo exchange.
///
/// Each rank step runs the supercell-fused pipeline of fused_pipeline.hpp
/// on its own slab and is bit-reproducible:
/// the same run produces the same fields AND the same particle multiset
/// for any rank count, any OMP thread count, and any repetition. Three
/// ingredients make that hold:
///
///  1. *Tile-column-aligned slabs.* Rank slabs are whole columns of
///     deposit tiles (Config::tiles, clamped by the pipelines'
///     SupercellIndex, whose geometry the slab arithmetic reads), so
///     every tile's particles live on
///     exactly one rank and each tile accumulator is computed whole, by
///     one rank, in one canonical-order fold. Slab boundaries cutting
///     through a tile would split that fold into per-rank partial sums,
///     and grouped FP partial sums do not recombine to the sequential
///     fold's bits — alignment is what makes rank-count invariance
///     possible at all, hence the ctor's ranks <= tile-columns bound.
///  2. *Canonical in-tile order.* SupercellIndex::sort orders each tile
///     by the x-major phase-space key, so the per-tile scatter sequence
///     is a pure function of the particle multiset — independent of how
///     distribution and migration history ordered each rank's buffer.
///  3. *Collective fixed-order halo reduction.* After all ranks scatter
///     (concurrently, into rank-private accumulators), every rank runs
///     the single-rank reduce (DepositBuffer::reduce) on every rank's
///     accumulators in rank order, committing only the rows of its own
///     slab. Slabs are ascending runs of tile columns, so rank order is
///     ascending tile order: writes are disjoint across ranks, reads are
///     shared and immutable, and every J cell receives its per-tile
///     partial sums in exactly the order the single-rank reduce uses.
///     Halo rows that spill into a neighbour's slab are committed by that
///     neighbour from this rank's accumulator — the halo exchange, with
///     no atomics and no arrival-order dependence.
///
/// Migration is deterministic too: leaving particles go into
/// per-(source, destination) outboxes written only by the source rank and
/// absorbed in ascending source-rank order — no mutexes, no
/// scheduling-dependent arrival order.
///
/// The net per-step add sequence into every field cell equals the
/// single-rank Simulation's (same tiles config), so a DistributedSimulation
/// run is bit-identical to the fused Simulation whatever the rank count.
/// Enforced by tests/pic/test_domain.cpp.
///
/// The Fig 4 bench measures this driver's weak scaling: FOM vs ranks with
/// the grid grown proportionally.
#pragma once

#include <memory>

#include "common/thread_pool.hpp"
#include "pic/simulation.hpp"

namespace artsci::pic {

class DistributedSimulation {
 public:
  struct Config {
    GridSpec grid;
    double dt = 0.05;       ///< 1/omega_pe units; must satisfy CFL
    std::size_t ranks = 2;  ///< slab count; requires ranks <= x tile columns
    /// Deposit/supercell tile geometry. Rank slabs are whole tile
    /// columns, so ceil(nx / tileEdgeX) must be >= ranks (shrink
    /// tileEdgeX for extreme decompositions, e.g. one cell per rank).
    /// Must equal SimulationConfig::tiles when comparing against the
    /// single-rank driver bit-for-bit.
    TileDepositConfig tiles = {};
  };

  explicit DistributedSimulation(Config cfg);

  /// Register a species; returns its index (shared by all ranks).
  std::size_t addSpecies(const SpeciesInfo& info);

  /// Stage particles for the whole domain (any rank's slab); distribute()
  /// then hands each to its owner rank.
  ParticleBuffer& staging(std::size_t speciesIdx);
  /// Hand every staged particle to its owner rank. Throws ContractError
  /// if any staged position lies outside the domain (NaN included) on
  /// any axis — the distributed step assumes wrapped positions, and a
  /// silent clamp here would mean a wrong-rank particle later.
  void distribute();

  /// Run `steps` full PIC cycles on a rank team.
  void run(long steps);

  const GridSpec& grid() const { return cfg_.grid; }
  /// Number of rank slabs (thread-team size during run()).
  std::size_t ranks() const { return cfg_.ranks; }
  const VectorField& fieldE() const { return E_; }
  const VectorField& fieldB() const { return B_; }
  /// Current density deposited by the most recent step.
  const VectorField& currentJ() const { return J_; }
  const FieldSolver& solver() const { return solver_; }
  /// Number of completed steps.
  long stepIndex() const { return step_; }
  /// Accumulated FOM work counters (wall-clock dependent).
  const FomCounters& fom() const { return fom_; }

  /// Concatenate all ranks' particles of one species (diagnostics). Rank
  /// buffer order depends on migration history, so compare gathered
  /// buffers as multisets (e.g. after a canonical sort), not elementwise.
  ParticleBuffer gatherSpecies(std::size_t speciesIdx) const;

  /// Slab [begin, end) of cells in x owned by `rank` — whole tile
  /// columns, distributed base+remainder over ranks.
  std::pair<long, long> slabOf(std::size_t rank) const;

  /// Owner rank of a particle at x (cell units). Throws ContractError
  /// when x is outside [0, nx) — NaN included — instead of silently
  /// assigning a rank.
  std::size_t ownerOf(double xCell) const;

 private:
  struct Migrant {
    Vec3d pos, u;
    double w;
  };

  /// Tile geometry of every rank's pipeline (rank 0's index holds it).
  const SupercellIndex& geometry() const { return fused_[0]->index(); }
  /// Tile columns [begin, end) owned by `rank` (base+remainder split).
  std::pair<long, long> columnsOf(std::size_t rank) const;

  void stepRank(std::size_t rank, Barrier& barrier);

  Config cfg_;
  FieldSolver solver_;
  VectorField E_, B_, J_;
  std::vector<SpeciesInfo> speciesInfo_;
  std::vector<ParticleBuffer> staging_;
  /// particles_[rank][species]
  std::vector<std::vector<ParticleBuffer>> particles_;
  /// Per rank: the fused driver with its private tile accumulators, over
  /// the full grid geometry (only owned tiles are ever touched; the full
  /// extent keeps tile indices global, so every rank's reduce walks one
  /// shared tile order).
  std::vector<std::unique_ptr<FusedPipeline>> fused_;
  /// outbox_[src][dst][species], written only by rank `src`
  /// during its migrant scan, drained only by rank `dst` during the
  /// absorb phase (barriers separate the two) — deterministic migration
  /// with no locks.
  std::vector<std::vector<std::vector<std::vector<Migrant>>>> outbox_;
  long step_ = 0;
  FomCounters fom_;
};

}  // namespace artsci::pic
