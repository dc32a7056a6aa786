/// \file simulation.hpp
/// The PIC simulation: one full PIC cycle per step() (gather ->
/// Boris push -> move -> Esirkepov deposit -> FDTD update), a
/// PIConGPU-style plugin interface, and the Figure-of-Merit counters used
/// by the Fig 4 scaling benchmark (FOM = 0.9 * particle-updates/s + 0.1 *
/// cell-updates/s, the paper's weighting).
///
/// The grid is split into `SimulationConfig::ranks` x-slabs, one per rank
/// ("GCD"), with barrier-synchronized phases per step — the
/// shared-memory equivalent of PIConGPU's MPI domain decomposition with
/// next-neighbour halo exchange. Every rank runs the same rank step on its
/// slab: zero its J rows; per species, run the fused pipeline of
/// fused_pipeline.hpp into its own tile accumulators, post leaving
/// particles to their owners, and reduce every rank's accumulators over
/// its slab; absorb arrived particles; solve the fields on its slab. One
/// rank runs that step inline on the calling thread (no thread, no
/// migration scan); more ranks run it on a RankTeam kept for the
/// simulation's lifetime.
///
/// A step is bit-reproducible: the same run produces the same fields AND
/// the same particle multiset for any rank count, any OMP thread count,
/// and any repetition. Three ingredients make that hold:
///
///  1. *Tile-column-aligned slabs.* Rank slabs are whole columns of
///     deposit tiles (SimulationConfig::tiles, clamped by the pipelines'
///     SupercellIndex, whose geometry the slab arithmetic reads), so
///     every tile's particles live on exactly one rank and each tile
///     accumulator is computed whole, by one rank, in one canonical-order
///     fold. Slab boundaries cutting through a tile would split that fold
///     into per-rank partial sums, and grouped FP partial sums do not
///     recombine to the sequential fold's bits — alignment is what makes
///     rank-count invariance possible at all, hence the ctor's
///     ranks <= tile-columns bound.
///  2. *Canonical in-tile order.* SupercellIndex::sort orders each tile
///     by the x-major phase-space key, so the per-tile scatter sequence
///     is a pure function of the particle multiset — independent of how
///     handoff and migration history ordered each rank's buffer.
///  3. *Collective fixed-order halo reduction.* After all ranks scatter
///     (concurrently, into rank-private accumulators), every rank runs
///     the one reduce (DepositBuffer::reduce) on every rank's
///     accumulators in rank order, committing only the rows of its own
///     slab. Slabs are ascending runs of tile columns, so rank order is
///     ascending tile order: writes are disjoint across ranks, reads are
///     shared and immutable, and every J cell receives its per-tile
///     partial sums in exactly the order one rank's reduce over [0, nx)
///     uses. Halo rows that spill into a neighbour's slab are committed
///     by that neighbour from this rank's accumulator — the halo
///     exchange, with no atomics and no arrival-order dependence.
///
/// Migration is deterministic too: leaving particles go into
/// per-(source, destination) outboxes written only by the source rank and
/// absorbed in ascending source-rank order — no mutexes, no
/// scheduling-dependent arrival order. Enforced by
/// tests/pic/test_domain.cpp.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "pic/deposit.hpp"
#include "pic/fields.hpp"
#include "pic/fused_pipeline.hpp"
#include "pic/particles.hpp"

namespace artsci::pic {

class Simulation;

/// Output/analysis plugin, invoked after every completed step — the
/// pattern PIConGPU uses for the radiation plugin and openPMD output.
class Plugin {
 public:
  virtual ~Plugin() = default;
  /// Stable identifier for logs and diagnostics.
  virtual const char* name() const = 0;
  /// Called once after every completed step() with the synchronized state.
  virtual void onStepEnd(Simulation& sim) = 0;
};

struct SimulationConfig {
  GridSpec grid;
  double dt = 0.05;  ///< 1/omega_pe units; must satisfy CFL
  /// Record per-particle acceleration (d beta / dt) during the push; the
  /// far-field radiation plugin needs it (costs 3 extra arrays/species).
  /// Requires ranks == 1.
  bool recordBetaDot = false;
  /// Tile geometry of the fused particle pipeline (fused_pipeline.hpp),
  /// which owns the supercell sort and the deposit accumulators. The
  /// default 8x8 is right for production grids; tests shrink it to
  /// exercise edge cases. Tile geometry fixes the deterministic
  /// accumulation grouping, so it is part of the bit-level contract, not
  /// just a performance knob: runs compare bit-for-bit only on equal
  /// tiles.
  TileDepositConfig tiles = {};
  /// x-slab count (thread ranks). Slabs are whole tile columns, so ranks
  /// may not exceed ceil(nx / tileEdgeX) (shrink tiles.tileEdgeX for
  /// extreme decompositions, e.g. one cell per rank).
  std::size_t ranks = 1;
};

/// Accumulated work counters for the FOM (paper Fig 4). Wall-clock
/// dependent — deliberately outside the determinism guarantees.
struct FomCounters {
  double particleUpdates = 0;  ///< total particle pushes
  double cellUpdates = 0;      ///< total cell updates (FDTD)
  double seconds = 0;          ///< wall time spent in step()

  /// Weighted FOM in updates/s: 90% particle + 10% cell updates.
  double fom() const {
    return seconds > 0
               ? (0.9 * particleUpdates + 0.1 * cellUpdates) / seconds
               : 0.0;
  }
};

class Simulation {
 public:
  explicit Simulation(SimulationConfig cfg);

  /// Register a species; returns its index. Particles are added through
  /// species(i).push(...).
  std::size_t addSpecies(const SpeciesInfo& info);
  std::size_t speciesCount() const { return ranks_[0].species.size(); }
  /// Rank 0's buffer of species i — every particle on one rank. Particles
  /// appended to it between steps, anywhere in the domain, are handed to
  /// their owning ranks on the calling thread when the next step starts;
  /// that step throws ContractError if one lies outside the domain (NaN
  /// included). Read all ranks' particles through gatherSpecies().
  ParticleBuffer& species(std::size_t i);
  const ParticleBuffer& species(std::size_t i) const;

  /// Electric field, synchronized at integer steps (mutable for setup).
  VectorField& fieldE() { return E_; }
  const VectorField& fieldE() const { return E_; }
  /// Magnetic field, synchronized at integer steps (mutable for setup).
  VectorField& fieldB() { return B_; }
  const VectorField& fieldB() const { return B_; }
  /// Current density deposited by the most recent step().
  const VectorField& currentJ() const { return J_; }

  const GridSpec& grid() const { return cfg_.grid; }
  const FieldSolver& solver() const { return solver_; }
  double dt() const { return cfg_.dt; }
  /// Number of rank slabs.
  std::size_t ranks() const { return ranks_.size(); }
  /// Simulated time in 1/omega_pe.
  double time() const { return static_cast<double>(step_) * cfg_.dt; }

  /// Requires one rank: plugins read species(i) as the whole population.
  void addPlugin(std::shared_ptr<Plugin> plugin);

  /// One full PIC cycle; updates FOM counters and fires plugins. A rank
  /// that throws releases its peers and step() rethrows its exception;
  /// the simulation's state is then unspecified.
  void step();
  void run(long steps);

  const FomCounters& fom() const { return fom_; }

  /// Per-particle acceleration recorded in the last step (empty unless
  /// cfg.recordBetaDot). Index parallel to species(i)'s SoA columns.
  const std::vector<double>& betaDotX(std::size_t speciesIdx) const;
  const std::vector<double>& betaDotY(std::size_t speciesIdx) const;
  const std::vector<double>& betaDotZ(std::size_t speciesIdx) const;

  /// Total particle count across species and ranks.
  std::size_t particleCount() const;

  /// Concatenate all ranks' particles of one species (diagnostics). Rank
  /// buffer order depends on migration history, so compare gathered
  /// buffers of different rank counts as multisets (e.g. after a
  /// canonical sort), not elementwise.
  ParticleBuffer gatherSpecies(std::size_t speciesIdx) const;

  /// Slab [begin, end) of cells in x owned by `rank` — whole tile
  /// columns, distributed base+remainder over ranks.
  std::pair<long, long> slabOf(std::size_t rank) const;

  /// Owner rank of a particle at x (cell units). Throws ContractError
  /// when x is outside [0, nx) — NaN included — instead of silently
  /// assigning a rank.
  std::size_t ownerOf(double xCell) const;

 private:
  /// One slab's state, written during a step only by its own rank, except
  /// that rank `dst` drains `outbox[dst]` (barriers separate the two).
  struct Rank {
    explicit Rank(const SimulationConfig& cfg) : fused(cfg.grid, cfg.tiles) {}
    /// The slab's particles, one buffer per species.
    std::vector<ParticleBuffer> species;
    /// The fused particle update with its private tile accumulators, over
    /// the full grid geometry (only the slab's tiles are ever touched;
    /// the full extent keeps tile indices global, so every rank's reduce
    /// walks one shared tile order).
    FusedPipeline fused;
    /// outbox[dst][species]: particles leaving for rank `dst`.
    std::vector<std::vector<ParticleBuffer>> outbox;
  };

  /// Tile geometry of every rank's pipeline (rank 0's index holds it).
  const SupercellIndex& geometry() const { return ranks_[0].fused.index(); }
  /// Tile columns [begin, end) owned by `rank` (base+remainder split).
  std::pair<long, long> columnsOf(std::size_t rank) const;

  /// Move the particles appended to rank 0's buffers since the last step
  /// to their owning ranks, validating every position.
  void handOffAdded();
  /// One rank's share of a step; `barrier` spans every rank.
  void stepRank(std::size_t rank, Barrier& barrier);

  SimulationConfig cfg_;
  FieldSolver solver_;
  VectorField E_, B_, J_;
  std::vector<Rank> ranks_;
  /// Per species, rank 0's buffer size when the last step ended: the
  /// particles beyond it were added since (used when ranks > 1).
  std::vector<std::size_t> settled_;
  /// The rank threads when ranks > 1, for the simulation's lifetime.
  std::unique_ptr<RankTeam> team_;
  std::vector<std::shared_ptr<Plugin>> plugins_;
  long step_ = 0;
  FomCounters fom_;
  // recorded accelerations, per species
  struct Scratch {
    std::vector<double> bdx, bdy, bdz;
  };
  std::vector<Scratch> scratch_;
};

}  // namespace artsci::pic
