/// \file fused_pipeline.hpp
/// Supercell-fused particle pipeline (PIConGPU's supercell design
/// [Hoenig et al. 2010] applied to the whole particle update): one stable
/// counting sort per step, then a single per-tile pass that
///  (a) gathers E/B from per-tile halo-padded read caches — precomputed
///      strides, no per-access periodic-wrap arithmetic,
///  (b) runs the Boris push and the move,
///  (c) scatters Esirkepov current straight into the tile's private
///      accumulator in the pipeline's own DepositBuffer, and
///  (d) wraps positions in place.
///
/// One pass over the population per step: no separate gather, deposit
/// and wrap sweeps, and no old-position snapshot vectors — old positions
/// live in the tile loop's registers. bench/particle_pipeline.cpp reports
/// its particle updates/s on the quick-demo KHI.
///
/// Determinism: the sort orders each tile canonically by phase-space key
/// (a pure function of the particle multiset — see SupercellIndex), tile
/// caches are copies, per-particle arithmetic is that of the scalar
/// kernels (interpolate.hpp / pusher.hpp, and the Esirkepov reference
/// loops), per-tile scatter order is the sorted order, and the reduction
/// is the fixed-order DepositBuffer reduce — so a fused step is
/// bit-identical across OMP thread counts, schedules, and repeated runs,
/// bit-identical to the scalar reference step of
/// tests/pic/reference_step.hpp (sort, scalar gather/push/move,
/// reference scatter, reduce, wrap), and bit-identical to the
/// rank-decomposed driver for any rank count (pic/domain.hpp). Enforced
/// by tests/pic/test_fused_pipeline.cpp and tests/pic/test_domain.cpp.
#pragma once

#include <vector>

#include "pic/deposit_buffer.hpp"
#include "pic/grid.hpp"
#include "pic/particles.hpp"

namespace artsci::pic {

/// Driver of the fused per-tile pass — the particle update of Simulation
/// and DistributedSimulation. Owns the supercell index used for the
/// per-step sort and the DepositBuffer its current is scattered into,
/// both built from one TileDepositConfig, so their geometry agrees by
/// construction. Not thread-safe (internally OpenMP-parallel): one
/// instance per simulation driver (per rank in the distributed one).
class FusedPipeline {
 public:
  explicit FusedPipeline(const GridSpec& grid, TileDepositConfig tiles = {});

  /// One fused update of every particle in `p`: sort by supercell, then
  /// per tile gather/push/move/deposit/wrap, leaving the tile
  /// accumulators() populated for the occupied tiles of index(). J is
  /// not touched: the caller adds the accumulators into J with
  /// `accumulators().reduce(J, index(), xBegin, xEnd)`, over [0, nx) on
  /// one rank or over each rank's slab (pic/domain.hpp).
  /// Positions must be wrapped into [0, n) on entry (throws otherwise);
  /// per-particle displacement must stay under one cell per axis (the
  /// CFL bound guarantees this — violated means dt is invalid, throws).
  /// `bdx/bdy/bdz`, when non-null, receive d(beta)/dt per particle,
  /// index-parallel to the *post-sort* SoA columns (all three or none).
  void pushAndScatter(ParticleBuffer& p, const VectorField& E,
                      const VectorField& B, double dt,
                      std::vector<double>* bdx = nullptr,
                      std::vector<double>* bdy = nullptr,
                      std::vector<double>* bdz = nullptr);

  /// Post-sort supercell occupancy of the most recent pushAndScatter;
  /// also the tile geometry (edges clamped to the grid).
  const SupercellIndex& index() const { return index_; }
  /// Tile accumulators of the most recent pushAndScatter (valid for the
  /// tiles index() marks occupied).
  const DepositBuffer& accumulators() const { return accum_; }

 private:
  SupercellIndex index_;
  DepositBuffer accum_;
  /// Per-thread E/B tile-cache arenas (grow-only, reused across steps so
  /// the hot loop never allocates). Contents are fully rewritten per
  /// tile, so reuse cannot leak state between tiles or steps.
  std::vector<std::vector<double>> caches_;
};

}  // namespace artsci::pic
