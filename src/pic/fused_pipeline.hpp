/// \file fused_pipeline.hpp
/// Supercell-fused particle pipeline (PIConGPU's supercell design
/// [Hoenig et al. 2010] applied to the whole particle update): one
/// supercell sort per step, then a single per-tile pass that runs the
/// tile's particles in blocks of 64, each block in phases:
///  (1) stage the staggered (floor, frac) pairs of every particle,
///  (2) gather E/B for the whole block into SoA arrays from per-tile
///      halo-padded read caches — precomputed strides, no per-access
///      periodic-wrap arithmetic,
///  (3) run the Boris push, gamma, d(beta)/dt, the move and the
///      displacement check for the whole block (vectorized across
///      particles),
///  (4) scatter Esirkepov current particle by particle, in sorted order,
///      straight into the tile's private accumulator in the pipeline's
///      own DepositBuffer, and
///  (5) wrap positions in place.
///
/// The block kernel is built in per-ISA clones (common/isa_clones.hpp:
/// AVX-512, x86-64-v3, baseline) from a file compiled with FP contraction
/// and math-errno off, so every lane runs exactly the scalar operation
/// sequence and the bits do not depend on the clone that runs. One pass
/// over the population per step: no separate gather, deposit and wrap
/// sweeps, and no old-position snapshot vectors. bench/particle_pipeline.cpp
/// reports its particle updates/s on the quick-demo KHI.
///
/// Determinism: the sort orders each tile canonically by phase-space key
/// (a pure function of the particle multiset — see SupercellIndex), tile
/// caches are copies, per-particle arithmetic is that of the scalar
/// kernels (interpolate.hpp / pusher.hpp, and the Esirkepov reference
/// loops), per-tile scatter order is the sorted order, and the reduction
/// is the fixed-order DepositBuffer reduce — so a fused step is
/// bit-identical across OMP thread counts, schedules, ISA clones and
/// repeated runs, bit-identical to the scalar reference step of
/// tests/pic/reference_step.hpp (sort, scalar gather/push/move,
/// reference scatter, reduce, wrap), and rank-count invariant when a
/// Simulation runs one pipeline per rank slab (pic/simulation.hpp).
/// Enforced by tests/pic/test_fused_pipeline.cpp and
/// tests/pic/test_domain.cpp.
#pragma once

#include <vector>

#include "pic/deposit_buffer.hpp"
#include "pic/grid.hpp"
#include "pic/particles.hpp"

namespace artsci::pic {

/// Runs the fused per-tile pass — Simulation's particle update. Owns
/// the supercell index used for the per-step sort and the DepositBuffer
/// its current is scattered into, both built from one TileDepositConfig,
/// so their geometry agrees by construction. Not thread-safe (internally
/// OpenMP-parallel): one instance per rank of a Simulation.
class FusedPipeline {
 public:
  explicit FusedPipeline(const GridSpec& grid, TileDepositConfig tiles = {});

  /// One fused update of every particle in `p`: sort by supercell, then
  /// per tile gather/push/move/deposit/wrap, leaving the tile
  /// accumulators() populated for the occupied tiles of index(). J is
  /// not touched: the caller adds the accumulators into J with
  /// `accumulators().reduce(J, index(), xBegin, xEnd)`, over each rank's
  /// slab ([0, nx) on one rank; pic/simulation.hpp).
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
