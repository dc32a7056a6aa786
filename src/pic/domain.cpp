#include "pic/domain.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/trace.hpp"

namespace artsci::pic {

DistributedSimulation::DistributedSimulation(Config cfg)
    : cfg_(cfg), solver_(cfg.grid), E_(cfg.grid), B_(cfg.grid), J_(cfg.grid) {
  ARTSCI_EXPECTS(cfg.ranks >= 1);
  ARTSCI_EXPECTS(cfg.grid.nx >= 1 && cfg.grid.ny >= 1 && cfg.grid.nz >= 1);
  ARTSCI_EXPECTS(solver_.cflNumber(cfg.dt) < 1.0);
  // Rank 0's pipeline is built first: its index owns the tile geometry
  // (edges clamped to the grid) that the slab arithmetic below reads.
  fused_.push_back(std::make_unique<FusedPipeline>(cfg.grid, cfg.tiles));
  const long tilesX = geometry().tilesX();
  ARTSCI_EXPECTS_MSG(static_cast<long>(cfg.ranks) <= tilesX,
                     "rank slabs are whole tile columns: need ranks <= "
                     "ceil(nx / tileEdgeX) = "
                         << tilesX
                         << "; shrink Config::tiles.tileEdgeX or ranks");
  particles_.resize(cfg.ranks);
  outbox_.resize(cfg.ranks);
  for (auto& perDst : outbox_) perDst.resize(cfg.ranks);
  for (std::size_t r = 1; r < cfg.ranks; ++r)
    fused_.push_back(std::make_unique<FusedPipeline>(cfg.grid, cfg.tiles));
}

std::size_t DistributedSimulation::addSpecies(const SpeciesInfo& info) {
  speciesInfo_.push_back(info);
  staging_.emplace_back(info);
  for (std::size_t r = 0; r < cfg_.ranks; ++r) {
    particles_[r].emplace_back(info);
    for (std::size_t d = 0; d < cfg_.ranks; ++d) outbox_[r][d].emplace_back();
  }
  return speciesInfo_.size() - 1;
}

ParticleBuffer& DistributedSimulation::staging(std::size_t speciesIdx) {
  ARTSCI_EXPECTS(speciesIdx < staging_.size());
  return staging_[speciesIdx];
}

std::pair<long, long> DistributedSimulation::columnsOf(std::size_t rank) const {
  ARTSCI_EXPECTS(rank < cfg_.ranks);
  const long tilesX = geometry().tilesX();
  const long base = tilesX / static_cast<long>(cfg_.ranks);
  const long rem = tilesX % static_cast<long>(cfg_.ranks);
  const long r = static_cast<long>(rank);
  const long begin = r * base + std::min(r, rem);
  return {begin, begin + base + (r < rem ? 1 : 0)};
}

std::pair<long, long> DistributedSimulation::slabOf(std::size_t rank) const {
  const auto [c0, c1] = columnsOf(rank);
  const long edge = geometry().tileEdgeX();
  return {c0 * edge, std::min(cfg_.grid.nx, c1 * edge)};
}

std::size_t DistributedSimulation::ownerOf(double xCell) const {
  const double nx = static_cast<double>(cfg_.grid.nx);
  // NaN fails both comparisons, so it throws here too instead of being
  // silently assigned to a rank (the pre-fix behavior fell back to the
  // last rank for anything out of range).
  ARTSCI_EXPECTS_MSG(xCell >= 0.0 && xCell < nx,
                     "particle x position "
                         << xCell << " outside the domain [0, " << nx
                         << ") — positions must be wrapped and finite");
  const long column =
      static_cast<long>(std::floor(xCell)) / geometry().tileEdgeX();
  std::size_t rank = 0;
  while (columnsOf(rank).second <= column) ++rank;
  return rank;
}

void DistributedSimulation::distribute() {
  const double ny = static_cast<double>(cfg_.grid.ny);
  const double nz = static_cast<double>(cfg_.grid.nz);
  for (std::size_t s = 0; s < staging_.size(); ++s) {
    ParticleBuffer& src = staging_[s];
    for (std::size_t i = 0; i < src.size(); ++i) {
      // ownerOf validates x; y/z get the same out-of-domain contract so
      // a bad stage fails here, not steps later inside a rank's sort.
      ARTSCI_EXPECTS_MSG(src.y[i] >= 0.0 && src.y[i] < ny &&
                             src.z[i] >= 0.0 && src.z[i] < nz,
                         "staged particle position outside the domain — "
                         "wrap positions before distribute()");
      const std::size_t owner = ownerOf(src.x[i]);
      particles_[owner][s].push({src.x[i], src.y[i], src.z[i]},
                                {src.ux[i], src.uy[i], src.uz[i]}, src.w[i]);
    }
    src.clear();
  }
}

ParticleBuffer DistributedSimulation::gatherSpecies(
    std::size_t speciesIdx) const {
  ARTSCI_EXPECTS(speciesIdx < speciesInfo_.size());
  ParticleBuffer out(speciesInfo_[speciesIdx]);
  for (std::size_t r = 0; r < cfg_.ranks; ++r)
    out.append(particles_[r][speciesIdx]);
  return out;
}

void DistributedSimulation::stepRank(std::size_t rank, Barrier& barrier) {
  const GridSpec& g = cfg_.grid;
  const auto [x0, x1] = slabOf(rank);
  const double dt = cfg_.dt;

  // Zero this rank's J slab. No barrier around it: every J row is
  // written only by its owning rank for the whole step (this zeroing and
  // the row-restricted reduction) and read only by its owner (updateE),
  // so J rows are rank-private memory.
  for (long i = x0; i < x1; ++i) {
    for (long j = 0; j < g.ny; ++j) {
      for (long k = 0; k < g.nz; ++k) {
        const long idx = J_.x.index(i, j, k);
        J_.x.flat(idx) = 0.0;
        J_.y.flat(idx) = 0.0;
        J_.z.flat(idx) = 0.0;
      }
    }
  }

  // Species loop mirrors Simulation::step()'s: each species' currents
  // are fully reduced into J before the next species scatters, so every
  // cell's add sequence is (species, tile)-ordered exactly like the
  // single-rank driver's.
  for (std::size_t s = 0; s < speciesInfo_.size(); ++s) {
    // Scatter phase: fused push + scatter into this rank's private tile
    // accumulators (concurrent across ranks — E/B are read-only here),
    // then scan migrants into the per-destination outboxes. Slab
    // ownership is tile-column-aligned, so every particle of this rank
    // scatters into a tile this rank owns.
    ParticleBuffer& p = particles_[rank][s];
    {
      TRACE_SCOPE("domain", "scatter");
      fused_[rank]->pushAndScatter(p, E_, B_, dt);
      std::vector<std::size_t> leaving;
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (p.x[i] < static_cast<double>(x0) ||
            p.x[i] >= static_cast<double>(x1))
          leaving.push_back(i);
      }
      // Outbox order is ascending post-sort index — deterministic because
      // the canonical sort just made the buffer order multiset-determined.
      for (std::size_t i : leaving)
        outbox_[rank][ownerOf(p.x[i])][s].push_back(
            Migrant{{p.x[i], p.y[i], p.z[i]},
                    {p.ux[i], p.uy[i], p.uz[i]},
                    p.w[i]});
      for (auto it = leaving.rbegin(); it != leaving.rend(); ++it)
        p.swapRemove(*it);
    }
    barrier.arriveAndWait();

    // Reduction phase — the deterministic halo exchange. Every rank runs
    // the single-rank reduce over its own slab's rows, on every rank's
    // accumulators in rank order: concurrent writes are disjoint,
    // accumulator reads are immutable, and since slabs are ascending
    // runs of tile columns, rank order is ascending tile order — each J
    // cell receives its per-tile sums in the single-rank reduce order. A
    // tile's halo rows that spill into this slab are committed here from
    // the owner's accumulator. Occupancy comes from each owner's
    // post-sort index, which marks only tiles of its own slab.
    {
      TRACE_SCOPE("domain", "halo_reduce");
      for (const auto& owner : fused_)
        owner->accumulators().reduce(J_, owner->index(), x0, x1);
    }
    // Second barrier: the next species' scatter (or the step end) must
    // not overwrite accumulators another rank is still reducing from.
    barrier.arriveAndWait();
  }

  // Absorb migrants in ascending source-rank order — a fixed arrival
  // order, so no thread timing leaks into rank buffer order (and from
  // there into downstream FP sums). Migrants deposited on their source
  // rank this step; they join the destination's buffer for the next one.
  {
    TRACE_SCOPE("domain", "migrate");
    for (std::size_t src = 0; src < cfg_.ranks; ++src) {
      for (std::size_t s = 0; s < speciesInfo_.size(); ++s) {
        auto& box = outbox_[src][rank][s];
        for (const Migrant& m : box) particles_[rank][s].push(m.pos, m.u, m.w);
        box.clear();
      }
    }
  }
  barrier.arriveAndWait();

  // Field update on own slab, globally synchronized between sub-steps so
  // halo reads see completed neighbour updates. Cell updates are
  // per-cell independent, so slab-restricted updates are bit-identical
  // to the single-rank whole-grid calls.
  TRACE_SCOPE("domain", "field_solve");
  solver_.updateBHalf(B_, E_, dt, x0, x1);
  barrier.arriveAndWait();
  solver_.updateE(E_, B_, J_, dt, x0, x1);
  barrier.arriveAndWait();
  solver_.updateBHalf(B_, E_, dt, x0, x1);
  barrier.arriveAndWait();
}

void DistributedSimulation::run(long steps) {
  ARTSCI_EXPECTS(steps >= 0);
  Barrier barrier(cfg_.ranks);
  Timer timer;
#ifdef _OPENMP
  // libgomp ICVs do not propagate to fresh pthreads: each rank thread
  // resets its own team size below so `ranks` inner OpenMP teams don't
  // oversubscribe the machine. Computed here on the main thread, where
  // the user's OMP_NUM_THREADS setting is visible.
  const int perRankThreads =
      std::max(1, omp_get_max_threads() / static_cast<int>(cfg_.ranks));
#endif
  runRankTeam(cfg_.ranks, [&](std::size_t rank) {
#ifdef _OPENMP
    omp_set_num_threads(perRankThreads);
#endif
    // Claim the rank for trace attribution: the rank thread and its whole
    // OpenMP team (libgomp keeps one pool per master thread, so the same
    // workers serve every later parallel region) group under one Chrome
    // "process" per rank in the flushed trace.
    obs::TraceRecorder::instance().setThreadRank(static_cast<int>(rank));
    obs::TraceRecorder::instance().setThreadName("pic rank " +
                                                 std::to_string(rank));
#ifdef _OPENMP
#pragma omp parallel
    {
      obs::TraceRecorder::instance().setThreadRank(static_cast<int>(rank));
      obs::TraceRecorder::instance().setThreadName(
          "pic rank " + std::to_string(rank) + " omp " +
          std::to_string(omp_get_thread_num()));
    }
#endif
    for (long s = 0; s < steps; ++s) stepRank(rank, barrier);
  });
  // Work accounting for the FOM.
  double particles = 0;
  for (std::size_t r = 0; r < cfg_.ranks; ++r)
    for (const auto& p : particles_[r])
      particles += static_cast<double>(p.size());
  fom_.particleUpdates += particles * static_cast<double>(steps);
  fom_.cellUpdates += static_cast<double>(cfg_.grid.cellCount() * steps);
  fom_.seconds += timer.seconds();
  step_ += steps;
}

}  // namespace artsci::pic
