#include "pic/simulation.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cmath>
#include <string>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace artsci::pic {
namespace {

/// Each rank's OpenMP team: an equal share of the calling thread's, so
/// that the rank teams together fit the caller's cores. Read on the
/// caller, where the user's setting is visible: libgomp ICVs do not
/// propagate to other threads, so each rank sets its own.
int rankTeamThreads(std::size_t ranks) {
#ifdef _OPENMP
  return std::max(1, omp_get_max_threads() / static_cast<int>(ranks));
#else
  (void)ranks;
  return 1;
#endif
}

void setTeamThreads(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

}  // namespace

Simulation::Simulation(SimulationConfig cfg)
    : cfg_(cfg), solver_(cfg.grid), E_(cfg.grid), B_(cfg.grid), J_(cfg.grid) {
  const double cfl = solver_.cflNumber(cfg_.dt);
  ARTSCI_EXPECTS_MSG(cfl < 1.0, "CFL violation: dt=" << cfg_.dt
                                                     << " gives CFL " << cfl);
  ARTSCI_EXPECTS(cfg.ranks >= 1);
  ARTSCI_EXPECTS_MSG(cfg.ranks == 1 || !cfg.recordBetaDot,
                     "recordBetaDot requires one rank");
  ranks_.reserve(cfg.ranks);
  // Rank 0's pipeline is built first: its index owns the tile geometry
  // (edges clamped to the grid) that the slab arithmetic reads.
  ranks_.emplace_back(cfg);
  const long tilesX = geometry().tilesX();
  ARTSCI_EXPECTS_MSG(static_cast<long>(cfg.ranks) <= tilesX,
                     "rank slabs are whole tile columns: need ranks <= "
                     "ceil(nx / tileEdgeX) = "
                         << tilesX << "; shrink tiles.tileEdgeX or ranks");
  for (std::size_t r = 1; r < cfg.ranks; ++r) ranks_.emplace_back(cfg);
  for (Rank& rank : ranks_) rank.outbox.resize(cfg.ranks);
  if (cfg.ranks == 1) return;

  team_ = std::make_unique<RankTeam>(cfg.ranks);
  // Claim each rank for trace attribution: the rank thread and its whole
  // OpenMP team (libgomp keeps one pool per master thread, so the same
  // workers serve every later parallel region) group under one Chrome
  // "process" per rank in the flushed trace.
  const int threads = rankTeamThreads(cfg.ranks);
  team_->run([threads](std::size_t rank) {
    auto& rec = obs::TraceRecorder::instance();
    rec.setThreadRank(static_cast<int>(rank));
    rec.setThreadName("pic rank " + std::to_string(rank));
    setTeamThreads(threads);
#ifdef _OPENMP
#pragma omp parallel
    {
      obs::TraceRecorder::instance().setThreadRank(static_cast<int>(rank));
      obs::TraceRecorder::instance().setThreadName(
          "pic rank " + std::to_string(rank) + " omp " +
          std::to_string(omp_get_thread_num()));
    }
#endif
  });
}

std::size_t Simulation::addSpecies(const SpeciesInfo& info) {
  for (Rank& rank : ranks_) {
    rank.species.emplace_back(info);
    for (auto& perSpecies : rank.outbox) perSpecies.emplace_back(info);
  }
  settled_.push_back(0);
  scratch_.emplace_back();
  return speciesCount() - 1;
}

ParticleBuffer& Simulation::species(std::size_t i) {
  ARTSCI_EXPECTS(i < speciesCount());
  return ranks_[0].species[i];
}

const ParticleBuffer& Simulation::species(std::size_t i) const {
  ARTSCI_EXPECTS(i < speciesCount());
  return ranks_[0].species[i];
}

void Simulation::addPlugin(std::shared_ptr<Plugin> plugin) {
  ARTSCI_EXPECTS(plugin != nullptr);
  ARTSCI_EXPECTS_MSG(ranks_.size() == 1, "plugins require one rank");
  plugins_.push_back(std::move(plugin));
}

std::size_t Simulation::particleCount() const {
  std::size_t n = 0;
  for (const Rank& rank : ranks_)
    for (const auto& s : rank.species) n += s.size();
  return n;
}

ParticleBuffer Simulation::gatherSpecies(std::size_t speciesIdx) const {
  ParticleBuffer out(species(speciesIdx).info());
  for (const Rank& rank : ranks_) out.append(rank.species[speciesIdx]);
  return out;
}

const std::vector<double>& Simulation::betaDotX(std::size_t s) const {
  ARTSCI_EXPECTS(s < scratch_.size());
  return scratch_[s].bdx;
}
const std::vector<double>& Simulation::betaDotY(std::size_t s) const {
  ARTSCI_EXPECTS(s < scratch_.size());
  return scratch_[s].bdy;
}
const std::vector<double>& Simulation::betaDotZ(std::size_t s) const {
  ARTSCI_EXPECTS(s < scratch_.size());
  return scratch_[s].bdz;
}

std::pair<long, long> Simulation::columnsOf(std::size_t rank) const {
  ARTSCI_EXPECTS(rank < ranks_.size());
  const long tilesX = geometry().tilesX();
  const long count = static_cast<long>(ranks_.size());
  const long base = tilesX / count;
  const long rem = tilesX % count;
  const long r = static_cast<long>(rank);
  const long begin = r * base + std::min(r, rem);
  return {begin, begin + base + (r < rem ? 1 : 0)};
}

std::pair<long, long> Simulation::slabOf(std::size_t rank) const {
  const auto [c0, c1] = columnsOf(rank);
  const long edge = geometry().tileEdgeX();
  return {c0 * edge, std::min(cfg_.grid.nx, c1 * edge)};
}

std::size_t Simulation::ownerOf(double xCell) const {
  const double nx = static_cast<double>(cfg_.grid.nx);
  // NaN fails both comparisons, so it throws here too instead of being
  // silently assigned to a rank.
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

void Simulation::handOffAdded() {
  const double ny = static_cast<double>(cfg_.grid.ny);
  const double nz = static_cast<double>(cfg_.grid.nz);
  for (std::size_t s = 0; s < speciesCount(); ++s) {
    ParticleBuffer& added = ranks_[0].species[s];
    // Descending, so that swapRemove only ever pulls in a particle this
    // loop has already kept on rank 0.
    for (std::size_t i = added.size(); i-- > settled_[s];) {
      // ownerOf validates x; y and z get the same out-of-domain contract,
      // so that a bad position fails here, not inside a rank's sort.
      ARTSCI_EXPECTS_MSG(added.y[i] >= 0.0 && added.y[i] < ny &&
                             added.z[i] >= 0.0 && added.z[i] < nz,
                         "added particle position outside the domain — "
                         "positions must be wrapped and finite");
      const std::size_t owner = ownerOf(added.x[i]);
      if (owner == 0) continue;
      ranks_[owner].species[s].push({added.x[i], added.y[i], added.z[i]},
                                    {added.ux[i], added.uy[i], added.uz[i]},
                                    added.w[i]);
      added.swapRemove(i);
    }
  }
}

void Simulation::stepRank(std::size_t rank, Barrier& barrier) {
  const GridSpec& g = cfg_.grid;
  const auto [x0, x1] = slabOf(rank);
  const double dt = cfg_.dt;
  const bool alone = ranks_.size() == 1;
  Rank& self = ranks_[rank];

  // Zero this rank's J rows. No barrier around it: every J row is written
  // only by its owning rank for the whole step (this zeroing and the
  // row-restricted reduction) and read only by its owner (updateE), so J
  // rows are rank-private memory.
  const long row = g.ny * g.nz;
  for (Field3* c : {&J_.x, &J_.y, &J_.z})
    std::fill(c->raw().begin() + x0 * row, c->raw().begin() + x1 * row, 0.0);

  // Each species' currents are fully reduced into J before the next
  // species scatters, so every cell's add sequence is (species, tile)
  // ordered whatever the rank count.
  for (std::size_t s = 0; s < speciesCount(); ++s) {
    // Scatter phase: fused push + scatter into this rank's private tile
    // accumulators (concurrent across ranks — E/B are read-only here).
    // Slab ownership is tile-column-aligned, so every particle of this
    // rank scatters into a tile this rank owns.
    ParticleBuffer& p = self.species[s];
    Scratch& scr = scratch_[s];
    const bool record = cfg_.recordBetaDot;
    self.fused.pushAndScatter(p, E_, B_, dt, record ? &scr.bdx : nullptr,
                              record ? &scr.bdy : nullptr,
                              record ? &scr.bdz : nullptr);
    if (!alone) {
      TRACE_SCOPE("pic", "migrate");
      const auto leaves = [&p, x0 = static_cast<double>(x0),
                           x1 = static_cast<double>(x1)](std::size_t i) {
        return p.x[i] < x0 || p.x[i] >= x1;
      };
      // Outbox order is ascending post-sort index — deterministic because
      // the canonical sort just made the buffer order multiset-determined.
      for (std::size_t i = 0; i < p.size(); ++i)
        if (leaves(i))
          self.outbox[ownerOf(p.x[i])][s].push({p.x[i], p.y[i], p.z[i]},
                                               {p.ux[i], p.uy[i], p.uz[i]},
                                               p.w[i]);
      // Descending, so that swapRemove only pulls in a particle that
      // stays.
      for (std::size_t i = p.size(); i-- > 0;)
        if (leaves(i)) p.swapRemove(i);
    }
    barrier.arriveAndWait();

    // Reduction phase — the deterministic halo exchange (ingredient 3 of
    // simulation.hpp). Occupancy comes from each owner's post-sort
    // index, which marks only tiles of its own slab.
    {
      TRACE_SCOPE("pic", "reduce");
      for (const Rank& owner : ranks_)
        owner.fused.accumulators().reduce(J_, owner.fused.index(), x0, x1);
    }
    // The next species' scatter (or the step end) must not overwrite
    // accumulators another rank is still reducing from.
    barrier.arriveAndWait();
  }

  // Absorb migrants in ascending source-rank order — a fixed arrival
  // order, so no thread timing leaks into rank buffer order. Migrants
  // deposited on their source rank this step; they join the destination's
  // buffer for the next one.
  if (!alone) {
    TRACE_SCOPE("pic", "migrate");
    for (Rank& src : ranks_) {
      for (std::size_t s = 0; s < speciesCount(); ++s) {
        self.species[s].append(src.outbox[rank][s]);
        src.outbox[rank][s].clear();
      }
    }
  }

  // Field update on own slab, globally synchronized between sub-steps so
  // halo reads see completed neighbour updates. Cell updates are per-cell
  // independent, so slab-restricted updates are bit-identical to
  // whole-grid ones.
  TRACE_SCOPE("pic", "field_solve");
  solver_.updateBHalf(B_, E_, dt, x0, x1);
  barrier.arriveAndWait();
  solver_.updateE(E_, B_, J_, dt, x0, x1);
  barrier.arriveAndWait();
  solver_.updateBHalf(B_, E_, dt, x0, x1);
}

void Simulation::step() {
  TRACE_SCOPE("pic", "step");
  FAULT_POINT("pic.step");
  // Resolved once; the registry owns the metrics for the process lifetime.
  static obs::Counter& steps = obs::Registry::global().counter("pic.steps");
  static obs::Counter& updates =
      obs::Registry::global().counter("pic.particle_updates");
  static obs::Gauge& rate =
      obs::Registry::global().gauge("pic.particles_per_s");

  Timer timer;
  if (team_ == nullptr) {
    // One rank: every barrier has one party and returns at once.
    Barrier alone(1);
    stepRank(0, alone);
  } else {
    handOffAdded();
    const int threads = rankTeamThreads(ranks_.size());
    Barrier barrier(ranks_.size());
    team_->run([&](std::size_t rank) {
      setTeamThreads(threads);
      try {
        stepRank(rank, barrier);
      } catch (...) {
        // Release the peers waiting for this rank; the team rethrows.
        barrier.fail(std::current_exception());
        throw;
      }
    });
    for (std::size_t s = 0; s < speciesCount(); ++s)
      settled_[s] = ranks_[0].species[s].size();
  }
  ++step_;

  const std::size_t particles = particleCount();
  const double seconds = timer.seconds();
  fom_.particleUpdates += static_cast<double>(particles);
  fom_.cellUpdates += static_cast<double>(cfg_.grid.cellCount());
  fom_.seconds += seconds;
  steps.add();
  updates.add(particles);
  if (seconds > 0) rate.set(static_cast<double>(particles) / seconds);

  for (const auto& plugin : plugins_) plugin->onStepEnd(*this);
}

void Simulation::run(long steps) {
  ARTSCI_EXPECTS(steps >= 0);
  for (long s = 0; s < steps; ++s) step();
}

}  // namespace artsci::pic
