/// \file simulation.hpp
/// The single-rank PIC simulation driver: one full PIC cycle per step()
/// (gather -> Boris push -> move -> Esirkepov deposit -> FDTD update), a
/// PIConGPU-style plugin interface, and the Figure-of-Merit counters used
/// by the Fig 4 scaling benchmark (FOM = 0.9 * particle-updates/s + 0.1 *
/// cell-updates/s, the paper's weighting).
#pragma once

#include <memory>
#include <vector>

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
  bool recordBetaDot = false;
  /// Tile geometry of the fused particle pipeline (fused_pipeline.hpp),
  /// which owns the supercell sort and the deposit accumulators. The
  /// default 8x8 is right for production grids; tests shrink it to
  /// exercise edge cases. Must match DistributedSimulation::Config::tiles
  /// when comparing the two drivers bit-for-bit (tile geometry fixes the
  /// deterministic accumulation grouping, so it is part of the bit-level
  /// contract, not just a performance knob).
  TileDepositConfig tiles = {};
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
  std::size_t speciesCount() const { return species_.size(); }
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
  /// Number of completed steps.
  long stepIndex() const { return step_; }
  /// Simulated time in 1/omega_pe.
  double time() const { return static_cast<double>(step_) * cfg_.dt; }

  void addPlugin(std::shared_ptr<Plugin> plugin);

  /// One full PIC cycle; updates FOM counters and fires plugins.
  void step();
  void run(long steps);

  const FomCounters& fom() const { return fom_; }

  /// Per-particle acceleration recorded in the last step (empty unless
  /// cfg.recordBetaDot). Index parallel to species(i)'s SoA columns.
  const std::vector<double>& betaDotX(std::size_t speciesIdx) const;
  const std::vector<double>& betaDotY(std::size_t speciesIdx) const;
  const std::vector<double>& betaDotZ(std::size_t speciesIdx) const;

  /// Total particle count across species.
  std::size_t particleCount() const;

 private:
  SimulationConfig cfg_;
  FieldSolver solver_;
  /// The particle update: supercell sort + one per-tile pass per species,
  /// into tile accumulators reused every step.
  FusedPipeline fused_;
  VectorField E_, B_, J_;
  std::vector<ParticleBuffer> species_;
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
