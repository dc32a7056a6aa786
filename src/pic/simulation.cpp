#include "pic/simulation.hpp"

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace artsci::pic {

Simulation::Simulation(SimulationConfig cfg)
    : cfg_(cfg),
      solver_(cfg.grid),
      fused_(cfg.grid, cfg.tiles),
      E_(cfg.grid),
      B_(cfg.grid),
      J_(cfg.grid) {
  const double cfl = solver_.cflNumber(cfg_.dt);
  ARTSCI_EXPECTS_MSG(cfl < 1.0, "CFL violation: dt=" << cfg_.dt
                                                     << " gives CFL " << cfl);
}

std::size_t Simulation::addSpecies(const SpeciesInfo& info) {
  species_.emplace_back(info);
  scratch_.emplace_back();
  return species_.size() - 1;
}

ParticleBuffer& Simulation::species(std::size_t i) {
  ARTSCI_EXPECTS(i < species_.size());
  return species_[i];
}

const ParticleBuffer& Simulation::species(std::size_t i) const {
  ARTSCI_EXPECTS(i < species_.size());
  return species_[i];
}

void Simulation::addPlugin(std::shared_ptr<Plugin> plugin) {
  ARTSCI_EXPECTS(plugin != nullptr);
  plugins_.push_back(std::move(plugin));
}

std::size_t Simulation::particleCount() const {
  std::size_t n = 0;
  for (const auto& s : species_) n += s.size();
  return n;
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
  J_.fill(0.0);
  for (std::size_t s = 0; s < species_.size(); ++s) {
    ParticleBuffer& p = species_[s];
    if (p.empty()) continue;
    Scratch& scr = scratch_[s];
    const bool record = cfg_.recordBetaDot;
    fused_.pushAndScatter(p, E_, B_, cfg_.dt, record ? &scr.bdx : nullptr,
                          record ? &scr.bdy : nullptr,
                          record ? &scr.bdz : nullptr);
    // Fixed-order tile reduction: each species is fully added into J
    // before the next one scatters.
    TRACE_SCOPE("pic", "reduce");
    fused_.accumulators().reduce(J_, fused_.index(), 0, cfg_.grid.nx);
  }
  {
    TRACE_SCOPE("pic", "field_solve");
    solver_.updateBHalf(B_, E_, cfg_.dt);
    solver_.updateE(E_, B_, J_, cfg_.dt);
    solver_.updateBHalf(B_, E_, cfg_.dt);
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
