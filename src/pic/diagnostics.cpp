#include "pic/diagnostics.hpp"

#include <cmath>

#include "common/stats.hpp"

namespace artsci::pic {

EnergyReport energyReport(const Simulation& sim) {
  EnergyReport r;
  r.electric = sim.solver().electricEnergy(sim.fieldE());
  r.magnetic = sim.solver().magneticEnergy(sim.fieldB());
  for (std::size_t s = 0; s < sim.speciesCount(); ++s)
    r.kinetic += sim.species(s).kineticEnergy();
  return r;
}

double fitGrowthRate(const std::vector<double>& magneticEnergies,
                     double dtSample, std::size_t fitBegin,
                     std::size_t fitEnd) {
  ARTSCI_EXPECTS(fitEnd <= magneticEnergies.size());
  ARTSCI_EXPECTS(fitBegin + 2 <= fitEnd);
  std::vector<double> t, logE;
  for (std::size_t i = fitBegin; i < fitEnd; ++i) {
    ARTSCI_EXPECTS_MSG(magneticEnergies[i] > 0,
                       "magnetic energy must be positive to fit growth");
    t.push_back(static_cast<double>(i) * dtSample);
    logE.push_back(std::log(magneticEnergies[i]));
  }
  // E_B ~ exp(2 Gamma t) since energy is quadratic in B.
  return 0.5 * stats::linearFit(t, logE).slope;
}

}  // namespace artsci::pic
