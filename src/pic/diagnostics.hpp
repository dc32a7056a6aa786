/// \file diagnostics.hpp
/// Physics diagnostics: energy budget and KHI growth-rate estimation.
#pragma once

#include <vector>

#include "pic/simulation.hpp"

namespace artsci::pic {

/// Energy budget of one simulation state, in plasma units. In a healthy
/// periodic run total() drifts only at the integrator's truncation order.
struct EnergyReport {
  double electric = 0;  ///< 1/2 integral |E|^2 dV
  double magnetic = 0;  ///< 1/2 integral |B|^2 dV
  double kinetic = 0;   ///< sum over species of w (gamma - 1) m
  /// Total conserved energy (field + particle kinetic).
  double total() const { return electric + magnetic + kinetic; }
};

/// Sample the current energy budget of `sim` (all species).
EnergyReport energyReport(const Simulation& sim);

/// Fit an exponential growth rate Gamma (in omega_pe units) to a series of
/// magnetic-field energies sampled every `dtSample`: E_B ~ exp(2 Gamma t).
/// Returns Gamma from the log-linear fit over the given window.
double fitGrowthRate(const std::vector<double>& magneticEnergies,
                     double dtSample, std::size_t fitBegin,
                     std::size_t fitEnd);

}  // namespace artsci::pic
