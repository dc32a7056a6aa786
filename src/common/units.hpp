/// \file units.hpp
/// SI constants and the plasma formulary used by the KHI setup.
///
/// Internally the PIC code works in "plasma units": lengths in c/omega_pe,
/// times in 1/omega_pe, momenta in m_e c, fields in m_e c omega_pe / e.
/// This header converts between SI and plasma units and reproduces the
/// paper's setup numbers (dx = 93.5 um, dt = 17.9 fs at n0 = 1e25 m^-3).
#pragma once

#include <cmath>

namespace artsci::units {

// --- CODATA-ish SI constants -------------------------------------------
inline constexpr double kSpeedOfLight = 2.99792458e8;      ///< c [m/s]
inline constexpr double kElectronMass = 9.1093837015e-31;  ///< m_e [kg]
inline constexpr double kElementaryCharge = 1.602176634e-19;  ///< e [C]
inline constexpr double kEpsilon0 = 8.8541878128e-12;  ///< vacuum permittivity
inline constexpr double kMu0 = 1.25663706212e-6;       ///< vacuum permeability
inline constexpr double kPi = 3.14159265358979323846;

/// Electron plasma (angular) frequency omega_pe = sqrt(n e^2 / (eps0 m_e)).
inline double plasmaFrequency(double densitySI) {
  return std::sqrt(densitySI * kElementaryCharge * kElementaryCharge /
                   (kEpsilon0 * kElectronMass));
}

/// Plasma skin depth c / omega_pe [m].
inline double skinDepth(double densitySI) {
  return kSpeedOfLight / plasmaFrequency(densitySI);
}

/// Convert a length in SI meters to plasma units (c/omega_pe).
inline double lengthToPlasma(double metres, double densitySI) {
  return metres / skinDepth(densitySI);
}

/// Convert a time in SI seconds to plasma units (1/omega_pe).
inline double timeToPlasma(double seconds, double densitySI) {
  return seconds * plasmaFrequency(densitySI);
}

/// Lorentz gamma for normalized velocity beta = v/c.
inline double gammaOfBeta(double beta) {
  return 1.0 / std::sqrt(1.0 - beta * beta);
}

/// The paper's smallest KHI configuration (section IV-A), used to validate
/// unit handling and as the physical template for scaled-down runs.
struct PaperKhiSetup {
  double densitySI = 1.0e25;       ///< n0 [m^-3]
  double cellSizeSI = 93.5e-6;     ///< dx = dy = dz [m] — as stated in paper
  double timeStepSI = 17.9e-15;    ///< dt [s] — paper value (see note below)
  double beta = 0.2;               ///< stream velocity v/c
  int particlesPerCell = 9;
  long cellsX = 192, cellsY = 256, cellsZ = 12;

  /// dx in plasma units (c/omega_pe).
  double cellSizePlasma() const {
    return lengthToPlasma(cellSizeSI, densitySI);
  }
  /// dt in plasma units (1/omega_pe).
  double timeStepPlasma() const {
    return timeToPlasma(timeStepSI, densitySI);
  }
  /// CFL number dt*c*sqrt(3)/dx for the cubic Yee grid (must be < 1).
  double cflNumber() const {
    return kSpeedOfLight * timeStepSI * std::sqrt(3.0) / cellSizeSI;
  }
};

}  // namespace artsci::units
