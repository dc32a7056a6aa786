/// KHI physics example: run the Kelvin-Helmholtz instability with the
/// synthetic far-field radiation detector and inspect the physics the ML
/// model later learns from — the magnetic-field growth of the instability
/// and the Doppler asymmetry between the approaching and receding streams.
///
///   ./examples/khi_radiation [steps=120] [nx=16] [ny=32]
#include <cstdio>
#include <exception>

#include "common/ascii.hpp"
#include "common/config.hpp"
#include "pic/diagnostics.hpp"
#include "radiation/plugin.hpp"

int main(int argc, char** argv) try {
  using namespace artsci;
  const Config cli = Config::fromArgs(argc, argv, {"steps", "nx", "ny"});

  pic::KhiConfig kcfg;
  kcfg.grid = pic::GridSpec{cli.getInt("nx", 16), cli.getInt("ny", 32), 4,
                            0.25, 0.25, 0.25};
  kcfg.dt = 0.1;
  kcfg.particlesPerCell = 4;

  pic::SimulationConfig sc;
  sc.grid = kcfg.grid;
  sc.dt = kcfg.dt;
  sc.recordBetaDot = true;
  pic::Simulation sim(sc);
  const auto species = pic::initializeKhi(sim, kcfg);

  radiation::DetectorConfig det = radiation::DetectorConfig::defaultKhi(48);
  auto plugin = std::make_shared<radiation::RegionRadiationPlugin>(
      det, species.electrons, 3.0);
  sim.addPlugin(plugin);

  const long steps = cli.getInt("steps", 120);
  std::printf("running KHI: %ldx%ldx%ld cells, beta=%.2f, %ld steps\n\n",
              kcfg.grid.nx, kcfg.grid.ny, kcfg.grid.nz, kcfg.beta, steps);

  std::vector<double> magneticEnergy;
  for (long s = 0; s < steps; ++s) {
    sim.step();
    magneticEnergy.push_back(sim.solver().magneticEnergy(sim.fieldB()));
    if ((s + 1) % (steps / 4) == 0) {
      const auto e = pic::energyReport(sim);
      std::printf("step %4ld  E_B = %.3e  E_E = %.3e  E_kin = %.3e\n", s + 1,
                  e.magnetic, e.electric, e.kinetic);
    }
  }

  // Growth rate of the instability from the linear phase.
  const double gamma = pic::fitGrowthRate(
      magneticEnergy, kcfg.dt, static_cast<std::size_t>(steps / 10),
      static_cast<std::size_t>(steps / 2));
  std::printf("\nfitted magnetic growth rate: Gamma = %.3f omega_pe\n",
              gamma);
  std::printf("(relativistic KHI growth rates are O(0.1-1) omega_pe)\n\n");

  // Spectra per region with Doppler check.
  for (auto region : {pic::KhiRegion::kApproaching,
                      pic::KhiRegion::kReceding, pic::KhiRegion::kVortex}) {
    const auto spectrum = plugin->accumulator(region).intensity(0);
    std::printf("%s\n",
                ascii::plot(det.frequencies,
                            {{pic::khiRegionName(region), spectrum, '#'}},
                            70, 10, true, true,
                            std::string("radiation spectrum — ") +
                                pic::khiRegionName(region))
                    .c_str());
  }

  // Doppler asymmetry: intensity-weighted mean frequency per stream.
  auto meanFreq = [&](pic::KhiRegion region) {
    const auto spec = plugin->accumulator(region).intensity(0);
    double num = 0, den = 0;
    for (std::size_t f = 0; f < spec.size(); ++f) {
      num += spec[f] * det.frequencies[f];
      den += spec[f];
    }
    return den > 0 ? num / den : 0.0;
  };
  const double fAppr = meanFreq(pic::KhiRegion::kApproaching);
  const double fRec = meanFreq(pic::KhiRegion::kReceding);
  std::printf("intensity-weighted mean frequency: approaching %.2f, "
              "receding %.2f (ratio %.2f)\n",
              fAppr, fRec, fAppr / fRec);
  std::printf("relativistic Doppler for beta=0.2 predicts up to (1+b)/(1-b) "
              "= 1.50\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
