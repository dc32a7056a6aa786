/// Fig 1 homage: render the KHI simulation. Writes a PPM image of the x-y
/// electron density (averaged over z), colored by local flow direction
/// (red = receding, blue = approaching, as in the paper's ISAAC render),
/// and prints an ASCII version of the vortex structure.
///
///   ./examples/render_khi [steps=150] [out=khi.ppm]
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <vector>

#include "common/config.hpp"
#include "pic/deposit.hpp"
#include "pic/khi.hpp"

int main(int argc, char** argv) try {
  using namespace artsci;
  const Config cli = Config::fromArgs(argc, argv, {"steps", "out"});
  const long steps = cli.getInt("steps", 150);
  const std::string out = cli.getString("out", "khi.ppm");

  pic::KhiConfig kcfg;
  kcfg.grid = pic::GridSpec{48, 96, 4, 0.25, 0.25, 0.25};
  kcfg.dt = 0.1;
  kcfg.particlesPerCell = 4;
  pic::SimulationConfig sc;
  sc.grid = kcfg.grid;
  sc.dt = kcfg.dt;
  pic::Simulation sim(sc);
  const auto sp = pic::initializeKhi(sim, kcfg);

  std::printf("simulating KHI (%ldx%ld), %ld steps...\n", kcfg.grid.nx,
              kcfg.grid.ny, steps);
  sim.run(steps);

  // Per-(x, y) cell: density and mean u_x of electrons (z-averaged).
  const long nx = kcfg.grid.nx, ny = kcfg.grid.ny;
  std::vector<double> density(static_cast<std::size_t>(nx * ny), 0.0);
  std::vector<double> flow(static_cast<std::size_t>(nx * ny), 0.0);
  const auto& e = sim.species(sp.electrons);
  for (std::size_t i = 0; i < e.size(); ++i) {
    const long ix = std::min(nx - 1, static_cast<long>(e.x[i]));
    const long iy = std::min(ny - 1, static_cast<long>(e.y[i]));
    const auto idx = static_cast<std::size_t>(ix * ny + iy);
    density[idx] += e.w[i];
    flow[idx] += e.w[i] * e.ux[i];
  }
  double maxDensity = 1e-12;
  for (std::size_t i = 0; i < density.size(); ++i) {
    if (density[i] > 0) flow[i] /= density[i];
    maxDensity = std::max(maxDensity, density[i]);
  }

  // PPM: columns = x, rows = y; red receding (-x), blue approaching (+x).
  std::ofstream ppm(out, std::ios::binary);
  ppm << "P6\n" << nx << " " << ny << "\n255\n";
  for (long iy = ny - 1; iy >= 0; --iy) {
    for (long ix = 0; ix < nx; ++ix) {
      const auto idx = static_cast<std::size_t>(ix * ny + iy);
      const double bright = density[idx] / maxDensity;
      const double dir = std::clamp(flow[idx] / 0.25, -1.0, 1.0);
      const auto r = static_cast<unsigned char>(
          255.0 * bright * (dir < 0 ? 1.0 : 1.0 - dir));
      const auto g = static_cast<unsigned char>(
          255.0 * bright * (1.0 - std::abs(dir)) * 0.8);
      const auto b = static_cast<unsigned char>(
          255.0 * bright * (dir > 0 ? 1.0 : 1.0 + dir));
      ppm.put(static_cast<char>(r));
      ppm.put(static_cast<char>(g));
      ppm.put(static_cast<char>(b));
    }
  }
  ppm.close();
  std::printf("wrote %s (%ldx%ld)\n\n", out.c_str(), nx, ny);

  // ASCII: flow direction map (downsampled), '>' approaching, '<'
  // receding, 'o' mixed/vortex.
  std::printf("flow structure ('>' approaching, '<' receding, 'o' vortex):\n");
  for (long iy = ny - 2; iy >= 0; iy -= 3) {
    for (long ix = 0; ix < nx; ix += 1) {
      const auto idx = static_cast<std::size_t>(ix * ny + iy);
      const double dir = flow[idx];
      const char c = dir > 0.08 ? '>' : (dir < -0.08 ? '<' : 'o');
      std::putchar(c);
    }
    std::putchar('\n');
  }
  const double eb = sim.solver().magneticEnergy(sim.fieldB());
  std::printf("\nmagnetic field energy (instability marker): %.3e\n", eb);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
