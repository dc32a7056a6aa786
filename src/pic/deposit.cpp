#include "pic/deposit.hpp"

#include "pic/deposit_buffer.hpp"

namespace artsci::pic {

void depositCharge(Field3& rho, const GridSpec& grid,
                   const ParticleBuffer& buffer, DepositBuffer* scratch) {
  if (scratch == nullptr) {
    DepositBuffer local(grid);
    local.depositCharge(rho, buffer);
    return;
  }
  // Cell sizes must match too: the tiled kernel takes every physics
  // factor (cell volume) from scratch->grid(), so a same-extent grid with
  // different spacing would silently deposit wrongly scaled densities.
  ARTSCI_EXPECTS(scratch->grid().nx == grid.nx &&
                 scratch->grid().ny == grid.ny &&
                 scratch->grid().nz == grid.nz &&
                 scratch->grid().dx == grid.dx &&
                 scratch->grid().dy == grid.dy &&
                 scratch->grid().dz == grid.dz);
  scratch->depositCharge(rho, buffer);
}

}  // namespace artsci::pic
