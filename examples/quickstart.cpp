/// \file quickstart.cpp
/// \brief Quickstart: build an adaptive octree mesh around a black-hole
/// puncture, set constraint-satisfying initial data, take a few RK4 steps
/// of the full BSSN system, and monitor the constraints.
///
/// Build & run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "bssn/initial_data.hpp"
#include "obs/obs.hpp"
#include "octree/refinement.hpp"
#include "solver/bssn_ctx.hpp"

int main() {
  using namespace dgr;

  // 1. A computational domain of +-16 M and an octree refined around a
  //    puncture near the origin (2:1 balanced automatically).
  oct::Domain domain{16.0};
  const std::array<Real, 3> bh_pos = {0.05, 0.03, 0.02};  // off grid lines
  oct::Octree tree =
      oct::build_puncture_octree(domain, {{bh_pos, /*finest_level=*/4}},
                                 /*base_level=*/2);
  auto mesh = std::make_shared<mesh::Mesh>(tree, domain);
  std::printf("mesh: %zu octants, %zu unique grid points, %zu hanging\n",
              mesh->num_octants(), mesh->num_dofs(), mesh->num_hanging());

  // 2. A solver context with default gauge (1+log slicing, Gamma-driver
  //    shift) and Kreiss-Oliger dissipation.
  solver::SolverConfig config;
  config.bssn.ko_sigma = 0.3;
  solver::BssnCtx ctx(mesh, config);

  // 3. Brill-Lindquist puncture initial data with pre-collapsed lapse.
  bssn::set_punctures(*mesh, {{1.0, bh_pos, {0, 0, 0}, {0, 0, 0}}},
                      ctx.state());

  const auto norms0 = ctx.constraint_norms({bh_pos}, 2.0);
  std::printf("t = 0     : |H|_2 = %.3e  |M|_2 = %.3e (puncture excised)\n",
              norms0.ham_l2, norms0.mom_l2);

  // 4. Evolve: the timestep follows the finest spacing (CFL 0.25). A
  //    registry with timing enabled collects every sweep's span time into
  //    a summary named by its layer.
  obs::MetricsRegistry ledger;
  ledger.enable_timing(true);
  obs::install_metrics(&ledger);
  const Real dt = ctx.suggested_dt();
  std::printf("dt = %.4f M (finest h = %.4f M)\n", dt,
              mesh->finest_spacing());
  for (int i = 0; i < 3; ++i) {
    ctx.rk4_step();
    const auto n = ctx.constraint_norms({bh_pos}, 2.0);
    std::printf("t = %.4f: |H|_2 = %.3e  |M|_2 = %.3e\n", ctx.time(),
                n.ham_l2, n.mom_l2);
  }
  obs::install_metrics(nullptr);

  // 5. Where did the time go? (the Fig. 20-style per-layer breakdown)
  const auto seconds = [&](const char* layer) {
    return ledger.summary(layer)->sum * 1e-6;
  };
  std::printf(
      "layers: octant-to-patch %.2fs | RHS %.2fs | patch-to-octant %.2fs | "
      "update %.2fs\n",
      seconds("unzip"), seconds("rhs"), seconds("zip"), seconds("update"));
  return 0;
}
