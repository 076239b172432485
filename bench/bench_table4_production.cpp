/// \file bench_table4_production.cpp
/// \brief Regenerates Table IV: production BBH wall-clock estimates for
/// q = 1, 2, 4, 8. The paper-scale octrees (domain 800 M, finest levels
/// 13-16) are actually built; per-octant-per-stage cost comes from the
/// simulated GPU pipeline's op counts through the A100 model; a fixed
/// utilization factor calibrated on the q = 1 row folds in regrid, I/O,
/// extraction and multi-GPU overheads (documented substitution).

#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "perf/production.hpp"
#include "simgpu/gpu_bssn.hpp"

int main(int argc, char** argv) {
  using namespace dgr;
  bench::header("Table IV", "production BBH wall-clock, q = 1, 2, 4, 8");
  bench::Reporter rep("table4_production", argc, argv);

  // Calibrate per-octant-stage modeled cost on a small real pipeline run.
  auto m = bench::bbh_mesh(1.0, 16.0, 2.0, 2, 4);
  simgpu::GpuBssnSolver gpu(m, solver::SolverConfig{});
  bssn::BssnState s;
  bench::init_bbh_state(*m, 1.0, 2.0, s);
  gpu.upload(s);
  gpu.rk4_step();
  const double step_model = gpu.runtime().modeled_total_seconds();
  const double per_oct_stage = step_model / (4.0 * m->num_octants());
  std::printf("  calibrated A100 cost: %.2f us per octant per RK stage\n",
              per_oct_stage * 1e6);

  struct PaperRow {
    double q, dx1, dx2, T, steps_k, hours;
    int gpus;
  };
  const PaperRow paper[] = {{1, 1.62e-2, 1.62e-2, 748, 183, 87, 4},
                            {2, 8.13e-3, 3.25e-2, 600, 252, 96, 4},
                            {4, 4.06e-3, 3.25e-2, 602, 506, 129, 4},
                            {8, 2.03e-3, 3.25e-2, 1400, 4000, 388, 8}};

  // Utilization calibrated so the q = 1 row matches the paper's 87 h; the
  // same factor is then applied to every configuration (the test of the
  // model is the *relative* growth with q).
  const auto cfgs = perf::table4_configs();
  const auto est1 = perf::estimate_production(cfgs[0], per_oct_stage, 1.0);
  const double utilization = est1.wall_hours / paper[0].hours;
  std::printf("  utilization factor (q=1 calibration): %.4f\n\n", utilization);

  std::printf(
      "  q | dx_min        | GPUs | T(M)  | timesteps         | wall (hrs)\n"
      "    | paper   ours  |      |       | paper    ours     | paper  ours\n");
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const auto est =
        perf::estimate_production(cfgs[i], per_oct_stage, utilization);
    const std::string q = "q" + std::to_string(int(paper[i].q));
    rep.pair("dx_min_" + q, paper[i].dx1, est.dx_min);
    rep.pair("timesteps_k_" + q, paper[i].steps_k, est.timesteps / 1e3, "K");
    rep.pair("wall_hours_" + q, paper[i].hours, est.wall_hours, "h");
    std::printf(
        "  %1.0f | %-7.1e %-6.1e| %-4d | %-5.0f | %-8.0fK %-8.0fK | %-6.0f "
        "%-6.0f\n",
        paper[i].q, paper[i].dx1, est.dx_min, cfgs[i].gpus, cfgs[i].horizon,
        paper[i].steps_k, est.timesteps / 1e3, paper[i].hours,
        est.wall_hours);
  }
  bench::note("octrees built at paper scale (the q=8 grid reaches level 16);");
  bench::note("the headline shape is cost growth with q: more timesteps from");
  bench::note("the finer dx_min dominate the wall-clock growth.");
  return 0;
}
