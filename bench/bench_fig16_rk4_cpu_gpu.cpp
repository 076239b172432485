/// \file bench_fig16_rk4_cpu_gpu.cpp
/// \brief Regenerates Fig. 16: overall wall-clock for 5 RK4 timesteps on
/// binary-black-hole grids of growing size — one A100 vs a two-socket EPYC
/// node (paper: ~2.5x overall speedup). Same-counts modeling as Fig. 15,
/// now for the full pipeline (halo, unzip, RHS, zip, AXPY), plus the host
/// whole-step time with the scalar and the SIMD RHS body.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "perf/machine_model.hpp"
#include "simgpu/gpu_bssn.hpp"

int main(int argc, char** argv) {
  using namespace dgr;
  bench::header("Fig. 16", "5 RK4 steps: one A100 vs two-socket EPYC node");
  bench::Reporter rep("fig16_rk4_cpu_gpu", argc, argv);

  const perf::MachineModel a100 = perf::a100();
  const perf::MachineModel epyc = perf::epyc7763_node();
  std::printf(
      "  grid      | octants | unknowns | A100 (s) | EPYC node (s) | speedup "
      "(paper ~2.5x) | host (s)\n");

  struct Config {
    const char* name;
    int base, finest;
    Real half;
  };
  const Config configs[] = {{"bbh-small", 2, 3, 16.0},
                            {"bbh-medium", 2, 4, 16.0},
                            {"bbh-large", 3, 5, 16.0}};
  // Each grid runs twice: with the scalar RHS body (width 1) and at the
  // active SIMD width (the packed body at 4). The modeled device times come
  // from op counts, which the width does not change.
  const int wact = simd_active_width();
  std::vector<double> host_scalar, host_simd;
  std::vector<bool> bitwise;
  for (const auto& cfg : configs) {
    auto m = bench::bbh_mesh(1.0, cfg.half, 2.0, cfg.base, cfg.finest);
    bssn::BssnState s;
    bench::init_bbh_state(*m, 1.0, 2.0, s);
    double host_s[2];
    bssn::BssnState final_state[2];
    double a100_s = 0, epyc_s = 0;
    for (int w = 0; w < 2; ++w) {
      solver::SolverConfig gcfg;
      gcfg.simd_width = w == 0 ? 1 : wact;
      simgpu::GpuBssnSolver gpu(m, gcfg);
      gpu.upload(s);
      WallTimer t;
      for (int i = 0; i < 5; ++i) gpu.rk4_step();
      host_s[w] = t.seconds();
      final_state[w] = gpu.download();
      a100_s = gpu.runtime().modeled_total_with(a100);
      epyc_s = gpu.runtime().modeled_total_with(epyc);
    }
    host_scalar.push_back(host_s[0]);
    host_simd.push_back(host_s[1]);
    bitwise.push_back(final_state[1].max_abs_diff(final_state[0]) == 0.0);
    rep.pair(std::string("rk4_speedup_") + cfg.name, 2.5, epyc_s / a100_s,
             "x");
    rep.metric(std::string("a100_s_") + cfg.name, a100_s);
    // Actual host wall time of the (possibly multi-threaded) sweep — the
    // number the --threads 1 vs --threads N comparison reads.
    rep.metric(std::string("host_s_") + cfg.name, host_s[1]);
    rep.metric(std::string("host_s_scalar_") + cfg.name, host_s[0]);
    rep.metric(std::string("step_simd_speedup_") + cfg.name,
               host_s[0] / host_s[1]);
    rep.metric(std::string("simd_bitwise_identical_") + cfg.name,
               bitwise.back() ? 1.0 : 0.0);
    std::printf(
        "  %-9s | %-7zu | %-7.1fM | %-8.3f | %-13.3f | %-20.2f | %-7.1f\n",
        cfg.name, m->num_octants(),
        m->num_dofs() * 24 / 1e6, a100_s, epyc_s, epyc_s / a100_s, host_s[1]);
  }
  bench::note("paper grids carry 36M-104M unknowns; ours are scaled to");
  bench::note("single-core-buildable sizes. Once patches are built the RHS");
  bench::note("cost per octant is independent of refinement (paper §V-A).");

  // Whole-step host pair, wall-clock hence a metric, not a pair: the CI
  // thread-count check pins every pair bitwise.
  std::printf("\n  host, 5 RK4 steps, width 1 vs %d (ROADMAP gate 1.40x):\n",
              wact);
  std::printf("  grid       | scalar (s) | simd (s) | speedup | bitwise\n");
  for (std::size_t i = 0; i < host_simd.size(); ++i)
    std::printf("  %-10s | %-10.2f | %-8.2f | %-7.2f | %s\n", configs[i].name,
                host_scalar[i], host_simd[i], host_scalar[i] / host_simd[i],
                bitwise[i] ? "IDENTICAL" : "MISMATCH");
  return 0;
}
