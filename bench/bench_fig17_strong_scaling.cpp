/// \file bench_fig17_strong_scaling.cpp
/// \brief Regenerates Fig. 17: strong scaling of 5 RK4 steps on a fixed
/// binary-black-hole grid over 1-16 GPUs (and the CPU-node series). The
/// SFC partitioner and ghost layers are real, and since the src/dist
/// engine the parallel time is no longer a closed-form estimate: each rank
/// count EXECUTES the overlapped message schedule (post recvs / send
/// boundary DOFs / compute interior / wait / compute boundary) through
/// dist::SimComm, and t_total is the max over per-rank virtual clocks.
/// Paper efficiencies: GPU 97/89/64 % at 4/8/16; CPU 93/79/66 %.

#include <cstdio>

#include "bench_common.hpp"
#include "dist/engine.hpp"
#include "perf/machine_model.hpp"
#include "simgpu/gpu_bssn.hpp"

int main(int argc, char** argv) {
  using namespace dgr;
  bench::header("Fig. 17", "strong scaling, 5 RK4 steps, fixed BBH grid");
  bench::Reporter rep("fig17_strong_scaling", argc, argv);

  auto m = bench::bbh_mesh(2.0, 16.0, 2.0, 3, 5);
  std::printf("  grid: %zu octants, %.1fM unknowns (paper: 257M)\n",
              m->num_octants(), m->num_dofs() * 24 / 1e6);
  rep.metric("grid_octants", double(m->num_octants()));
  rep.metric("grid_unknowns", double(m->num_dofs()) * 24);

  // Per-octant cost per RHS evaluation from one measured pipeline pass.
  simgpu::GpuBssnSolver gpu(m, solver::SolverConfig{});
  bssn::BssnState s;
  bench::init_bbh_state(*m, 2.0, 2.0, s);
  gpu.upload(s);
  gpu.rk4_step();
  const double gpu_oct = gpu.runtime().modeled_total_with(perf::a100()) /
                         4.0 / double(m->num_octants());
  const double cpu_oct =
      gpu.runtime().modeled_total_with(perf::epyc7763_node()) / 4.0 /
      double(m->num_octants());

  // 5 RK4 steps = 20 RHS evaluations, each one executed exchange schedule.
  const int kEvals = 20;
  const auto run = [&](int ranks, double sec_per_octant,
                       const perf::HierarchicalNetworkModel& net) {
    dist::DistConfig dcfg;
    dcfg.ranks = ranks;
    dcfg.execute = false;
    dcfg.schedule_evals = kEvals;
    dcfg.sec_per_octant = sec_per_octant;
    dcfg.net = net;
    return dist::evolve_distributed(m, s, solver::SolverConfig{}, dcfg);
  };

  struct PaperEff {
    int ranks;
    double gpu, cpu;
  };
  const PaperEff paper[] = {
      {1, 100, 100}, {2, -1, -1}, {4, 97, 93}, {8, 89, 79}, {16, 64, 66}};

  const double t1_gpu = kEvals * m->num_octants() * gpu_oct;
  const double t1_cpu = kEvals * m->num_octants() * cpu_oct;

  std::printf(
      "\n  executed schedule (4 GPUs/node: NVLink intra, HDR-IB inter)\n");
  std::printf(
      "  GPUs | t_total (s) | comm exp. | comm hid. | msgs  | eff (paper)\n");
  for (const auto& p : paper) {
    const auto res = run(p.ranks, gpu_oct, perf::gpu_cluster(4));
    const double eff = t1_gpu / (p.ranks * res.t_virtual);
    rep.pair("gpu_eff_" + std::to_string(p.ranks),
             p.gpu < 0 ? NAN : p.gpu, 100 * eff, "%");
    char pg[16];
    if (p.gpu < 0)
      std::snprintf(pg, sizeof pg, "%s", "-");
    else
      std::snprintf(pg, sizeof pg, "%.0f%%", p.gpu);
    std::printf(
        "  %-4d | %-11.4f | %-9.5f | %-9.5f | %-5llu | %5.1f%% (%-5s)\n",
        p.ranks, res.t_virtual, res.t_comm_exposed_max, res.t_comm_hidden_max,
        static_cast<unsigned long long>(res.messages), 100 * eff, pg);
  }

  std::printf("\n  CPU-node series (flat HDR-IB interconnect)\n");
  std::printf("  nodes| t_total (s) | comm exp. | comm hid. | eff (paper)\n");
  for (const auto& p : paper) {
    const auto res = run(p.ranks, cpu_oct, perf::flat_network(perf::infiniband()));
    const double eff = t1_cpu / (p.ranks * res.t_virtual);
    rep.pair("cpu_eff_" + std::to_string(p.ranks),
             p.cpu < 0 ? NAN : p.cpu, 100 * eff, "%");
    char pc[16];
    if (p.cpu < 0)
      std::snprintf(pc, sizeof pc, "%s", "-");
    else
      std::snprintf(pc, sizeof pc, "%.0f%%", p.cpu);
    std::printf("  %-4d | %-11.4f | %-9.5f | %-9.5f | %5.1f%% (%-5s)\n",
                p.ranks, res.t_virtual, res.t_comm_exposed_max,
                res.t_comm_hidden_max, 100 * eff, pc);
  }
  // ---- Local timestepping halo cadence: the same number of scheduled
  // RHS evaluations walked on the sub-cycle schedule (one per-depth
  // exchange per active depth, payloads filtered to that depth's DOFs)
  // instead of full-mesh exchanges. Everything here runs on the virtual
  // clock with real payload sizes, so the ratios are deterministic and
  // gate the perf trajectory.
  std::printf("\n  sub-cycled halo cadence (4 ranks, %d scheduled evals)\n",
              kEvals);
  {
    dist::DistConfig dcfg;
    dcfg.ranks = 4;
    dcfg.execute = false;
    dcfg.schedule_evals = kEvals;
    dcfg.sec_per_octant = gpu_oct;
    dcfg.net = perf::gpu_cluster(4);
    const auto full = dist::evolve_distributed(m, s, solver::SolverConfig{},
                                               dcfg);
    dcfg.subcycle = true;
    const auto sub = dist::evolve_distributed(m, s, solver::SolverConfig{},
                                              dcfg);
    std::printf("  schedule  | t_total (s) | msgs  | halo bytes\n");
    std::printf("  global-dt | %-11.4f | %-5llu | %llu\n", full.t_virtual,
                static_cast<unsigned long long>(full.messages),
                static_cast<unsigned long long>(full.bytes));
    std::printf("  subcycled | %-11.4f | %-5llu | %llu\n", sub.t_virtual,
                static_cast<unsigned long long>(sub.messages),
                static_cast<unsigned long long>(sub.bytes));
    rep.pair("subcycle_halo_bytes_ratio_4", NAN,
             double(full.bytes) / double(sub.bytes));
    rep.pair("subcycle_t_virtual_ratio_4", NAN,
             full.t_virtual / sub.t_virtual);
    rep.pair("subcycle_messages_4", NAN, double(sub.messages));
    bench::note("sub-cycled schedule: coarse depths exchange less often and");
    bench::note("ship fewer DOFs, so the same eval count moves fewer halo");
    bench::note("bytes and less virtual time (ratios > 1, gated).");
  }

  bench::note("t_total = max over per-rank virtual clocks of the executed");
  bench::note("schedule; 'comm hid.' is halo time overlapped with interior");
  bench::note("compute, 'comm exp.' the residual wait. Efficiency loss =");
  bench::note("SFC load imbalance (real) + exposed halo traffic; the drop");
  bench::note("beyond 8 ranks mirrors the paper's 64-66% at 16.");

  // --json: re-run the 4-rank overlapped schedule under a TraceSession so
  // the per-rank compute / hidden-comm / exposed-wait intervals and the
  // message-flow arrows are exported as a Perfetto-loadable timeline.
  if (rep.enable_trace()) {
    const auto res = run(4, gpu_oct, perf::gpu_cluster(4));
    rep.metric("trace_ranks", 4);
    rep.metric("trace_t_virtual", res.t_virtual);
    rep.note("trace: 4-rank executed schedule, virtual time domain");
  }
  return 0;
}
