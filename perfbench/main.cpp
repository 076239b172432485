/// \file main.cpp
/// \brief perfbench: one run of one workload. Prints human-readable lines,
/// then, as its last line, a JSON record (metrics, report-only info,
/// correctness checks) that perfbench/run.py turns into the result line.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1

#include <cstdio>
#include <exception>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "mesh.build_ms",
      "bssn.initdata_ms",
      "exec_space.unzip_ms",
      "exec_space.rhs_ms",
      "exec_space.zip_ms",
      "exec_space.axpy_ms",
      "bssn.deriv_us_per_oct",
      "bssn.algebra_us_per_oct",
      "bssn.flops_per_oct",
      "bssn.bytes_per_oct",
      "bssn.gflops",
      "exec.cpu_util",
      "solver.regrid_estimate_ms",
      "solver.regrid_remesh_ms",
      "solver.transfer_ms",
      "solver.regrids_changed",
      "solver.subcycle_fill_ms",
      "solver.subcycle_rhs_ms",
      "solver.subcycle_work_ratio",
      "gw.psi4_ms",
      "gw.sphere_ms",
      "dist.post_exchange_ms",
      "dist.finish_exchange_ms",
      "dist.rhs_interior_ms",
      "dist.rhs_boundary_ms",
      "comm.msgs_per_step",
      "comm.bytes_per_step",
      "dist.t_comm_exposed_us",
      "ensemble.cache_get_us",
      "ensemble.submit_hit_us",
      "ensemble.run_scenario_ms",
      "ensemble.hit_rate",
      "ensemble.evictions",
      "ensemble.spills",
      "ensemble.disk_hits",
      "serve.parse_us",
      "serve.ping_rtt_us",
      "serve.hit_us_p50",
      "serve.hit_us_tail",
      "serve.miss_ms_p50",
      "serve.throughput_rps",
      "trace.closure",
      "trace.overhead_s",
      "host.calib_ms",
  };
  return names;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  Result r;
  try {
    if (is_solver_workload(args.workload))
      run_solver_workload(args, r);
    else if (args.workload == "serve_mix")
      run_serve_workload(args, r);
    else
      throw std::runtime_error("unknown workload " + args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const auto& [k, v] : r.metrics) std::printf("  %-28s %.6g\n", k.c_str(), v);
  for (const auto& [k, v] : r.info)
    std::printf("  [info] %-21s %.6g\n", k.c_str(), v);
  for (const auto& f : r.failures) std::printf("  FAILED: %s\n", f.c_str());
  std::printf("%s\n", r.json().c_str());
  return 0;
}
