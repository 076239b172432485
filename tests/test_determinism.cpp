/// \file test_determinism.cpp
/// \brief End-to-end determinism of the full stack on a minimal two-depth
/// mesh: a sub-cycled solver::evolve through a mesh-changing regrid (with
/// the puncture tracker and wave extraction) on every backend, the
/// simulated-GPU solver, and the distributed engine must produce
/// bitwise-identical state vectors, Psi4 output, modeled times, and
/// metrics snapshots at DGR_THREADS = 1, 2, 7 — the contract of the
/// src/exec fixed-chunk partition and chunk-order merges. The per-sweep
/// (backend, threads, SIMD width) matrix is in tests/test_exec_space.cpp.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "bssn/initial_data.hpp"
#include "dist/engine.hpp"
#include "exec/pool.hpp"
#include "exec_space/exec_space.hpp"
#include "gw/extract.hpp"
#include "obs/obs.hpp"
#include "simgpu/gpu_bssn.hpp"
#include "solver/evolution.hpp"

namespace dgr {
namespace {

using bssn::BssnState;
using exec_space::Backend;
using mesh::Mesh;

constexpr int kThreadCounts[] = {1, 2, 7};

/// bbh_global's geometry around one puncture: 120 octants on levels 2
/// and 3, the determinism matrix's mesh.
std::shared_ptr<Mesh> puncture_mesh() {
  oct::Domain dom{16.0};
  return std::make_shared<Mesh>(
      oct::build_puncture_octree(dom, {{{0.05, 0.03, 0.02}, 3}}, 2, 0.75),
      dom);
}

void init_puncture(const Mesh& m, BssnState& s) {
  s.resize(m.num_dofs());
  bssn::set_punctures(m, {{1.0, {0.05, 0.03, 0.02}, {0, 0, 0}, {0, 0, 0}}},
                      s);
}

/// Everything one sub-cycled evolution exposes, captured for comparison.
struct EvolveRun {
  BssnState state;
  std::vector<gw::ModeTimeSeries> waves;
  std::vector<std::array<Real, 3>> punctures;
  std::string metrics;
  std::size_t octants = 0;  ///< of the final mesh
  int steps = 0, regrids = 0;
};

EvolveRun run_evolve(Backend b, int threads) {
  exec::ThreadPool::set_global_threads(threads);
  obs::MetricsRegistry reg;
  obs::install_metrics(&reg);
  auto m = puncture_mesh();
  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;
  simgpu::GpuRuntime rt;
  exec_space::ExecSpace space = exec_space::ExecSpace::host();
  if (b == Backend::kSerial) space = exec_space::ExecSpace::serial();
  if (b == Backend::kSimGpu) space = exec_space::ExecSpace::simgpu(rt);
  solver::BssnCtx ctx(m, scfg, space);
  init_puncture(*m, ctx.state());
  solver::EvolutionConfig ecfg;
  ecfg.subcycle = true;
  // Two cycles, a regrid that refines to level 4, then a tail shorter
  // than a cycle of the new mesh, taken as a global-dt step.
  ecfg.t_end = 4.1 * ctx.suggested_dt();
  ecfg.regrid_every = 4;
  ecfg.regrid.max_level = 4;
  ecfg.extract_every = 4;
  ecfg.extraction_radii = {4.0};
  solver::PunctureTracker tracker({{0.05, 0.03, 0.02}});
  const auto res = solver::evolve(ctx, ecfg, &tracker);
  EvolveRun out{ctx.state(), res.waves22, tracker.positions(), reg.json(),
                ctx.mesh().num_octants(), res.steps, res.regrids};
  obs::install_metrics(nullptr);
  return out;
}

TEST(Determinism, SubcycledEvolveThroughRegridIsBitwiseStableOnEveryBackend) {
  const EvolveRun ref = run_evolve(Backend::kSerial, 1);
  EXPECT_EQ(ref.steps, 5);  // 2 cycles of 2 fine steps + the tail step
  EXPECT_EQ(ref.regrids, 1);
  EXPECT_NE(ref.octants, puncture_mesh()->num_octants());
  ASSERT_FALSE(ref.waves.empty());
  ASSERT_FALSE(ref.waves[0].values.empty());
  for (Backend b : {Backend::kPool, Backend::kSimGpu}) {
    std::string metrics;
    for (int threads : kThreadCounts) {
      const EvolveRun run = run_evolve(b, threads);
      const std::string what = std::string(exec_space::backend_name(b)) +
                               " threads " + std::to_string(threads);
      EXPECT_EQ(run.steps, ref.steps) << what;
      EXPECT_EQ(run.regrids, ref.regrids) << what;
      ASSERT_EQ(run.state.num_dofs(), ref.state.num_dofs()) << what;
      EXPECT_EQ(run.state.max_abs_diff(ref.state), 0.0) << what;
      ASSERT_EQ(run.waves.size(), ref.waves.size()) << what;
      for (std::size_t r = 0; r < ref.waves.size(); ++r) {
        EXPECT_EQ(run.waves[r].times, ref.waves[r].times) << what;
        EXPECT_EQ(run.waves[r].values, ref.waves[r].values) << what;
      }
      EXPECT_EQ(run.punctures, ref.punctures) << what;
      // The simgpu backend adds its gpu.* metrics, so the snapshot is
      // compared across thread counts within a backend.
      if (threads == 1)
        metrics = run.metrics;
      else
        EXPECT_EQ(run.metrics, metrics) << what;
    }
  }
  exec::ThreadPool::set_global_threads(1);
}

/// One simulated-GPU run: 2 RK4 steps + async wave extraction.
struct GpuRun {
  BssnState state;
  std::vector<gw::SphereModes> modes;
  double modeled = 0, modeled_cpu = 0;
  std::string metrics;
};

GpuRun run_gpu(int threads) {
  exec::ThreadPool::set_global_threads(threads);
  obs::MetricsRegistry reg;
  obs::install_metrics(&reg);
  auto m = puncture_mesh();
  solver::SolverConfig gcfg;
  gcfg.bssn.ko_sigma = 0.3;
  simgpu::GpuBssnSolver gpu(m, gcfg);
  BssnState s;
  init_puncture(*m, s);
  gpu.upload(s);
  gpu.rk4_step();
  gpu.rk4_step();
  gw::WaveExtractor ex({4.0}, 2);
  GpuRun out;
  out.modes = gpu.extract_waves(ex);
  out.state = gpu.download();
  out.modeled = gpu.runtime().modeled_total_seconds();
  out.modeled_cpu =
      gpu.runtime().modeled_total_with(perf::epyc7763_node());
  out.metrics = reg.json();
  obs::install_metrics(nullptr);
  return out;
}

TEST(Determinism, GpuPipelineIsBitwiseStableAcrossThreadCounts) {
  const GpuRun ref = run_gpu(1);
  ASSERT_FALSE(ref.modes.empty());
  for (int threads : {2, 7}) {
    const GpuRun run = run_gpu(threads);
    EXPECT_EQ(run.state.max_abs_diff(ref.state), 0.0) << threads;
    // Modeled device/CPU times are functions of the recorded op counts
    // only — the partition merge keeps them bitwise equal (acceptance
    // criterion: thread count never changes modeled results).
    EXPECT_EQ(run.modeled, ref.modeled) << threads;
    EXPECT_EQ(run.modeled_cpu, ref.modeled_cpu) << threads;
    ASSERT_EQ(run.modes.size(), ref.modes.size()) << threads;
    for (std::size_t i = 0; i < ref.modes.size(); ++i)
      EXPECT_EQ(run.modes[i].coeffs, ref.modes[i].coeffs) << threads;
    EXPECT_EQ(run.metrics, ref.metrics) << threads;
  }
  exec::ThreadPool::set_global_threads(1);
}

/// One distributed run: 3 ranks, execute mode, regrid mid-run.
struct DistRun {
  BssnState state;
  double t_virtual = 0;
  std::uint64_t messages = 0, bytes = 0;
  std::string metrics;
};

DistRun run_dist(int threads) {
  exec::ThreadPool::set_global_threads(threads);
  obs::MetricsRegistry reg;
  obs::install_metrics(&reg);
  auto m = puncture_mesh();
  BssnState initial;
  init_puncture(*m, initial);
  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;
  solver::BssnCtx probe(m, scfg);  // only for suggested_dt
  dist::DistConfig dcfg;
  dcfg.ranks = 3;
  dcfg.t_end = 4.1 * probe.suggested_dt();
  dcfg.regrid_every = 2;
  dcfg.regrid.max_level = 3;
  dcfg.sec_per_octant = 1e-5;
  const auto res = dist::evolve_distributed(m, initial, scfg, dcfg);
  DistRun out{res.state, res.t_virtual, res.messages, res.bytes, reg.json()};
  obs::install_metrics(nullptr);
  return out;
}

TEST(Determinism, DistributedEngineIsBitwiseStableAcrossThreadCounts) {
  const DistRun ref = run_dist(1);
  ASSERT_GT(ref.messages, 0u);
  for (int threads : {2, 7}) {
    const DistRun run = run_dist(threads);
    EXPECT_EQ(run.state.max_abs_diff(ref.state), 0.0) << threads;
    // The virtual-clock comm schedule must not see the host thread count.
    EXPECT_EQ(run.t_virtual, ref.t_virtual) << threads;
    EXPECT_EQ(run.messages, ref.messages) << threads;
    EXPECT_EQ(run.bytes, ref.bytes) << threads;
    EXPECT_EQ(run.metrics, ref.metrics) << threads;
  }
  exec::ThreadPool::set_global_threads(1);
}

}  // namespace
}  // namespace dgr
