/// \file test_determinism.cpp
/// \brief Cross-thread-count determinism of the full stack: the CPU
/// evolution (solver::evolve incl. regrid + wave extraction), the
/// simulated-GPU pipeline, and the distributed engine must produce
/// bitwise-identical state vectors, Psi4 output, modeled times, and
/// metrics snapshots at DGR_THREADS = 1, 2, 7 — the contract of the
/// src/exec fixed-chunk partition and ordered reductions.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bssn/initial_data.hpp"
#include "dist/engine.hpp"
#include "exec/pool.hpp"
#include "gw/extract.hpp"
#include "obs/obs.hpp"
#include "simgpu/gpu_bssn.hpp"
#include "solver/evolution.hpp"

namespace dgr {
namespace {

using bssn::BssnState;
using mesh::Mesh;

constexpr int kThreadCounts[] = {1, 2, 7};

std::shared_ptr<Mesh> puncture_mesh() {
  oct::Domain dom{16.0};
  return std::make_shared<Mesh>(
      oct::build_puncture_octree(dom, {{{0.05, 0.03, 0.02}, 3}}, 2), dom);
}

void init_puncture(const Mesh& m, BssnState& s) {
  s.resize(m.num_dofs());
  bssn::set_punctures(m, {{1.0, {0.05, 0.03, 0.02}, {0, 0, 0}, {0, 0, 0}}},
                      s);
}

/// Everything one CPU evolution run exposes, captured for comparison.
struct CpuRun {
  BssnState state;
  std::vector<gw::ModeTimeSeries> waves;
  std::string metrics;
  int steps = 0, regrids = 0;
};

CpuRun run_cpu(int threads) {
  exec::ThreadPool::set_global_threads(threads);
  obs::MetricsRegistry reg;
  obs::install_metrics(&reg);
  auto m = puncture_mesh();
  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;
  solver::BssnCtx ctx(m, scfg);
  init_puncture(*m, ctx.state());
  solver::EvolutionConfig ecfg;
  ecfg.t_end = 6.1 * ctx.suggested_dt();
  ecfg.regrid_every = 3;  // exercise regrid + transfer_state mid-run
  ecfg.regrid.max_level = 3;
  ecfg.extract_every = 2;
  ecfg.extraction_radii = {4.0};
  const auto res = solver::evolve(ctx, ecfg, nullptr);
  CpuRun out{ctx.state(), res.waves22, reg.json(), res.steps, res.regrids};
  obs::install_metrics(nullptr);
  return out;
}

TEST(Determinism, CpuEvolveIsBitwiseStableAcrossThreadCounts) {
  const CpuRun ref = run_cpu(1);
  ASSERT_GE(ref.steps, 6);
  ASSERT_FALSE(ref.waves.empty());
  ASSERT_FALSE(ref.waves[0].values.empty());
  for (int threads : {2, 7}) {
    const CpuRun run = run_cpu(threads);
    EXPECT_EQ(run.steps, ref.steps) << threads;
    EXPECT_EQ(run.regrids, ref.regrids) << threads;
    ASSERT_EQ(run.state.num_dofs(), ref.state.num_dofs()) << threads;
    EXPECT_EQ(run.state.max_abs_diff(ref.state), 0.0) << threads;
    ASSERT_EQ(run.waves.size(), ref.waves.size()) << threads;
    for (std::size_t r = 0; r < ref.waves.size(); ++r) {
      EXPECT_EQ(run.waves[r].times, ref.waves[r].times) << threads;
      EXPECT_EQ(run.waves[r].values, ref.waves[r].values) << threads;
    }
    EXPECT_EQ(run.metrics, ref.metrics) << threads;
  }
  exec::ThreadPool::set_global_threads(1);
}

/// 2 RK4 steps at a given SIMD width (width 1: the staged scalar RHS;
/// width 4: the packed RHS).
BssnState run_at_width(int threads, int width) {
  exec::ThreadPool::set_global_threads(threads);
  auto m = puncture_mesh();
  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;
  scfg.simd_width = width;
  solver::BssnCtx ctx(m, scfg);
  init_puncture(*m, ctx.state());
  ctx.rk4_step();
  ctx.rk4_step();
  return ctx.state();
}

TEST(Determinism, PackedRhsIsBitwiseStableAcrossThreadsAndWidths) {
  // The packed RHS must be bitwise identical to the scalar staged kernel
  // at every thread count AND every pack width — the two knobs
  // (DGR_THREADS, DGR_SIMD) never change results.
  const BssnState ref = run_at_width(1, 1);
  ASSERT_GT(ref.num_dofs(), 0u);
  for (int threads : kThreadCounts)
    for (int width : {1, 4}) {
      if (threads == 1 && width == 1) continue;
      const BssnState run = run_at_width(threads, width);
      EXPECT_EQ(run.max_abs_diff(ref), 0.0)
          << "threads " << threads << " width " << width;
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
