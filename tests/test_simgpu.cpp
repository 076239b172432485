/// \file test_simgpu.cpp
/// \brief Simulated-GPU runtime tests: kernel/transfer/memory accounting,
/// the Algorithm 1 device pipeline agreeing exactly with the CPU solver,
/// arithmetic-intensity bounds from §IV-A, and async-stream semantics.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bssn/initial_data.hpp"
#include "obs/flightrec.hpp"
#include "simgpu/gpu_bssn.hpp"
#include "solver/bssn_ctx.hpp"

namespace dgr::simgpu {
namespace {

using bssn::BssnState;
using mesh::Mesh;
using oct::Domain;
using oct::Octree;

std::shared_ptr<Mesh> puncture_mesh() {
  Domain dom{8.0};
  return std::make_shared<Mesh>(
      oct::build_puncture_octree(dom, {{{0.05, 0.03, 0.01}, 4}}, 2), dom);
}

TEST(Runtime, KernelRecordsAccumulate) {
  GpuRuntime rt;
  rt.launch("k1", 10, 0, [](OpCounts& c) { c.flops = 100; });
  rt.launch("k1", 10, 0, [](OpCounts& c) { c.flops = 50; });
  rt.launch("k2", 5, 1, [](OpCounts& c) { c.bytes_read = 800; });
  EXPECT_EQ(rt.record("k1").launches, 2);
  EXPECT_EQ(rt.record("k1").blocks, 20u);
  EXPECT_EQ(rt.record("k1").counts.flops, 150u);
  EXPECT_EQ(rt.record("k2").stream, 1);
}

// A launch from a frame of its own, whose stack is then overwritten.
[[gnu::noinline]] void launch_from_frame(GpuRuntime& rt) {
  rt.launch("frame-kernel", 1, 0, [](OpCounts&) {});
}
[[gnu::noinline]] void overwrite_stack() {
  volatile char junk[4096];
  for (std::size_t i = 0; i < sizeof junk; ++i) junk[i] = 'X';
}

TEST(Runtime, KernelNameOutlivesTheLaunch) {
  // The flight recorder keeps each launch's span name pointer, which must
  // not point into a temporary of the launching frame.
  obs::flightrec::reset();
  obs::flightrec::set_enabled(true);
  GpuRuntime rt;
  launch_from_frame(rt);
  overwrite_stack();
  EXPECT_NE(obs::flightrec::dump_json().find("\"name\":\"frame-kernel\""),
            std::string::npos);
  obs::flightrec::reset();
}

TEST(Runtime, ResetCountersKeepsLiveAllocationState) {
  GpuRuntime rt;
  rt.device_alloc(100);
  rt.device_alloc(50);
  rt.device_free(60);
  rt.h2d(1000);
  rt.d2h(500);
  rt.launch("k", 1, 0, [](OpCounts& c) { c.flops = 10; });
  EXPECT_EQ(rt.allocated_bytes(), 90u);
  EXPECT_EQ(rt.peak_bytes(), 150u);

  rt.reset_counters();
  // Counters cleared: kernel records, transfer bytes.
  EXPECT_FALSE(rt.has_kernel("k"));
  EXPECT_TRUE(rt.records().empty());
  EXPECT_EQ(rt.h2d_bytes(), 0u);
  EXPECT_EQ(rt.d2h_bytes(), 0u);
  EXPECT_EQ(rt.transfer_seconds(), 0.0);
  EXPECT_EQ(rt.modeled_total_seconds(true), 0.0);
  // Live allocation state untouched; the high-water mark restarts from it.
  EXPECT_EQ(rt.allocated_bytes(), 90u);
  EXPECT_EQ(rt.peak_bytes(), 90u);

  // A new high-water mark grows from the surviving allocation.
  rt.device_alloc(30);
  EXPECT_EQ(rt.peak_bytes(), 120u);
}

TEST(Runtime, AsyncStreamExcludedFromCriticalPath) {
  GpuRuntime rt;
  rt.launch("sync", 1, 0, [](OpCounts& c) { c.bytes_read = 1'000'000; });
  rt.launch("async", 1, 1, [](OpCounts& c) { c.bytes_read = 50'000'000; });
  const double sync_only = rt.modeled_total_seconds(false);
  const double with_async = rt.modeled_total_seconds(true);
  EXPECT_LT(sync_only, with_async);
  EXPECT_NEAR(sync_only,
              rt.model().time_finite_cache(rt.record("sync").counts), 1e-15);
}

TEST(Runtime, MemoryAndTransferAccounting) {
  GpuRuntime rt;
  rt.device_alloc(1 << 20);
  rt.device_alloc(1 << 20);
  rt.device_free(1 << 20);
  EXPECT_EQ(rt.allocated_bytes(), std::uint64_t(1) << 20);
  EXPECT_EQ(rt.peak_bytes(), std::uint64_t(2) << 20);
  rt.h2d(100'000'000);
  rt.d2h(50'000'000);
  // 150 MB over 25 GB/s PCIe = 6 ms.
  EXPECT_NEAR(rt.transfer_seconds(), 0.006, 1e-4);
}

TEST(GpuSolver, MatchesCpuSolverExactly) {
  // Same chunking, same kernels, same order: the device pipeline must be
  // bit-identical to the host solver.
  auto m = puncture_mesh();
  solver::SolverConfig cpu_cfg;
  solver::SolverConfig gpu_cfg;
  gpu_cfg.bssn = cpu_cfg.bssn;
  ASSERT_EQ(cpu_cfg.chunk_octants, gpu_cfg.chunk_octants);

  solver::BssnCtx cpu(m, cpu_cfg);
  bssn::set_punctures(*m, {{1.0, {0.05, 0.03, 0.01}, {0, 0, 0}, {0, 0, 0}}},
                      cpu.state());

  GpuBssnSolver gpu(m, gpu_cfg);
  gpu.upload(cpu.state());

  const Real dt = cpu.suggested_dt();
  EXPECT_EQ(gpu.suggested_dt(), dt);
  cpu.rk4_step(dt);
  cpu.rk4_step(dt);
  gpu.rk4_step(dt);
  gpu.rk4_step(dt);

  BssnState down = gpu.download();
  EXPECT_EQ(down.max_abs_diff(cpu.state()), 0.0);
}

TEST(GpuSolver, RecordsAlgorithmOnePipeline) {
  auto m = puncture_mesh();
  GpuBssnSolver gpu(m, solver::SolverConfig{});
  BssnState s;
  bssn::set_minkowski(*m, s);
  gpu.upload(s);
  gpu.rk4_step();
  for (const char* k :
       {"halo-exchange", "octant-to-patch", "bssn-rhs", "patch-to-octant",
        "axpy"}) {
    EXPECT_TRUE(gpu.runtime().has_kernel(k)) << k;
  }
  EXPECT_GT(gpu.runtime().record("bssn-rhs").counts.flops, 0u);
  EXPECT_GT(gpu.runtime().modeled_total_seconds(), 0.0);
  EXPECT_GT(gpu.runtime().h2d_bytes(), 0u);
  EXPECT_GT(gpu.runtime().peak_bytes(), 0u);
}

TEST(GpuSolver, OctantToPatchAiWithinPaperBound) {
  // §IV-A: the octant-to-patch arithmetic intensity is bounded by
  // Q_U <= 5.07 in the RAM model; measured values (Table III) are below.
  auto m = puncture_mesh();
  GpuBssnSolver gpu(m, solver::SolverConfig{});
  BssnState s;
  bssn::set_minkowski(*m, s);
  gpu.upload(s);
  gpu.rk4_step();
  const double ai =
      gpu.runtime().record("octant-to-patch").counts.arithmetic_intensity();
  EXPECT_GT(ai, 0.0);
  EXPECT_LT(ai, 5.5);
  // patch-to-octant is a pure data-movement kernel (zero AI).
  const double ai_zip =
      gpu.runtime().record("patch-to-octant").counts.arithmetic_intensity();
  EXPECT_EQ(ai_zip, 0.0);
}

TEST(GpuSolver, AsyncWaveExtractionOffCriticalPath) {
  Domain dom{8.0};
  auto m = std::make_shared<Mesh>(Octree::uniform(2), dom);
  GpuBssnSolver gpu(m, solver::SolverConfig{});
  BssnState s;
  bssn::set_punctures(*m, {{1.0, {0.04, 0.02, 0.01}, {0, 0, 0}, {0, 0, 0}}},
                      s);
  gpu.upload(s);
  gpu.rk4_step();
  const double before = gpu.runtime().modeled_total_seconds(false);
  gw::WaveExtractor ex({4.0}, 2, 6);
  const auto modes = gpu.extract_waves(ex);
  EXPECT_EQ(modes.size(), 1u);
  EXPECT_NEAR(gpu.runtime().modeled_total_seconds(false), before, 1e-12);
  EXPECT_GT(gpu.runtime().modeled_total_seconds(true), before);
}

TEST(GpuSolver, FlatSpaceFixedPoint) {
  Domain dom{4.0};
  auto m = std::make_shared<Mesh>(Octree::uniform(1), dom);
  GpuBssnSolver gpu(m, solver::SolverConfig{});
  BssnState s;
  bssn::set_minkowski(*m, s);
  gpu.upload(s);
  gpu.rk4_step();
  gpu.rk4_step();
  BssnState down = gpu.download();
  EXPECT_LT(down.max_abs_diff(s), 1e-10);
}

}  // namespace
}  // namespace dgr::simgpu
