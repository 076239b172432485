/// \file test_exec_space.cpp
/// \brief The exec_space backend-equivalence contract: every sweep ported
/// onto dgr::exec_space is bitwise identical across {serial, pool, simgpu}
/// backends × thread counts × SIMD widths, and the layer's primitives
/// (range_for, team_for, reduce, OpCounts slot merge, DGR_EXEC_SPACE knob)
/// behave identically on every backend.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bssn/initial_data.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/pool.hpp"
#include "exec_space/bssn_sweeps.hpp"
#include "exec_space/exec_space.hpp"
#include "gw/psi4.hpp"
#include "simgpu/gpu_bssn.hpp"
#include "solver/evolution.hpp"

namespace dgr {
namespace {

using bssn::BssnState;
using exec_space::Backend;
using exec_space::ExecSpace;
using exec_space::LaunchSpec;
using mesh::Mesh;

constexpr Backend kBackends[] = {Backend::kSerial, Backend::kPool,
                                 Backend::kSimGpu};

/// A space for `b`, borrowing `rt` when the simgpu backend is requested.
ExecSpace make_space(Backend b, simgpu::GpuRuntime& rt) {
  switch (b) {
    case Backend::kSerial: return ExecSpace::serial();
    case Backend::kPool: return ExecSpace::pool();
    case Backend::kSimGpu: return ExecSpace::simgpu(rt);
  }
  return ExecSpace::pool();
}

// ------------------------------------------------------------ primitives --

TEST(ExecSpaceBasics, ParseBackendAcceptsExactlyTheThreeNames) {
  EXPECT_EQ(exec_space::parse_backend("serial", "t"), Backend::kSerial);
  EXPECT_EQ(exec_space::parse_backend("pool", "t"), Backend::kPool);
  EXPECT_EQ(exec_space::parse_backend("simgpu", "t"), Backend::kSimGpu);
  for (const char* bad : {"Serial", "gpu", "POOL", "", "pool ", "simgpu2"})
    EXPECT_THROW(exec_space::parse_backend(bad, "t"), Error) << bad;
  EXPECT_THROW(exec_space::parse_backend(nullptr, "t"), Error);
  try {
    exec_space::parse_backend("nope", "DGR_EXEC_SPACE");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("DGR_EXEC_SPACE"),
              std::string::npos);
  }
  for (Backend b : kBackends)
    EXPECT_EQ(exec_space::parse_backend(exec_space::backend_name(b), "t"), b);
}

TEST(ExecSpaceBasics, BackendFromEnvIsStrict) {
  // Prime the process-default cache with the ambient knob BEFORE mutating
  // the environment: ExecSpace::host() must keep honoring whatever the
  // process was launched with (the CI exec-space job depends on it).
  const Backend def = exec_space::default_backend();
  const char* orig = std::getenv("DGR_EXEC_SPACE");
  const std::string saved = orig ? orig : "";

  ASSERT_EQ(unsetenv("DGR_EXEC_SPACE"), 0);
  EXPECT_EQ(exec_space::backend_from_env(), Backend::kPool);
  ASSERT_EQ(setenv("DGR_EXEC_SPACE", "serial", 1), 0);
  EXPECT_EQ(exec_space::backend_from_env(), Backend::kSerial);
  ASSERT_EQ(setenv("DGR_EXEC_SPACE", "simgpu", 1), 0);
  EXPECT_EQ(exec_space::backend_from_env(), Backend::kSimGpu);
  for (const char* bad : {"cuda", "Pool", "serial ", "1"}) {
    ASSERT_EQ(setenv("DGR_EXEC_SPACE", bad, 1), 0);
    EXPECT_THROW(exec_space::backend_from_env(), Error) << bad;
  }

  if (orig)
    ASSERT_EQ(setenv("DGR_EXEC_SPACE", saved.c_str(), 1), 0);
  else
    ASSERT_EQ(unsetenv("DGR_EXEC_SPACE"), 0);
  // host() binds the cached process default; whatever it is, it must be
  // consistent and carry a runtime exactly on the simgpu backend.
  const ExecSpace host = ExecSpace::host();
  EXPECT_EQ(host.backend(), def);
  EXPECT_EQ(host.runtime() != nullptr, host.backend() == Backend::kSimGpu);
}

TEST(ExecSpaceBasics, SimdWidthIsStrict) {
  // Only 0 (the DGR_SIMD width), 1 and 4 exist. Any other width used to run
  // some other width silently; RhsPipeline — and so BssnCtx, the dist ranks
  // and GpuBssnSolver — now rejects it at construction.
  auto m = std::make_shared<Mesh>(oct::Octree::uniform(1), oct::Domain{4.0});
  for (int w : {0, 1, 4}) {
    solver::SolverConfig scfg;
    scfg.simd_width = w;
    EXPECT_NO_THROW({ solver::RhsPipeline p(m, scfg); }) << w;
  }
  for (int w : {-1, 2, 3, 5, 8}) {
    solver::SolverConfig scfg;
    scfg.simd_width = w;
    EXPECT_THROW({ solver::RhsPipeline p(m, scfg); }, Error) << w;
    EXPECT_THROW({ solver::BssnCtx c(m, scfg); }, Error) << w;
    EXPECT_THROW({ simgpu::GpuBssnSolver g(m, scfg); }, Error) << w;
    ExecSpace es;
    EXPECT_THROW(es.set_vector_policy({w}), Error) << w;
  }
}

TEST(ExecSpacePrimitives, RangeForCoversChunksIdenticallyOnEveryBackend) {
  const std::int64_t n = 1003, grain = 16;
  std::vector<double> ref;
  for (int threads : {1, 4}) {
    exec::ThreadPool::set_global_threads(threads);
    for (Backend b : kBackends) {
      simgpu::GpuRuntime rt;
      const ExecSpace es = make_space(b, rt);
      std::vector<double> out(static_cast<std::size_t>(n), 0.0);
      OpCounts counts;
      es.range_for(LaunchSpec{"t-range", "t-range", 1, 0}, n, grain, &counts,
                   [&](std::int64_t i0, std::int64_t i1, OpCounts& c) {
                     for (std::int64_t i = i0; i < i1; ++i)
                       out[static_cast<std::size_t>(i)] = std::sin(0.1 * i);
                     c.flops += std::uint64_t(i1 - i0);
                   });
      EXPECT_EQ(counts.flops, std::uint64_t(n)) << threads;
      if (ref.empty())
        ref = out;
      else
        EXPECT_EQ(out, ref) << "backend " << exec_space::backend_name(b)
                            << " threads " << threads;
    }
  }
  exec::ThreadPool::set_global_threads(1);
}

TEST(ExecSpacePrimitives, ReduceUsesTheFixedPairwiseTreeOnEveryBackend) {
  const std::int64_t n = 777, grain = 8;
  // Expected value: per-chunk sums combined by the documented pairwise
  // tree (NOT plain left-to-right accumulation — FP addition is not
  // associative, so the two orders genuinely differ here).
  std::vector<double> slot;
  for (std::int64_t b = 0; b < n; b += grain) {
    double s = 0;
    for (std::int64_t i = b; i < std::min(n, b + grain); ++i)
      s += std::sin(0.01 * i) * 1e-3 + 1.0;
    slot.push_back(s);
  }
  for (std::int64_t width = static_cast<std::int64_t>(slot.size()); width > 1;
       width = (width + 1) / 2) {
    for (std::int64_t i = 0; 2 * i < width; ++i)
      slot[static_cast<std::size_t>(i)] =
          (2 * i + 1 < width)
              ? slot[static_cast<std::size_t>(2 * i)] +
                    slot[static_cast<std::size_t>(2 * i + 1)]
              : slot[static_cast<std::size_t>(2 * i)];
  }
  const double expected = slot[0];

  for (int threads : {1, 4}) {
    exec::ThreadPool::set_global_threads(threads);
    for (Backend b : kBackends) {
      simgpu::GpuRuntime rt;
      const ExecSpace es = make_space(b, rt);
      const double got = es.reduce(
          LaunchSpec{"t-reduce", "t-reduce", 1, 0}, n, grain, 0.0,
          [&](std::int64_t i0, std::int64_t i1) {
            double s = 0;
            for (std::int64_t i = i0; i < i1; ++i)
              s += std::sin(0.01 * i) * 1e-3 + 1.0;
            return s;
          },
          [](double x, double y) { return x + y; });
      EXPECT_EQ(got, expected) << "backend " << exec_space::backend_name(b)
                               << " threads " << threads;
    }
  }
  exec::ThreadPool::set_global_threads(1);
}

TEST(ExecSpacePrimitives, TeamForDeliversLaneAndVectorPolicy) {
  exec::ThreadPool::set_global_threads(4);
  for (Backend b : kBackends) {
    simgpu::GpuRuntime rt;
    ExecSpace es = make_space(b, rt);
    es.set_vector_policy({4});
    EXPECT_EQ(es.vector_policy().width, 4);
    const int lanes = es.max_lanes();
    std::vector<int> lane_of(64, -1);
    es.team_for(LaunchSpec{"t-team", "t-team", 1, 0}, 64, 4, nullptr,
                [&](const exec_space::TeamMember& tm, std::int64_t i0,
                    std::int64_t i1, OpCounts&) {
                  EXPECT_EQ(tm.vector_width(), 4);
                  EXPECT_GE(tm.lane(), 0);
                  EXPECT_LT(tm.lane(), lanes);
                  for (std::int64_t i = i0; i < i1; ++i)
                    lane_of[static_cast<std::size_t>(i)] = tm.lane();
                });
    for (int l : lane_of) EXPECT_GE(l, 0);
  }
  exec::ThreadPool::set_global_threads(1);
}

TEST(ExecSpacePrimitives, NestedSweepsFallBackSafely) {
  // A kernel body opening another sweep on the same thread must not
  // corrupt the outer sweep's arena-backed OpCounts slots.
  for (Backend b : {Backend::kSerial, Backend::kPool}) {
    simgpu::GpuRuntime rt;
    const ExecSpace es = make_space(b, rt);
    OpCounts outer;
    es.range_for(LaunchSpec{"t-outer", "t-outer", 1, 0}, 8, 1, &outer,
                 [&](std::int64_t i0, std::int64_t i1, OpCounts& c) {
                   OpCounts inner;
                   ExecSpace::serial().range_for(
                       LaunchSpec{"t-inner", "t-inner", 1, 0}, 4, 1, &inner,
                       [&](std::int64_t, std::int64_t, OpCounts& ic) {
                         ic.flops += 1;
                       });
                   EXPECT_EQ(inner.flops, 4u);
                   c.flops += std::uint64_t(i1 - i0);
                 });
    EXPECT_EQ(outer.flops, 8u);
  }
}

TEST(ExecSpacePrimitives, SimGpuBackendRecordsKernelLaunches) {
  simgpu::GpuRuntime rt;
  const ExecSpace es = ExecSpace::simgpu(rt);
  ASSERT_EQ(es.runtime(), &rt);
  OpCounts out;
  es.range_for(LaunchSpec{"t-kernel", nullptr, 7, 2}, 32, 8, &out,
               [&](std::int64_t i0, std::int64_t i1, OpCounts& c) {
                 c.flops += std::uint64_t(i1 - i0) * 3;
               });
  ASSERT_TRUE(rt.has_kernel("t-kernel"));
  const auto& rec = rt.record("t-kernel");
  EXPECT_EQ(rec.launches, 1);
  EXPECT_EQ(rec.blocks, 7u);
  EXPECT_EQ(rec.stream, 2);
  EXPECT_EQ(rec.counts.flops, 96u);
  EXPECT_EQ(out.flops, 96u);  // chunk-order merge also feeds the out-param
}

// --------------------------------------------- backend-equivalence matrix --

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

/// Two RK4 steps on backend `b` at the given thread count and SIMD width
/// (width 1: the staged scalar RHS; width 4: the packed RHS).
BssnState run_rk4(Backend b, int threads, int width) {
  exec::ThreadPool::set_global_threads(threads);
  auto m = puncture_mesh();
  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;
  scfg.simd_width = width;
  simgpu::GpuRuntime rt;
  solver::BssnCtx ctx(m, scfg, make_space(b, rt));
  init_puncture(*m, ctx.state());
  ctx.rk4_step();
  ctx.rk4_step();
  return ctx.state();
}

TEST(ExecSpaceMatrix, Rk4IsBitwiseIdenticalAcrossBackendsThreadsAndWidths) {
  const BssnState ref = run_rk4(Backend::kSerial, 1, 1);
  ASSERT_GT(ref.num_dofs(), 0u);
  for (Backend b : kBackends)
    for (int threads : {1, 4})
      for (int width : {1, 4}) {
        if (b == Backend::kSerial && threads == 1 && width == 1) continue;
        const BssnState run = run_rk4(b, threads, width);
        EXPECT_EQ(run.max_abs_diff(ref), 0.0)
            << exec_space::backend_name(b) << " threads " << threads
            << " width " << width;
      }
  exec::ThreadPool::set_global_threads(1);
}

/// A short evolution with a mid-run regrid (remesh + transfer_state) on
/// backend `b`.
BssnState run_evolve(Backend b, int threads) {
  exec::ThreadPool::set_global_threads(threads);
  auto m = puncture_mesh();
  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;
  simgpu::GpuRuntime rt;
  solver::BssnCtx ctx(m, scfg, make_space(b, rt));
  init_puncture(*m, ctx.state());
  solver::EvolutionConfig ecfg;
  ecfg.t_end = 4.1 * ctx.suggested_dt();
  ecfg.regrid_every = 3;
  ecfg.regrid.max_level = 3;
  const auto res = solver::evolve(ctx, ecfg, nullptr);
  EXPECT_GE(res.steps, 4);
  return ctx.state();
}

TEST(ExecSpaceMatrix, EvolveThroughRegridIsBitwiseIdenticalAcrossBackends) {
  const BssnState ref = run_evolve(Backend::kSerial, 1);
  for (Backend b : kBackends)
    for (int threads : {1, 4}) {
      if (b == Backend::kSerial && threads == 1) continue;
      const BssnState run = run_evolve(b, threads);
      ASSERT_EQ(run.num_dofs(), ref.num_dofs());
      EXPECT_EQ(run.max_abs_diff(ref), 0.0)
          << exec_space::backend_name(b) << " threads " << threads;
    }
  exec::ThreadPool::set_global_threads(1);
}

/// One sub-cycled coarse step (multi-depth mesh => stage fill, dense save
/// and depth-restricted update all execute) on backend `b`.
BssnState run_subcycle(Backend b, int threads) {
  exec::ThreadPool::set_global_threads(threads);
  auto m = puncture_mesh();
  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;
  simgpu::GpuRuntime rt;
  solver::BssnCtx ctx(m, scfg, make_space(b, rt));
  init_puncture(*m, ctx.state());
  EXPECT_GT(ctx.subcycle_index().cycle(), 1);
  ctx.subcycle_cycle(ctx.suggested_dt());
  if (b == Backend::kSimGpu) {
    // The machine model prices the sub-cycled sweeps.
    for (const char* k : {"subcycle-fill", "subcycle-save", "subcycle-update"})
      EXPECT_TRUE(rt.has_kernel(k)) << k;
    EXPECT_GT(rt.modeled_total_seconds(), 0.0);
  }
  return ctx.state();
}

TEST(ExecSpaceMatrix, SubcycleCycleIsBitwiseIdenticalAcrossBackends) {
  const BssnState ref = run_subcycle(Backend::kSerial, 1);
  for (Backend b : kBackends)
    for (int threads : {1, 4}) {
      if (b == Backend::kSerial && threads == 1) continue;
      const BssnState run = run_subcycle(b, threads);
      EXPECT_EQ(run.max_abs_diff(ref), 0.0)
          << exec_space::backend_name(b) << " threads " << threads;
    }
  exec::ThreadPool::set_global_threads(1);
}

/// compute_psi4_field's chunked sweeps on backend `b` (puncture initial
/// data): Re then Im, concatenated.
std::vector<Real> run_psi4(Backend b, int threads) {
  exec::ThreadPool::set_global_threads(threads);
  auto m = puncture_mesh();
  BssnState s;
  init_puncture(*m, s);
  const std::size_t n = m->num_dofs();
  std::vector<Real> out(2 * n);
  simgpu::GpuRuntime rt;
  gw::compute_psi4_field(*m, s, bssn::BssnParams{}, out.data(),
                         out.data() + n, make_space(b, rt));
  if (b == Backend::kSimGpu) {
    // Psi4 launches under its own kernel names, so the pinned unzip and
    // zip records of the RHS pipeline never see extraction.
    EXPECT_TRUE(rt.has_kernel("psi4-unzip"));
    EXPECT_TRUE(rt.has_kernel("psi4"));
    EXPECT_FALSE(rt.has_kernel("octant-to-patch"));
    EXPECT_FALSE(rt.has_kernel("patch-to-octant"));
  }
  return out;
}

TEST(ExecSpaceMatrix, Psi4FieldIsBitwiseIdenticalAcrossBackends) {
  const std::vector<Real> ref = run_psi4(Backend::kSerial, 1);
  for (Backend b : kBackends)
    for (int threads : {1, 4}) {
      if (b == Backend::kSerial && threads == 1) continue;
      const std::vector<Real> run = run_psi4(b, threads);
      EXPECT_EQ(std::memcmp(run.data(), ref.data(), ref.size() * sizeof(Real)),
                0)
          << exec_space::backend_name(b) << " threads " << threads;
    }
  exec::ThreadPool::set_global_threads(1);
}

/// sweep_rhs's launch with every octant evaluating all 7^3 interior points
/// through the staged kernel: the unmasked reference of the owned-row
/// sweep.
void sweep_rhs_all_rows(const ExecSpace& es, const Mesh& m,
                        const bssn::BssnParams& prm,
                        std::vector<bssn::DerivWorkspace>& ws, OctIndex begin,
                        OctIndex end, const Real* pin, Real* pout,
                        OpCounts* counts) {
  es.team_for(
      LaunchSpec{"bssn-rhs", "rhs", std::uint64_t(end - begin), 0},
      end - begin, /*grain=*/4, counts,
      [&](const exec_space::TeamMember& tm, std::int64_t eb, std::int64_t ee,
          OpCounts& c) {
        for (std::int64_t o = eb; o < ee; ++o) {
          const Real* in[bssn::kNumVars];
          Real* out[bssn::kNumVars];
          for (int v = 0; v < bssn::kNumVars; ++v) {
            const std::size_t off = exec_space::patch_offset(
                o, v, bssn::kNumVars, mesh::kPatchPts);
            in[v] = pin + off;
            out[v] = pout + off;
          }
          const OctIndex e = begin + static_cast<OctIndex>(o);
          bssn::bssn_rhs_patch(in, out, m.patch_geom(e),
                               m.domain().half_extent, prm,
                               ws[static_cast<std::size_t>(tm.lane())], &c);
        }
      });
}

/// One RHS evaluation, chunked as RhsPipeline does: unzip, then `rhs`
/// (owned rows through sweep_rhs, or all rows through the reference), then
/// the zip. OpCounts of the RHS and zip sweeps land in rhs_c and zip_c.
BssnState rhs_eval(const ExecSpace& es, const Mesh& m, const BssnState& u,
                   int chunk, bool all_rows, OpCounts& rhs_c,
                   OpCounts& zip_c) {
  bssn::BssnParams prm;
  prm.ko_sigma = 0.3;
  std::vector<bssn::DerivWorkspace> ws(
      static_cast<std::size_t>(es.max_lanes()));
  const exec_space::RhsDispatch d{&prm, nullptr, &ws, nullptr};
  const std::size_t block =
      std::size_t(chunk) * bssn::kNumVars * mesh::kPatchPts;
  // Unwritten patch points hold NaN until a chunk leaves stale values.
  std::vector<Real> pin(block), pout(block, std::nan(""));
  BssnState rhs;
  rhs.resize(m.num_dofs());
  const auto in = u.cptrs();
  const auto out = rhs.ptrs();
  const auto n = static_cast<OctIndex>(m.num_octants());
  for (OctIndex b = 0; b < n; b += chunk) {
    const OctIndex e = std::min<OctIndex>(b + chunk, n);
    exec_space::sweep_octant_to_patch(es, m, in.data(), b, e, pin.data(),
                                      mesh::UnzipMethod::kLoopOverOctants,
                                      nullptr);
    if (all_rows)
      sweep_rhs_all_rows(es, m, prm, ws, b, e, pin.data(), pout.data(),
                         &rhs_c);
    else
      exec_space::sweep_rhs(es, m, d, b, e, pin.data(), pout.data(), &rhs_c);
    exec_space::sweep_patch_to_octant(es, m, pout.data(), b, e, out.data(),
                                      &zip_c);
  }
  return rhs;
}

/// sweep_rhs evaluates only each octant's owned rows; after the zip the
/// RHS must equal the all-rows kernel's bit for bit, with the same
/// OpCounts and simgpu kernel records. The mesh has hanging points and
/// outer-boundary octants (Sommerfeld rows); chunks of 10 octants leave a
/// partial pipeline chunk and partial team chunks.
TEST(ExecSpaceMatrix, OwnedRowRhsMatchesAllRowsAfterZip) {
  exec::ThreadPool::set_global_threads(1);
  auto m = puncture_mesh();
  constexpr int kChunk = 10;
  ASSERT_GT(m->num_hanging(), 0u);
  ASSERT_NE(m->num_octants() % kChunk, 0u);
  BssnState u;
  init_puncture(*m, u);
  // Perturb every field so the shift has both signs and no row is trivial.
  Rng rng(43);
  for (int v = 0; v < bssn::kNumVars; ++v)
    for (std::size_t i = 0; i < u.num_dofs(); ++i)
      u.field(v)[i] += rng.uniform(-1e-3, 1e-3);
  std::size_t skipped = 0;
  for (OctIndex e = 0; e < OctIndex(m->num_octants()); ++e)
    skipped += m->owned_rows(e) != mesh::kAllRows;
  ASSERT_GT(skipped, 0u);

  simgpu::GpuRuntime rt_ref;
  OpCounts rhs_ref, zip_ref;
  const BssnState ref = rhs_eval(ExecSpace::simgpu(rt_ref), *m, u, kChunk,
                                 /*all_rows=*/true, rhs_ref, zip_ref);
  for (Backend b : kBackends)
    for (int threads : {1, 2, 7})
      for (int width : {1, 4}) {
        exec::ThreadPool::set_global_threads(threads);
        simgpu::GpuRuntime rt;
        ExecSpace es = make_space(b, rt);
        es.set_vector_policy({width});
        OpCounts rhs_c, zip_c;
        const BssnState got =
            rhs_eval(es, *m, u, kChunk, /*all_rows=*/false, rhs_c, zip_c);
        const std::string what = std::string(exec_space::backend_name(b)) +
                                 " threads " + std::to_string(threads) +
                                 " width " + std::to_string(width);
        for (int v = 0; v < bssn::kNumVars; ++v)
          ASSERT_EQ(std::memcmp(got.field(v), ref.field(v),
                                u.num_dofs() * sizeof(Real)),
                    0)
              << what << " var " << v;
        for (const auto& [c, r] :
             {std::pair{rhs_c, rhs_ref}, std::pair{zip_c, zip_ref}}) {
          EXPECT_EQ(c.flops, r.flops) << what;
          EXPECT_EQ(c.bytes_read, r.bytes_read) << what;
          EXPECT_EQ(c.bytes_written, r.bytes_written) << what;
        }
        if (b != Backend::kSimGpu) continue;
        for (const char* k : {"bssn-rhs", "patch-to-octant"}) {
          const auto& a = rt.record(k);
          const auto& r = rt_ref.record(k);
          EXPECT_EQ(a.launches, r.launches) << what << " " << k;
          EXPECT_EQ(a.blocks, r.blocks) << what << " " << k;
          EXPECT_EQ(a.counts.flops, r.counts.flops) << what << " " << k;
          EXPECT_EQ(a.counts.bytes_read, r.counts.bytes_read)
              << what << " " << k;
          EXPECT_EQ(a.counts.bytes_written, r.counts.bytes_written)
              << what << " " << k;
        }
      }
  exec::ThreadPool::set_global_threads(1);
}

}  // namespace
}  // namespace dgr
