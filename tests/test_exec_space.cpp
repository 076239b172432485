/// \file test_exec_space.cpp
/// \brief The exec_space backend-equivalence contract: the layer's
/// primitives (range_for, team_for, OpCounts slot merge) behave identically
/// on every backend, every patch kernel the sweeps run keeps the 7^3
/// output-block contract, and the determinism matrix pins every sweep
/// family bitwise across (backend, threads, SIMD width) rows on a minimal
/// two-depth mesh. tests/test_determinism.cpp holds the end-to-end pins.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bssn/initial_data.hpp"
#include "codegen/bssn_graph.hpp"
#include "codegen/fused_rhs.hpp"
#include "codegen/interp_rhs.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/pool.hpp"
#include "exec_space/bssn_sweeps.hpp"
#include "exec_space/exec_space.hpp"
#include "gw/psi4.hpp"
#include "mesh_fixtures.hpp"
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
    case Backend::kPool: return ExecSpace::host();
    case Backend::kSimGpu: return ExecSpace::simgpu(rt);
  }
  return ExecSpace::host();
}

// ------------------------------------------------------------ primitives --

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
  // A kernel body opening another sweep on the same space must not
  // corrupt the outer sweep's OpCounts slots: outer chunks add 100 and
  // inner chunks add 1, so an inner sweep that re-zeroed or wrote into an
  // outer slot would show in the outer total. One lane keeps every sweep
  // on the driver thread, where simgpu books launches.
  exec::ThreadPool::set_global_threads(1);
  for (Backend b : kBackends) {
    simgpu::GpuRuntime rt;
    const ExecSpace es = make_space(b, rt);
    OpCounts outer;
    es.range_for(LaunchSpec{"t-outer", "t-outer", 1, 0}, 8, 1, &outer,
                 [&](std::int64_t i0, std::int64_t i1, OpCounts& c) {
                   OpCounts inner;
                   es.range_for(LaunchSpec{"t-inner", "t-inner", 1, 0}, 4, 1,
                                &inner,
                                [&](std::int64_t, std::int64_t, OpCounts& ic) {
                                  ic.flops += 1;
                                });
                   EXPECT_EQ(inner.flops, 4u);
                   c.flops += 100 * std::uint64_t(i1 - i0);
                 });
    EXPECT_EQ(outer.flops, 800u) << exec_space::backend_name(b);
    if (b == Backend::kSimGpu) {
      ASSERT_TRUE(rt.has_kernel("t-outer"));
      ASSERT_TRUE(rt.has_kernel("t-inner"));
      EXPECT_EQ(rt.record("t-outer").launches, 1);
      EXPECT_EQ(rt.record("t-outer").counts.flops, 800u);
      EXPECT_EQ(rt.record("t-inner").launches, 8);
      EXPECT_EQ(rt.record("t-inner").counts.flops, 32u);
    }
  }
}

/// The output contract of every patch kernel (bssn/rhs.hpp): given an
/// octant's owned-row mask, a kernel writes exactly those x-rows of its 7^3
/// output blocks and nothing else, and the pack kernel at both widths is
/// bitwise equal to the staged kernel there. Each distinct (mask, outer
/// boundary) case of the adaptive and boundary-jump meshes runs once, with
/// the octant's geometry, so the Sommerfeld overwrite is masked too.
TEST(BlockContract, EveryPatchKernelWritesExactlyTheOwnedRows) {
  using bssn::kNumVars;
  using mesh::kOctPts;
  using mesh::kPatchPts;
  using mesh::kR;
  std::vector<Real> in(std::size_t(kNumVars) * kPatchPts);
  Rng rng(53);
  for (int v = 0; v < kNumVars; ++v)
    for (int p = 0; p < kPatchPts; ++p)
      in[std::size_t(v) * kPatchPts + p] =
          bssn::var_asymptotic(v) +
          (v >= bssn::kBeta0 && v < bssn::kBeta0 + 3 ? 0.3 : 0.01) *
              rng.uniform(-1, 1);
  const Real* pin[kNumVars];
  for (int v = 0; v < kNumVars; ++v) pin[v] = &in[std::size_t(v) * kPatchPts];
  bssn::BssnParams prm;
  prm.ko_sigma = 0.3;
  const auto bg = codegen::build_bssn_algebra_graph();
  const codegen::CompiledKernel staged_cse(
      bg.graph, std::vector<std::int32_t>(bg.outputs.begin(), bg.outputs.end()),
      codegen::Strategy::kStagedCse);
  bssn::DerivWorkspace ws;
  codegen::FusedWorkspace fws;
  bssn::MixedInnerSweeps inner;

  using Run = std::function<void(Real* const*, const mesh::PatchGeom&, Real,
                                 mesh::RowMask)>;
  struct Kernel {
    const char* name;
    int blocks;  // output blocks written per octant
    Run run;
  };
  const Kernel kernels[] = {
      {"pack w1", kNumVars,
       [&](Real* const* out, const mesh::PatchGeom& g, Real half,
           mesh::RowMask rows) {
         bssn::bssn_rhs_patch_packed<1>(pin, out, g, half, prm, ws, nullptr,
                                        rows);
       }},
      {"pack w4", kNumVars,
       [&](Real* const* out, const mesh::PatchGeom& g, Real half,
           mesh::RowMask rows) {
         bssn::bssn_rhs_patch_packed<4>(pin, out, g, half, prm, ws, nullptr,
                                        rows);
       }},
      {"staged", kNumVars,
       [&](Real* const* out, const mesh::PatchGeom& g, Real half,
           mesh::RowMask rows) {
         bssn::bssn_rhs_patch(pin, out, g, half, prm, ws, nullptr, rows);
       }},
      {"interp", kNumVars,
       [&](Real* const* out, const mesh::PatchGeom& g, Real,
           mesh::RowMask rows) {
         codegen::bssn_rhs_patch_interp(pin, out, g, prm, ws, staged_cse,
                                        nullptr, rows);
       }},
      {"fused w1", kNumVars,
       [&](Real* const* out, const mesh::PatchGeom& g, Real half,
           mesh::RowMask rows) {
         codegen::bssn_rhs_patch_fused(pin, out, g, half, prm, staged_cse,
                                       fws, nullptr, 1, rows);
       }},
      {"fused w4", kNumVars,
       [&](Real* const* out, const mesh::PatchGeom& g, Real half,
           mesh::RowMask rows) {
         codegen::bssn_rhs_patch_fused(pin, out, g, half, prm, staged_cse,
                                       fws, nullptr, 4, rows);
       }},
      {"psi4 w1", 2,
       [&](Real* const* out, const mesh::PatchGeom& g, Real,
           mesh::RowMask rows) {
         gw::psi4_patch<1>(pin, g, prm.chi_floor, rows, inner, out[0],
                           out[1]);
       }},
      {"psi4 w4", 2,
       [&](Real* const* out, const mesh::PatchGeom& g, Real,
           mesh::RowMask rows) {
         gw::psi4_patch<4>(pin, g, prm.chi_floor, rows, inner, out[0],
                           out[1]);
       }},
  };

  constexpr Real kSentinel = 12345.0;
  const auto is_sentinel = [&](const Real& x) {
    return std::memcmp(&x, &kSentinel, sizeof(Real)) == 0;
  };
  const std::pair<const char*, mesh::Mesh> meshes[] = {
      {"adaptive", mesh::make_adaptive_mesh()},
      {"boundary_jump", mesh::make_boundary_jump_mesh()},
  };
  int partial_masks = 0, boundary_cases = 0;
  for (const auto& [name, m] : meshes) {
    const Real half = m.domain().half_extent;
    std::map<std::pair<mesh::RowMask, bool>, OctIndex> cases;
    for (OctIndex e = 0; e < OctIndex(m.num_octants()); ++e) {
      const mesh::PatchGeom g = m.patch_geom(e);
      bool boundary = false;
      for (int a = 0; a < 3; ++a)
        for (const Real x : {g.origin[a] + mesh::kPad * g.h,
                             g.origin[a] + (mesh::kPad + kR - 1) * g.h})
          boundary = boundary || std::abs(std::abs(x) - half) < 1e-9 * half;
      cases.emplace(std::make_pair(m.owned_rows(e), boundary), e);
    }
    for (const auto& [key, e] : cases) {
      const mesh::RowMask rows = key.first;
      partial_masks += rows != mesh::kAllRows;
      boundary_cases += key.second;
      const mesh::PatchGeom g = m.patch_geom(e);
      std::map<std::string, std::vector<Real>> got;
      for (const Kernel& k : kernels) {
        const std::string what = std::string(name) + " octant " +
                                 std::to_string(e) + " " + k.name;
        // 24 blocks plus one guard block that no kernel may touch.
        std::vector<Real> buf(std::size_t(kNumVars + 1) * kOctPts, kSentinel);
        Real* out[kNumVars];
        for (int v = 0; v < kNumVars; ++v)
          out[v] = &buf[std::size_t(v) * kOctPts];
        k.run(out, g, half, rows);
        for (int v = 0; v <= kNumVars; ++v)
          for (int kz = 0; kz < kR; ++kz)
            for (int jy = 0; jy < kR; ++jy)
              for (int ix = 0; ix < kR; ++ix) {
                const bool want = v < k.blocks && mesh::has_row(rows, jy, kz);
                const Real& x = buf[std::size_t(v) * kOctPts +
                                    mesh::oct_idx(ix, jy, kz)];
                ASSERT_EQ(!is_sentinel(x), want)
                    << what << " block " << v << " point " << ix << "," << jy
                    << "," << kz;
              }
        got[k.name] = std::move(buf);
      }
      const std::string what =
          std::string(name) + " octant " + std::to_string(e);
      for (const char* pack : {"pack w1", "pack w4"})
        ASSERT_EQ(std::memcmp(got[pack].data(), got["staged"].data(),
                              got["staged"].size() * sizeof(Real)),
                  0)
            << what << " " << pack << " vs staged";
    }
  }
  EXPECT_GT(partial_masks, 0);
  EXPECT_GT(boundary_cases, 0);
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
  // An empty sweep runs no chunk but is still one (zero-count) launch.
  es.range_for(LaunchSpec{"t-empty", nullptr, 0, 0}, 0, 8, &out,
               [&](std::int64_t, std::int64_t, OpCounts&) {
                 ADD_FAILURE() << "empty sweep ran a chunk";
               });
  ASSERT_TRUE(rt.has_kernel("t-empty"));
  EXPECT_EQ(rt.record("t-empty").launches, 1);
  EXPECT_EQ(rt.record("t-empty").per_launch.at(0).flops, 0u);
}

// ------------------------------------------------- determinism matrix --

/// bbh_global's geometry around one puncture: 120 octants on two depths
/// (levels 2 and 3), with hanging points and owned-row skips.
std::shared_ptr<Mesh> matrix_mesh() {
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

/// One (backend, threads, SIMD width) combination. The RHS and Psi4 run
/// the same pack bodies at both widths: simd<double, 1> at width 1,
/// simd<double, 4> at width 4.
struct Row {
  Backend backend;
  int threads;
  int width;
};

std::string row_name(const Row& r) {
  return std::string(exec_space::backend_name(r.backend)) + " threads " +
         std::to_string(r.threads) + " width " + std::to_string(r.width);
}

/// serial x 1 thread, then pool and simgpu x threads {1, 2, 7}, each at
/// widths 1 and 4; rows[0] is the reference. The serial backend runs every
/// chunk on the calling thread, so more threads would repeat its row.
std::vector<Row> matrix_rows() {
  std::vector<Row> rows;
  for (int width : {1, 4}) rows.push_back({Backend::kSerial, 1, width});
  for (Backend b : {Backend::kPool, Backend::kSimGpu})
    for (int threads : {1, 2, 7})
      for (int width : {1, 4}) rows.push_back({b, threads, width});
  return rows;
}

/// Everything one row computes from puncture initial data.
struct RowRun {
  BssnState rk4, cycle;  ///< after one RK4 step / one sub-cycled cycle
  OpCounts rk4_counts, cycle_counts;
  std::vector<Real> psi4;  ///< Re then Im
  double cycle_modeled = 0;  ///< simgpu rows: the cycle's modeled seconds
};

RowRun run_row(const Row& row, const std::shared_ptr<Mesh>& m) {
  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;
  scfg.simd_width = row.width;
  const std::string what = row_name(row);
  RowRun out;
  {
    simgpu::GpuRuntime rt;
    solver::BssnCtx ctx(m, scfg, make_space(row.backend, rt));
    init_puncture(*m, ctx.state());
    ctx.rk4_step();
    out.rk4 = ctx.state();
    out.rk4_counts = ctx.op_counts();
  }
  {
    // One cycle runs both fill modes (the linear bootstrap at substep 0,
    // the quadratic dense read at substep 1), the dense save and the
    // depth-restricted update.
    simgpu::GpuRuntime rt;
    solver::BssnCtx ctx(m, scfg, make_space(row.backend, rt));
    init_puncture(*m, ctx.state());
    ctx.subcycle_cycle(ctx.suggested_dt());
    out.cycle = ctx.state();
    out.cycle_counts = ctx.op_counts();
    if (row.backend == Backend::kSimGpu) {
      // The machine model prices the sub-cycled sweeps.
      for (const char* k :
           {"subcycle-fill", "subcycle-save", "subcycle-update"})
        EXPECT_TRUE(rt.has_kernel(k)) << what << " " << k;
      out.cycle_modeled = rt.modeled_total_seconds();
      EXPECT_GT(out.cycle_modeled, 0.0) << what;
    }
  }
  {
    BssnState s;
    init_puncture(*m, s);
    const std::size_t n = m->num_dofs();
    out.psi4.resize(2 * n);
    simgpu::GpuRuntime rt;
    ExecSpace es = make_space(row.backend, rt);
    es.set_vector_policy({row.width});
    gw::compute_psi4_field(*m, s, bssn::BssnParams{}, out.psi4.data(),
                           out.psi4.data() + n, es);
    if (row.backend == Backend::kSimGpu) {
      // Psi4 launches under its own kernel names, so the pinned unzip and
      // zip records of the RHS pipeline never see extraction.
      EXPECT_TRUE(rt.has_kernel("psi4-unzip")) << what;
      EXPECT_TRUE(rt.has_kernel("psi4")) << what;
      EXPECT_FALSE(rt.has_kernel("octant-to-patch")) << what;
      EXPECT_FALSE(rt.has_kernel("patch-to-octant")) << what;
    }
  }
  return out;
}

bool bitwise_equal(const BssnState& a, const BssnState& b) {
  if (a.num_dofs() != b.num_dofs()) return false;
  for (int v = 0; v < bssn::kNumVars; ++v)
    if (std::memcmp(a.field(v), b.field(v), a.num_dofs() * sizeof(Real)))
      return false;
  return true;
}

void expect_counts_eq(const OpCounts& a, const OpCounts& b,
                      const std::string& what) {
  EXPECT_EQ(a.flops, b.flops) << what;
  EXPECT_EQ(a.bytes_read, b.bytes_read) << what;
  EXPECT_EQ(a.bytes_written, b.bytes_written) << what;
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
            in[v] = pin + exec_space::patch_offset(o, v, bssn::kNumVars,
                                                   mesh::kPatchPts);
            out[v] = pout + exec_space::patch_offset(o, v, bssn::kNumVars,
                                                     mesh::kOctPts);
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
  const std::size_t slots = std::size_t(chunk) * bssn::kNumVars;
  // Unwritten block points hold NaN until a chunk leaves stale values.
  std::vector<Real> pin(slots * mesh::kPatchPts);
  std::vector<Real> pout(slots * mesh::kOctPts, std::nan(""));
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

/// Every row must reproduce the reference row bit for bit: the state after
/// an RK4 step and after a sub-cycled cycle, their OpCounts, and the Psi4
/// field. On every row, sweep_rhs evaluates only each octant's owned rows;
/// after the zip the RHS must equal the all-rows kernel's (run serially)
/// bit for bit, with the same OpCounts, and simgpu rows must record them.
TEST(DeterminismMatrix, EverySweepIsBitwiseIdenticalOnEveryRow) {
  auto m = matrix_mesh();
  // The mesh features the rows rely on: two depths (so a cycle runs two
  // fine substeps), hanging points, octants that skip owned rows, and a
  // chunking that leaves a partial last chunk.
  constexpr int kChunk = 7;
  ASSERT_EQ(mesh::SubcycleIndex::build(*m).cycle(), 2);
  ASSERT_GT(m->num_hanging(), 0u);
  ASSERT_NE(m->num_octants() % kChunk, 0u);
  std::size_t skipped = 0;
  for (OctIndex e = 0; e < OctIndex(m->num_octants()); ++e)
    skipped += m->owned_rows(e) != mesh::kAllRows;
  ASSERT_GT(skipped, 0u);

  BssnState u;
  init_puncture(*m, u);
  // Perturb every field so the shift has both signs and no row is trivial.
  Rng rng(43);
  for (int v = 0; v < bssn::kNumVars; ++v)
    for (std::size_t i = 0; i < u.num_dofs(); ++i)
      u.field(v)[i] += rng.uniform(-1e-3, 1e-3);
  exec::ThreadPool::set_global_threads(1);
  OpCounts rhs_ref, zip_ref;
  const BssnState rhs_all = rhs_eval(ExecSpace::serial(), *m, u, kChunk,
                                     /*all_rows=*/true, rhs_ref, zip_ref);
  const std::uint64_t chunks = (m->num_octants() + kChunk - 1) / kChunk;

  const std::vector<Row> rows = matrix_rows();
  ASSERT_EQ(rows.size(), 14u);
  RowRun ref;
  double modeled_ref = 0;
  for (const Row& row : rows) {
    exec::ThreadPool::set_global_threads(row.threads);
    const std::string what = row_name(row);
    RowRun run = run_row(row, m);
    if (row.backend == Backend::kSimGpu) {
      if (modeled_ref == 0) modeled_ref = run.cycle_modeled;
      EXPECT_EQ(run.cycle_modeled, modeled_ref) << what;
    }
    if (&row == &rows[0]) {
      ref = std::move(run);
    } else {
      EXPECT_TRUE(bitwise_equal(run.rk4, ref.rk4)) << what << " rk4";
      EXPECT_TRUE(bitwise_equal(run.cycle, ref.cycle)) << what << " cycle";
      expect_counts_eq(run.rk4_counts, ref.rk4_counts, what + " rk4");
      expect_counts_eq(run.cycle_counts, ref.cycle_counts, what + " cycle");
      ASSERT_EQ(run.psi4.size(), ref.psi4.size());
      EXPECT_EQ(std::memcmp(run.psi4.data(), ref.psi4.data(),
                            ref.psi4.size() * sizeof(Real)),
                0)
          << what << " psi4";
    }

    simgpu::GpuRuntime rt;
    ExecSpace es = make_space(row.backend, rt);
    es.set_vector_policy({row.width});
    OpCounts rhs_c, zip_c;
    const BssnState got =
        rhs_eval(es, *m, u, kChunk, /*all_rows=*/false, rhs_c, zip_c);
    EXPECT_TRUE(bitwise_equal(got, rhs_all)) << what << " owned-row rhs";
    expect_counts_eq(rhs_c, rhs_ref, what + " rhs");
    expect_counts_eq(zip_c, zip_ref, what + " zip");
    if (row.backend != Backend::kSimGpu) continue;
    // One launch per pipeline chunk, one block per octant (per octant and
    // variable for the zip), and the all-rows kernel's counts.
    const auto& rhs_rec = rt.record("bssn-rhs");
    const auto& zip_rec = rt.record("patch-to-octant");
    EXPECT_EQ(std::uint64_t(rhs_rec.launches), chunks) << what;
    EXPECT_EQ(std::uint64_t(zip_rec.launches), chunks) << what;
    EXPECT_EQ(rhs_rec.blocks, m->num_octants()) << what;
    EXPECT_EQ(zip_rec.blocks, m->num_octants() * bssn::kNumVars) << what;
    expect_counts_eq(rhs_rec.counts, rhs_ref, what + " bssn-rhs");
    expect_counts_eq(zip_rec.counts, zip_ref, what + " patch-to-octant");
  }
  EXPECT_GT(modeled_ref, 0.0);
  exec::ThreadPool::set_global_threads(1);
}

}  // namespace
}  // namespace dgr
