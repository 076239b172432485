/// \file bench_fig14_roofline.cpp
/// \brief Regenerates Fig. 14: empirical roofline for the key kernels on
/// the (modeled) A100 — overall RHS, the algebraic stage A, and the
/// octant-to-patch operation on the m1..m5 grids. Arithmetic intensities
/// come from the kernels' exact op counters; attainable GFlops/s from the
/// paper's machine parameters.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "codegen/bssn_graph.hpp"
#include "codegen/interp_rhs.hpp"
#include "common/timer.hpp"
#include "perf/machine_model.hpp"
#include "simgpu/gpu_bssn.hpp"

int main(int argc, char** argv) {
  using namespace dgr;
  bench::header("Fig. 14", "empirical roofline on the A100 model");
  bench::Reporter rep("fig14_roofline", argc, argv);

  const perf::MachineModel a100 = perf::a100();
  std::printf("  peak: %.0f GFlops/s DP, %.0f GB/s; ridge AI = %.2f\n",
              a100.peak_gflops(), a100.peak_bandwidth_gbs(), a100.ridge_ai());
  std::printf("\n  %-20s | %-8s | %-15s | %-14s | %-22s\n", "kernel", "AI",
              "attainable GF/s", "achieved GF/s", "paper reference");

  // Attainable = classic roofline at the kernel's AI; achieved = flops over
  // the modeled per-block time (per-octant working set, as the GPU kernels
  // launch one block per octant).
  auto report = [&](const char* name, const OpCounts& c, std::uint64_t blocks,
                    const char* ref, const char* key = nullptr,
                    double paper_ai = 0) {
    const double ai = c.arithmetic_intensity();
    OpCounts per_block;
    per_block.flops = c.flops / std::max<std::uint64_t>(1, blocks);
    per_block.bytes_read = c.bytes_read / std::max<std::uint64_t>(1, blocks);
    per_block.bytes_written =
        c.bytes_written / std::max<std::uint64_t>(1, blocks);
    const double achieved =
        1e-9 * double(c.flops) /
        (blocks * a100.time_finite_cache(per_block));
    std::printf("  %-20s | %-8.2f | %-15.0f | %-14.0f | %-22s\n", name, ai,
                a100.roofline_gflops(ai), achieved, ref);
    if (key) {
      rep.pair(std::string("ai_") + key, paper_ai, ai);
      rep.metric(std::string("achieved_gflops_") + key, achieved);
    }
  };

  // RHS and algebraic stage on a puncture pipeline run.
  {
    auto m = bench::bbh_mesh(1.0, 16.0, 2.0, 2, 4);
    simgpu::GpuBssnSolver gpu(m, solver::SolverConfig{});
    bssn::BssnState s;
    bench::init_bbh_state(*m, 1.0, 2.0, s);
    gpu.upload(s);
    gpu.rk4_step();
    const auto& rhs_rec = gpu.runtime().record("bssn-rhs");
    report("RHS (D + A)", rhs_rec.counts, rhs_rec.blocks,
           "AI~0.62, ~700 GF/s", "rhs", 0.62);

    // The A stage alone: per-point flop and byte accounting of Eq. 21b.
    OpCounts a_only;
    a_only.flops = std::uint64_t(bssn::kAFlopsPerPoint);
    a_only.bytes_read = (24 * 2 + 210) * sizeof(Real);
    a_only.bytes_written = 24 * sizeof(Real);
    report("A (algebraic)", a_only, 1, "Q_A ~ 1.94 (Eq. 21b)", "algebraic",
           1.94);
  }

  // octant-to-patch on the adaptivity family.
  for (int fam = 1; fam <= 5; ++fam) {
    auto m = bench::adaptivity_mesh(fam);
    constexpr int kVars = 24;
    std::vector<Real> fields(std::size_t(kVars) * m->num_dofs(), 1.0);
    std::vector<const Real*> fp(kVars);
    for (int v = 0; v < kVars; ++v)
      fp[v] = fields.data() + std::size_t(v) * m->num_dofs();
    const int chunk = 64;
    std::vector<Real> patches(std::size_t(chunk) * kVars * mesh::kPatchPts);
    OpCounts c;
    for (OctIndex b = 0; b < OctIndex(m->num_octants()); b += chunk) {
      const OctIndex e =
          std::min<OctIndex>(b + chunk, OctIndex(m->num_octants()));
      m->unzip(fp.data(), kVars, b, e, patches.data(),
               mesh::UnzipMethod::kLoopOverOctants, &c);
    }
    char name[32];
    std::snprintf(name, sizeof name, "octant-to-patch m%d", fam);
    char key[16];
    std::snprintf(key, sizeof key, "o2p_m%d", fam);
    report(name, c, m->num_octants(),
           fam == 1 ? "~900 GF/s, AI 4.07" : "AI falls with m", key,
           fam == 1 ? 4.07 : NAN);
  }
  bench::note("all kernels sit left of the ridge point (memory bound),");
  bench::note("matching the paper's conclusion Q < 6.25 => bandwidth limited.");

  // Host vector-units roofline: the staged+CSE register-machine program
  // (the Fig. 11 interpreter) against the production pack kernel, measured
  // on this machine against the calibrated host model. The pack kernel
  // counts the staged kernel's OpCounts, so both pack rows share one AI;
  // the SIMD width lifts achieved flops toward the vector ceiling.
  {
    const perf::MachineModel host = perf::calibrated_host();
    const int wact = simd_active_width();
    std::printf(
        "\n  host (%s): peak %.1f GFlops/s, %.1f GB/s; ridge AI = %.2f; "
        "simd width %d\n",
        host.name.c_str(), host.peak_gflops(), host.peak_bandwidth_gbs(),
        host.ridge_ai(), wact);
    std::printf("  %-24s | %-8s | %-15s | %-14s\n", "host kernel", "AI",
                "attainable GF/s", "achieved GF/s");

    const auto bg = codegen::build_bssn_algebra_graph();
    const codegen::CompiledKernel staged(
        bg.graph,
        std::vector<std::int32_t>(bg.outputs.begin(), bg.outputs.end()),
        codegen::Strategy::kStagedCse);
    constexpr int kVars = bssn::kNumVars;
    std::vector<Real> in(std::size_t(kVars) * mesh::kPatchPts);
    std::vector<Real> out(std::size_t(kVars) * mesh::kOctPts);
    for (int v = 0; v < kVars; ++v)
      for (int p = 0; p < mesh::kPatchPts; ++p)
        in[std::size_t(v) * mesh::kPatchPts + p] =
            bssn::var_asymptotic(v) + 1e-3 * std::sin(0.1 * p + v);
    const Real* pi[kVars];
    Real* po[kVars];
    for (int v = 0; v < kVars; ++v) {
      pi[v] = &in[std::size_t(v) * mesh::kPatchPts];
      po[v] = &out[std::size_t(v) * mesh::kOctPts];
    }
    mesh::PatchGeom geom{{0, 0, 0}, 0.05};
    bssn::BssnParams prm;
    prm.sommerfeld = false;
    bssn::DerivWorkspace dws;

    const int evals = 20;
    const auto row = [&](const char* name, const char* key,
                         const OpCounts& c, double seconds) {
      const double ai = c.arithmetic_intensity();
      const double achieved = 1e-9 * double(c.flops) * evals / seconds;
      std::printf("  %-24s | %-8.2f | %-15.1f | %-14.1f\n", name, ai,
                  host.roofline_gflops(ai), achieved);
      rep.metric(std::string("host_ai_") + key, ai);
      rep.metric(std::string("host_gflops_") + key, achieved);
    };
    const auto pack_at_wact = wact == 4 ? bssn::bssn_rhs_patch_packed<4>
                                        : bssn::bssn_rhs_patch_packed<1>;
    OpCounts ci, cp;
    codegen::bssn_rhs_patch_interp(pi, po, geom, prm, dws, staged, &ci);
    bssn::bssn_rhs_patch_packed<1>(pi, po, geom, 1e9, prm, dws, &cp);
    WallTimer t0;
    for (int e = 0; e < evals; ++e)
      codegen::bssn_rhs_patch_interp(pi, po, geom, prm, dws, staged);
    const double sec_interp = t0.seconds();
    WallTimer t1;
    for (int e = 0; e < evals; ++e)
      bssn::bssn_rhs_patch_packed<1>(pi, po, geom, 1e9, prm, dws);
    const double sec_w1 = t1.seconds();
    WallTimer t2;
    for (int e = 0; e < evals; ++e)
      pack_at_wact(pi, po, geom, 1e9, prm, dws, nullptr, mesh::kAllRows);
    const double sec_simd = t2.seconds();
    row("staged interp (arrays)", "interp", ci, sec_interp);
    row("pack width 1", "pack_w1", cp, sec_w1);
    row("pack active width", "pack_simd", cp, sec_simd);
    rep.metric("host_simd_width", double(wact));
    bench::note("the pack rows count the staged kernel's OpCounts (the");
    bench::note("paper's model), so both share one AI, and the explicit");
    bench::note("width-" + std::to_string(wact) +
                " packs raise achieved GF/s. The calibrated peak is a");
    bench::note("multiply-add loop on packs of the active width, so no row");
    bench::note("sits above its attainable column; at width 4 the ridge");
    bench::note("moves up to the kernels' AI.");
  }
  return 0;
}
