/// \file bench_fig11_rhs_variants.cpp
/// \brief Regenerates Fig. 11: time per octant for 10 RHS evaluations using
/// the SymPyGR-CSE baseline, binary-reduce, and staged+CSE generated
/// kernels (register-machine execution with 56 registers), plus the
/// hand-compiled staged kernel for reference and the production pack
/// kernel at the active SIMD width against it.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "codegen/bssn_graph.hpp"
#include "codegen/interp_rhs.hpp"
#include "common/timer.hpp"
#include "simd/simd.hpp"

int main(int argc, char** argv) {
  using namespace dgr;
  using namespace dgr::codegen;
  bench::header("Fig. 11", "RHS evaluation: codegen variants, 10 evals/octant");
  bench::Reporter rep("fig11_rhs_variants", argc, argv);

  const auto bg = build_bssn_algebra_graph();
  std::vector<std::int32_t> roots(bg.outputs.begin(), bg.outputs.end());
  const CompiledKernel kernels[] = {
      CompiledKernel(bg.graph, roots, Strategy::kSympygrCse),
      CompiledKernel(bg.graph, roots, Strategy::kBinaryReduce),
      CompiledKernel(bg.graph, roots, Strategy::kStagedCse)};

  // Synthetic near-flat patches (RHS cost is grid-independent, §V-A).
  constexpr int kVars = bssn::kNumVars;
  std::vector<Real> in(std::size_t(kVars) * mesh::kPatchPts);
  std::vector<Real> out(std::size_t(kVars) * mesh::kOctPts);  // 7^3 blocks
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
  bssn::DerivWorkspace ws;

  std::printf(
      "  octants | sympygr-cse | binary-reduce | staged-cse | compiled || "
      "speedups (paper 1.00 / 1.55 / 1.76)\n");
  std::printf("          |   (ms/octant for 10 RHS evaluations)\n");
  for (int noct : {8, 16, 32}) {
    double times[3];
    for (int s = 0; s < 3; ++s) {
      WallTimer t;
      for (int e = 0; e < noct; ++e)
        for (int rep = 0; rep < 10; ++rep)
          bssn_rhs_patch_interp(pi, po, geom, prm, ws, kernels[s]);
      times[s] = t.milliseconds() / noct;
    }
    WallTimer t;
    for (int e = 0; e < noct; ++e)
      for (int rep = 0; rep < 10; ++rep)
        bssn::bssn_rhs_patch(pi, po, geom, 1e9, prm, ws);
    const double t_comp = t.milliseconds() / noct;
    const std::string oc = std::to_string(noct);
    rep.pair("speedup_binary_reduce_" + oc, 1.55, times[0] / times[1], "x");
    rep.pair("speedup_staged_cse_" + oc, 1.76, times[0] / times[2], "x");
    rep.metric("compiled_ms_per_octant_" + oc, t_comp);
    std::printf(
        "  %-7d | %-11.2f | %-13.2f | %-10.2f | %-8.2f || 1.00 / %.2f / "
        "%.2f\n",
        noct, times[0], times[1], times[2], t_comp, times[0] / times[1],
        times[0] / times[2]);
  }
  bench::note("per-octant cost is constant in octant count (as in the paper's");
  bench::note("flat curves); spill traffic costs explicit load/store micro-ops");
  bench::note("in the register machine, so fewer spills -> faster kernels.");

  // The production kernel at the active SIMD width — the pack body
  // exec_space::sweep_rhs runs at width 1 and 4 — against the staged
  // scalar kernel, its oracle. The target column is the ROADMAP gate
  // (1.8x), not a paper figure; at width 1 the ratio is the pack body's
  // gain over the staged one. Staged and pack calls alternate one by one,
  // so host drift hits both kernels alike, and the speedup is the median
  // of the per-pair ratios, with its quartiles.
  const int wact = simd_active_width();
  const auto compiled_at_wact = wact == 4 ? bssn::bssn_rhs_patch_packed<4>
                                          : bssn::bssn_rhs_patch_packed<1>;
  // Nearest-rank quantile of a sorted sample.
  const auto quantile = [](const std::vector<double>& v, double f) {
    return v[std::size_t(f * double(v.size() - 1) + 0.5)];
  };
  std::printf("\n  compiled kernel, staged vs pack at width %d (%s):\n",
              wact, simd_backend_name(wact));
  std::printf(
      "  octants | staged (ms) | pack (ms) | speedup [q1, q3] (target 1.80)\n");
  for (int noct : {8, 16, 32}) {
    double t_scalar = 0, t_simd = 0;
    std::vector<double> ratios;
    for (int e = 0; e < noct * 10; ++e) {
      WallTimer ts;
      bssn::bssn_rhs_patch(pi, po, geom, 1e9, prm, ws);
      const double staged = ts.milliseconds();
      WallTimer tv;
      compiled_at_wact(pi, po, geom, 1e9, prm, ws, nullptr, mesh::kAllRows);
      const double pack = tv.milliseconds();
      t_scalar += staged / noct;
      t_simd += pack / noct;
      ratios.push_back(staged / pack);
    }
    std::sort(ratios.begin(), ratios.end());
    const double med = quantile(ratios, 0.5), q1 = quantile(ratios, 0.25),
                 q3 = quantile(ratios, 0.75);
    const std::string oc = std::to_string(noct);
    rep.pair("compiled_simd_speedup_" + oc, 1.8, med, "x");
    rep.metric("compiled_simd_speedup_" + oc + "_q1", q1);
    rep.metric("compiled_simd_speedup_" + oc + "_q3", q3);
    rep.metric("compiled_simd_ms_per_octant_" + oc, t_simd);
    std::printf("  %-7d | %-11.2f | %-9.2f | %.2f [%.2f, %.2f]\n", noct,
                t_scalar, t_simd, med, q1, q3);
  }
  {
    // Both kernels write into a sentinel-filled buffer, so a point one of
    // them leaves unwritten shows up as a mismatch.
    std::vector<Real> ref(out.size());
    std::fill(out.begin(), out.end(), 12345.0);
    bssn::bssn_rhs_patch(pi, po, geom, 1e9, prm, ws);
    ref = out;
    std::fill(out.begin(), out.end(), 12345.0);
    compiled_at_wact(pi, po, geom, 1e9, prm, ws, nullptr, mesh::kAllRows);
    const bool identical =
        std::memcmp(out.data(), ref.data(), out.size() * sizeof(Real)) == 0;
    rep.metric("compiled_bitwise_identical", identical ? 1.0 : 0.0);
    std::printf("  bitwise vs staged kernel: %s\n",
                identical ? "IDENTICAL" : "MISMATCH");
  }

  // Per-variant memory profile from the kernels' exact op counters: one RHS
  // evaluation each, reported as bytes moved per flop (the roofline x-axis
  // reciprocal).
  const char* vkeys[] = {"sympygr_cse", "binary_reduce", "staged_cse"};
  const char* vnames[] = {"sympygr-cse", "binary-reduce", "staged-cse"};
  std::printf("\n  %-16s | %-10s | %-11s | %-10s\n", "variant", "Mflop/oct",
              "MB/oct", "bytes/FLOP");
  for (int s = 0; s < 3; ++s) {
    OpCounts vc;
    bssn_rhs_patch_interp(pi, po, geom, prm, ws, kernels[s], &vc);
    const double bpf = double(vc.bytes_moved()) / double(vc.flops);
    rep.metric(std::string("bytes_per_flop_") + vkeys[s], bpf);
    std::printf("  %-16s | %-10.2f | %-11.2f | %-10.3f\n", vnames[s],
                1e-6 * double(vc.flops), 1e-6 * double(vc.bytes_moved()), bpf);
  }

  bench::note("compiled kernel: the same algebra template instantiated at a");
  bench::note("4-wide pack over the pack gather; bitwise-identical to its");
  bench::note("scalar body.");
  return 0;
}
