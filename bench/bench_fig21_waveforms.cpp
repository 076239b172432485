/// \file bench_fig21_waveforms.cpp
/// \brief Regenerates Fig. 21: the l=2, m=2 mode of r*psi4 for q = 1 and
/// q = 2 binaries, computed with the (simulated-)GPU pipeline and with the
/// CPU pipeline, overlaid. In this reproduction the two pipelines execute
/// identical kernels, so agreement is exact by construction; the figure's
/// scientific content — a quadrupole waveform whose amplitude/structure
/// differs between mass ratios — is reproduced at scaled-down size.

#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "gw/extract.hpp"
#include "simgpu/gpu_bssn.hpp"
#include "solver/bssn_ctx.hpp"

int main(int argc, char** argv) {
  using namespace dgr;
  bench::header("Fig. 21", "GW waveforms psi4 (2,2): GPU vs CPU, q = 1 and 2");
  bench::Reporter rep("fig21_waveforms", argc, argv);

  const Real sep = 2.0, half = 16.0, rext = 6.0;
  const int steps = 6;
  gw::WaveExtractor extractor({rext}, 2, 8);

  for (Real q : {1.0, 2.0}) {
    auto m = bench::bbh_mesh(q, half, sep, 2, 4);
    solver::SolverConfig ccfg;
    ccfg.bssn.ko_sigma = 0.3;

    solver::BssnCtx cpu(m, ccfg);
    bench::init_bbh_state(*m, q, sep, cpu.state());
    simgpu::GpuBssnSolver gpu(m, ccfg);
    gpu.upload(cpu.state());

    std::printf("\n  q = %.0f (%zu octants): t, Re r*psi4_22 (GPU), (CPU), "
                "|diff|\n", q, m->num_octants());
    const Real dt = cpu.suggested_dt();
    Real maxdiff = 0, maxamp = 0;
    for (int i = 0; i < steps; ++i) {
      cpu.rk4_step(dt);
      gpu.rk4_step(dt);
      const auto mc =
          extractor.extract_from_state(*m, cpu.state(), ccfg.bssn);
      const auto mg = gpu.extract_waves(extractor);
      const Real wc = rext * mc[0].mode(2, 2).real();
      const Real wg = rext * mg[0].mode(2, 2).real();
      maxdiff = std::max(maxdiff, std::abs(wg - wc));
      maxamp = std::max(maxamp, std::abs(wc));
      std::printf("    t=%7.4f  %+.6e  %+.6e  %.1e\n", cpu.time(), wg, wc,
                  std::abs(wg - wc));
    }
    std::printf("  q=%.0f: max |GPU-CPU| = %.2e (max amplitude %.2e)\n", q,
                maxdiff, maxamp);
    const std::string qs = "q" + std::to_string(int(q));
    rep.pair("gpu_cpu_maxdiff_" + qs, 0.0, maxdiff);
    rep.metric("max_amplitude_" + qs, maxamp);
  }
  bench::note("paper: GPU and CPU waveforms 'match very closely'; here the");
  bench::note("device pipeline is kernel-identical, so the match is exact;");
  bench::note("q=1 vs q=2 waveform amplitudes differ as expected.");
  return 0;
}
