/// \file bench_ablation_pipeline.cpp
/// \brief Ablations of the design choices DESIGN.md calls out:
///  (a) pipeline chunk size — the device-memory / launch-overhead tradeoff
///      of processing the octant pipeline in chunks (the GPU analogue is
///      patch-buffer residency; results are bit-identical by construction);
///  (b) unzip method inside the full solver — the end-to-end cost of
///      running Algorithm 1 with the loop-over-patches baseline instead of
///      the proposed loop-over-octants scatter;
///  (c) register budget — spill traffic of the binary-reduce kernel as the
///      per-thread register budget shrinks (the paper's launch-bounds
///      choice of 56 sits at the knee).

#include <cstdio>

#include "bench_common.hpp"
#include "codegen/bssn_graph.hpp"
#include "codegen/machine.hpp"
#include "common/timer.hpp"

int main(int argc, char** argv) {
  using namespace dgr;
  bench::header("Ablation", "chunk size / unzip method / register budget");
  bench::Reporter rep("ablation_pipeline", argc, argv);

  // (a) chunk size.
  {
    auto m = bench::bbh_mesh(1.0, 16.0, 2.0, 2, 4);
    std::printf("  (a) pipeline chunk size (1 RK4 step, %zu octants):\n",
                m->num_octants());
    std::printf("      chunk | patch buffers (MB) | wall (s)\n");
    for (int chunk : {8, 32, 64, 256}) {
      solver::SolverConfig cfg;
      cfg.chunk_octants = chunk;
      solver::BssnCtx ctx(m, cfg);
      bench::init_bbh_state(*m, 1.0, 2.0, ctx.state());
      WallTimer t;
      ctx.rk4_step();
      const double mb = double(chunk) * bssn::kNumVars *
                        (mesh::kPatchPts + mesh::kOctPts) * sizeof(Real) /
                        1e6;
      std::printf("      %-5d | %-18.1f | %.2f\n", chunk, mb, t.seconds());
      rep.metric("chunk" + std::to_string(chunk) + "_wall_s", t.seconds());
    }
    bench::note("larger chunks amortize halo loads; memory grows linearly —");
    bench::note("the default (64) keeps buffers ~31 MB at equal speed.");
  }

  // (b) unzip method end-to-end.
  {
    auto m = bench::bbh_mesh(1.0, 16.0, 2.0, 2, 3);
    std::printf("\n  (b) solver with each unzip method (1 RK4 step, %zu "
                "octants):\n", m->num_octants());
    double base = 0;
    for (auto method : {mesh::UnzipMethod::kLoopOverOctants,
                        mesh::UnzipMethod::kLoopOverPatches}) {
      solver::SolverConfig cfg;
      cfg.unzip_method = method;
      solver::BssnCtx ctx(m, cfg);
      bench::init_bbh_state(*m, 1.0, 2.0, ctx.state());
      WallTimer t;
      const auto ledger = bench::span_ledger([&] { ctx.rk4_step(); });
      const double s = t.seconds();
      const bool scatter = method == mesh::UnzipMethod::kLoopOverOctants;
      if (scatter) base = s;
      else rep.pair("end_to_end_slowdown_gather", NAN, s / base, "x");
      std::printf("      %-18s | wall %.2f s | unzip share %.0f%%%s\n",
                  scatter ? "loop-over-octants" : "loop-over-patches", s,
                  100 * ledger.summaries.at("unzip").sum * 1e-6 / s,
                  scatter ? "" : "  <- baseline");
    }
    (void)base;
    bench::note("the padding-zone advantage survives end-to-end, diluted by");
    bench::note("the RHS share (Amdahl), as the paper's overall 2.5x implies.");
  }

  // (c) register budget.
  {
    using namespace dgr::codegen;
    const auto bg = build_bssn_algebra_graph();
    std::vector<std::int32_t> roots(bg.outputs.begin(), bg.outputs.end());
    std::printf("\n  (c) binary-reduce spill traffic vs register budget:\n");
    std::printf("      regs | spill loads+stores (bytes)\n");
    for (int regs : {16, 32, 56, 96, 160}) {
      const CompiledKernel k(bg.graph, roots, Strategy::kBinaryReduce, regs);
      const auto spill =
          k.stats().spill_load_bytes + k.stats().spill_store_bytes;
      rep.metric("spill_bytes_r" + std::to_string(regs), double(spill));
      std::printf("      %-4d | %llu\n", regs,
                  (unsigned long long)spill);
    }
    bench::note("the paper's launch_bounds(343,3) = 56 registers sits near");
    bench::note("the knee: more registers buy little once live range fits.");
  }
  return 0;
}
