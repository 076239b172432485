/// \file test_codegen.cpp
/// \brief Code-generation pipeline tests: expression-graph CSE/folding, the
/// BSSN algebraic DAG (Fig. 10), the three schedules of §IV-B, register
/// allocation / spill accounting (Table II), and bit-level agreement of the
/// interpreted kernels with the compiled production RHS.

#include <gtest/gtest.h>

#include <cmath>

#include "bssn/algebra.hpp"
#include "bssn/initial_data.hpp"
#include "codegen/bssn_graph.hpp"
#include "codegen/fused_rhs.hpp"
#include "codegen/interp_rhs.hpp"
#include "codegen/machine.hpp"
#include "common/rng.hpp"

namespace dgr::codegen {
namespace {

TEST(Graph, HashConsingDeduplicates) {
  Graph g;
  Sym a(&g, g.add_input("a"));
  Sym b(&g, g.add_input("b"));
  Sym e1 = a * b + a;
  Sym e2 = b * a + a;  // commutative normalization: same node
  EXPECT_EQ(e1.id(), e2.id());
}

TEST(Graph, ConstantFoldingAndIdentities) {
  Graph g;
  Sym a(&g, g.add_input("a"));
  EXPECT_EQ((a + 0.0).id(), a.id());
  EXPECT_EQ((a * 1.0).id(), a.id());
  EXPECT_EQ((0.0 * a).id(), g.add_const(0));
  EXPECT_EQ((a - a).id(), g.add_const(0));
  EXPECT_EQ((-(-a)).id(), a.id());
  Sym c = Sym(&g, g.add_const(2.0)) * Sym(&g, g.add_const(3.0));
  EXPECT_EQ(g.node(c.id()).op, Op::kConst);
  EXPECT_EQ(g.node(c.id()).value, 6.0);
}

TEST(Graph, ReferenceEvaluator) {
  Graph g;
  Sym a(&g, g.add_input("a"));
  Sym b(&g, g.add_input("b"));
  Sym e = (a + 2.0) * b - a / b;
  const double v = g.evaluate(e.id(), {3.0, 4.0});
  EXPECT_NEAR(v, (3.0 + 2.0) * 4.0 - 3.0 / 4.0, 1e-14);
}

TEST(BssnGraph, BuildsComposedDag) {
  const auto bg = build_bssn_algebra_graph();
  // The paper's composed graph has 2516 nodes and 6708 edges; ours differs
  // in detail (different CSE granularity, pre-combined advective terms) but
  // must be the same order of magnitude.
  std::vector<std::int32_t> roots(bg.outputs.begin(), bg.outputs.end());
  const std::size_t nodes = bg.graph.reachable_size(roots);
  EXPECT_GT(nodes, 800u);
  EXPECT_LT(nodes, 20000u);
  EXPECT_GT(bg.graph.num_edges(), 1500u);
  EXPECT_EQ(bg.num_inputs, bssn_algebra_num_inputs());
  EXPECT_GT(bg.num_inputs, 180);  // 24 fields + >160 derivative inputs
}

std::vector<double> random_inputs(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> in(n);
  for (auto& v : in) v = rng.uniform(0.5, 1.5);  // keep chi, det positive
  return in;
}

TEST(Scheduler, AllStrategiesAreValidTopologicalOrders) {
  const auto bg = build_bssn_algebra_graph();
  std::vector<std::int32_t> roots(bg.outputs.begin(), bg.outputs.end());
  for (Strategy s : {Strategy::kSympygrCse, Strategy::kBinaryReduce,
                     Strategy::kStagedCse}) {
    const auto order = schedule_nodes(bg.graph, roots, s);
    std::vector<char> emitted(bg.graph.size(), 0);
    for (std::int32_t id : order) {
      const Node& n = bg.graph.node(id);
      if (n.a >= 0 && bg.graph.node(n.a).op != Op::kInput &&
          bg.graph.node(n.a).op != Op::kConst) {
        EXPECT_TRUE(emitted[n.a]) << strategy_name(s);
      }
      if (n.b >= 0 && bg.graph.node(n.b).op != Op::kInput &&
          bg.graph.node(n.b).op != Op::kConst) {
        EXPECT_TRUE(emitted[n.b]) << strategy_name(s);
      }
      emitted[id] = 1;
    }
    // Every output computed.
    for (std::int32_t out : roots)
      EXPECT_TRUE(emitted[out] || bg.graph.node(out).op == Op::kInput ||
                  bg.graph.node(out).op == Op::kConst);
  }
}

TEST(Scheduler, SchedulesHaveEqualLength) {
  const auto bg = build_bssn_algebra_graph();
  std::vector<std::int32_t> roots(bg.outputs.begin(), bg.outputs.end());
  const auto a = schedule_nodes(bg.graph, roots, Strategy::kSympygrCse);
  const auto b = schedule_nodes(bg.graph, roots, Strategy::kBinaryReduce);
  const auto c = schedule_nodes(bg.graph, roots, Strategy::kStagedCse);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.size(), c.size());
}

TEST(Scheduler, BinaryReduceMinimizesLiveRange) {
  const auto bg = build_bssn_algebra_graph();
  std::vector<std::int32_t> roots(bg.outputs.begin(), bg.outputs.end());
  const auto base = schedule_nodes(bg.graph, roots, Strategy::kSympygrCse);
  const auto br = schedule_nodes(bg.graph, roots, Strategy::kBinaryReduce);
  const auto st = schedule_nodes(bg.graph, roots, Strategy::kStagedCse);
  const int live_base = max_live_temporaries(bg.graph, base, roots);
  const int live_br = max_live_temporaries(bg.graph, br, roots);
  const int live_st = max_live_temporaries(bg.graph, st, roots);
  // The paper's ordering: the baseline holds (almost) every CSE temp live,
  // the proposed orderings far fewer.
  EXPECT_LT(live_br, live_base / 2);
  EXPECT_LT(live_st, live_base);
}

TEST(Machine, SpillOrderingMatchesTableII) {
  const auto bg = build_bssn_algebra_graph();
  std::vector<std::int32_t> roots(bg.outputs.begin(), bg.outputs.end());
  const CompiledKernel base(bg.graph, roots, Strategy::kSympygrCse);
  const CompiledKernel br(bg.graph, roots, Strategy::kBinaryReduce);
  const CompiledKernel st(bg.graph, roots, Strategy::kStagedCse);
  const auto traffic = [](const SpillStats& s) {
    return s.spill_load_bytes + s.spill_store_bytes;
  };
  // Table II: the SymPyGR baseline spills far more than both variants.
  EXPECT_GT(traffic(base.stats()), 2 * traffic(br.stats()));
  EXPECT_GT(traffic(base.stats()), 2 * traffic(st.stats()));
  EXPECT_GT(traffic(base.stats()), 0u);
}

TEST(Machine, AllStrategiesMatchReferenceEvaluation) {
  const auto bg = build_bssn_algebra_graph();
  std::vector<std::int32_t> roots(bg.outputs.begin(), bg.outputs.end());
  const auto in = random_inputs(bg.num_inputs, 99);
  std::vector<double> ref(bssn::kNumVars);
  for (int v = 0; v < bssn::kNumVars; ++v)
    ref[v] = bg.graph.evaluate(bg.outputs[v], in);
  for (Strategy s : {Strategy::kSympygrCse, Strategy::kBinaryReduce,
                     Strategy::kStagedCse}) {
    const CompiledKernel k(bg.graph, roots, s);
    std::vector<double> out(bssn::kNumVars, -1);
    k.run(in.data(), out.data());
    for (int v = 0; v < bssn::kNumVars; ++v)
      EXPECT_EQ(out[v], ref[v]) << strategy_name(s) << " var " << v;
  }
}

TEST(Machine, TinyRegisterBudgetStillCorrectWithMoreSpills) {
  const auto bg = build_bssn_algebra_graph();
  std::vector<std::int32_t> roots(bg.outputs.begin(), bg.outputs.end());
  const CompiledKernel k56(bg.graph, roots, Strategy::kBinaryReduce, 56);
  const CompiledKernel k8(bg.graph, roots, Strategy::kBinaryReduce, 8);
  EXPECT_GT(k8.stats().spill_load_bytes, k56.stats().spill_load_bytes);
  const auto in = random_inputs(bg.num_inputs, 7);
  std::vector<double> a(bssn::kNumVars), b(bssn::kNumVars);
  k56.run(in.data(), a.data());
  k8.run(in.data(), b.data());
  for (int v = 0; v < bssn::kNumVars; ++v) EXPECT_EQ(a[v], b[v]);
}

TEST(Machine, KernelMatchesCompiledAlgebra) {
  // The scheduled program and the production template must agree to within
  // floating-point reassociation (the DAG folds/reorders some constants).
  const Real lf = 0.75, eta = 2.0, ko = 0.1;
  const auto bg = build_bssn_algebra_graph(lf, eta, ko);
  std::vector<std::int32_t> roots(bg.outputs.begin(), bg.outputs.end());
  const CompiledKernel k(bg.graph, roots, Strategy::kStagedCse);

  Rng rng(1234);
  for (int trial = 0; trial < 10; ++trial) {
    bssn::AlgebraInputs<Real> q;
    auto fill = [&](Real* p, int n, Real lo, Real hi) {
      for (int i = 0; i < n; ++i) p[i] = rng.uniform(lo, hi);
    };
    fill(&q.a, 1, 0.5, 1.0);
    fill(&q.ch, 1, 0.3, 1.0);
    fill(&q.Kt, 1, -0.2, 0.2);
    fill(q.Gt, 3, -0.1, 0.1);
    fill(q.bet, 3, -0.1, 0.1);
    fill(q.Bv, 3, -0.1, 0.1);
    // A perturbed SPD conformal metric.
    q.gt[0] = 1 + rng.uniform(-0.1, 0.1);
    q.gt[3] = 1 + rng.uniform(-0.1, 0.1);
    q.gt[5] = 1 + rng.uniform(-0.1, 0.1);
    q.gt[1] = rng.uniform(-0.05, 0.05);
    q.gt[2] = rng.uniform(-0.05, 0.05);
    q.gt[4] = rng.uniform(-0.05, 0.05);
    fill(q.At, 6, -0.1, 0.1);
    fill(q.d_a, 3, -0.1, 0.1);
    fill(q.d_ch, 3, -0.1, 0.1);
    fill(q.d_K, 3, -0.1, 0.1);
    fill(&q.d_b[0][0], 9, -0.1, 0.1);
    fill(&q.d_Gt[0][0], 9, -0.1, 0.1);
    fill(&q.d_gt[0][0], 18, -0.1, 0.1);
    fill(&q.d_At[0][0], 18, -0.1, 0.1);
    fill(q.dd_a, 6, -0.1, 0.1);
    fill(q.dd_ch, 6, -0.1, 0.1);
    fill(&q.dd_b[0][0], 18, -0.1, 0.1);
    fill(&q.dd_gt[0][0], 36, -0.1, 0.1);
    fill(q.ad, bssn::kNumVars, -0.1, 0.1);
    fill(q.ko, bssn::kNumVars, -0.1, 0.1);

    Real ref[bssn::kNumVars];
    const bssn::AlgebraParams<Real> prm{lf, eta, ko};
    bssn::bssn_algebra_point(q, prm, ref);

    std::vector<Real> packed(bg.num_inputs);
    pack_algebra_inputs(q, packed.data());
    Real out[bssn::kNumVars];
    k.run(packed.data(), out);
    for (int v = 0; v < bssn::kNumVars; ++v)
      EXPECT_NEAR(out[v], ref[v], 1e-11 * (1 + std::abs(ref[v])))
          << "var " << v;
  }
}

TEST(InterpRhs, MatchesCompiledRhsOnPatch) {
  // Full patch-level agreement (derivative stage + interpreted A) against
  // the production kernel on puncture-like data.
  using namespace dgr::bssn;
  const auto bg = build_bssn_algebra_graph(0.75, 2.0, 0.1);
  std::vector<std::int32_t> roots(bg.outputs.begin(), bg.outputs.end());
  const CompiledKernel k(bg.graph, roots, Strategy::kBinaryReduce);

  std::vector<Real> in(std::size_t(kNumVars) * mesh::kPatchPts);
  std::vector<Real> out_a(std::size_t(kNumVars) * mesh::kOctPts),
      out_b(out_a.size());
  Rng rng(5);
  for (int v = 0; v < kNumVars; ++v)
    for (int p = 0; p < mesh::kPatchPts; ++p)
      in[v * mesh::kPatchPts + p] =
          var_asymptotic(v) + 0.01 * rng.uniform(-1, 1);
  const Real* pi[kNumVars];
  Real* pa[kNumVars];
  Real* pb[kNumVars];
  for (int v = 0; v < kNumVars; ++v) {
    pi[v] = &in[v * mesh::kPatchPts];
    pa[v] = &out_a[v * mesh::kOctPts];
    pb[v] = &out_b[v * mesh::kOctPts];
  }
  mesh::PatchGeom geom{{0, 0, 0}, 0.1};
  BssnParams prm;
  prm.sommerfeld = false;
  prm.ko_sigma = 0.1;
  DerivWorkspace ws;
  bssn_rhs_patch(pi, pa, geom, 1e9, prm, ws);
  bssn_rhs_patch_interp(pi, pb, geom, prm, ws, k);
  for (int v = 0; v < kNumVars; ++v)
    for (int o = 0; o < mesh::kOctPts; ++o) {
      const Real a = out_a[v * mesh::kOctPts + o];
      const Real b = out_b[v * mesh::kOctPts + o];
      ASSERT_NEAR(b, a, 1e-10 * (1 + std::abs(a)))
          << var_name(v) << " @" << o;
    }
}

TEST(Machine, RunBlockBitwiseEqualsRunAtEveryWidth) {
  // The SoA block executor must reproduce run() bitwise at every point, at
  // width 1 and 4, for every schedule (spills included) — the foundation of
  // the fused path's determinism contract.
  const auto bg = build_bssn_algebra_graph();
  std::vector<std::int32_t> roots(bg.outputs.begin(), bg.outputs.end());
  const int n = 19;  // odd block size exercises the scalar tail
  std::vector<double> soa(std::size_t(bg.num_inputs) * n);
  Rng rng(31);
  for (auto& v : soa) v = rng.uniform(0.5, 1.5);
  for (Strategy s : {Strategy::kSympygrCse, Strategy::kBinaryReduce,
                     Strategy::kStagedCse}) {
    const CompiledKernel k(bg.graph, roots, s);
    std::vector<double> out1(std::size_t(bssn::kNumVars) * n, -1);
    std::vector<double> out4(out1.size(), -2);
    k.run_block(soa.data(), out1.data(), n, /*width=*/1);
    k.run_block(soa.data(), out4.data(), n, /*width=*/4);
    std::vector<double> in(bg.num_inputs), ref(bssn::kNumVars);
    for (int p = 0; p < n; ++p) {
      for (int i = 0; i < bg.num_inputs; ++i) in[i] = soa[std::size_t(i) * n + p];
      k.run(in.data(), ref.data());
      for (int v = 0; v < bssn::kNumVars; ++v) {
        ASSERT_EQ(out1[std::size_t(v) * n + p], ref[v])
            << strategy_name(s) << " w1 var " << v << " pt " << p;
        ASSERT_EQ(out4[std::size_t(v) * n + p], ref[v])
            << strategy_name(s) << " w4 var " << v << " pt " << p;
      }
    }
  }
}

TEST(FusedRhs, BitwiseEqualsInterpAtEveryWidth) {
  // Patch-level: the fused SIMD path (stencils evaluated point-locally,
  // algebra via run_block) is bitwise identical to the interp path (array
  // sweeps + per-point run) with the same kernel, at width 1 and width 4.
  using namespace dgr::bssn;
  const auto bg = build_bssn_algebra_graph(0.75, 2.0, 0.1);
  std::vector<std::int32_t> roots(bg.outputs.begin(), bg.outputs.end());
  const CompiledKernel k(bg.graph, roots, Strategy::kStagedCse);

  std::vector<Real> in(std::size_t(kNumVars) * mesh::kPatchPts);
  const std::size_t nout = std::size_t(kNumVars) * mesh::kOctPts;
  std::vector<Real> out_i(nout, 0), out_f1(nout, 0), out_f4(nout, 0);
  Rng rng(17);
  for (int v = 0; v < kNumVars; ++v)
    for (int p = 0; p < mesh::kPatchPts; ++p)
      in[v * mesh::kPatchPts + p] =
          var_asymptotic(v) + 0.01 * rng.uniform(-1, 1);
  const Real* pi[kNumVars];
  Real* po_i[kNumVars];
  Real* po_f1[kNumVars];
  Real* po_f4[kNumVars];
  for (int v = 0; v < kNumVars; ++v) {
    pi[v] = &in[v * mesh::kPatchPts];
    po_i[v] = &out_i[v * mesh::kOctPts];
    po_f1[v] = &out_f1[v * mesh::kOctPts];
    po_f4[v] = &out_f4[v * mesh::kOctPts];
  }
  mesh::PatchGeom geom{{0, 0, 0}, 0.1};
  BssnParams prm;
  prm.sommerfeld = false;  // interp path does not apply the boundary
  DerivWorkspace ws;
  bssn_rhs_patch_interp(pi, po_i, geom, prm, ws, k);
  FusedWorkspace fws;
  bssn_rhs_patch_fused(pi, po_f1, geom, 1e9, prm, k, fws, nullptr, 1);
  bssn_rhs_patch_fused(pi, po_f4, geom, 1e9, prm, k, fws, nullptr, 4);
  for (int v = 0; v < kNumVars; ++v)
    for (int o = 0; o < mesh::kOctPts; ++o) {
      const std::size_t i = std::size_t(v) * mesh::kOctPts + o;
      ASSERT_EQ(out_f1[i], out_i[i]) << "w1 " << var_name(v) << " @" << o;
      ASSERT_EQ(out_f4[i], out_i[i]) << "w4 " << var_name(v) << " @" << o;
    }
}

TEST(FusedRhs, SommerfeldMatchesCompiledBoundaryHandling) {
  // On a boundary patch the fused path applies the same Sommerfeld
  // overwrite as bssn_algebraic_stage (the radial derivative is the same
  // centered stencil) — boundary values must agree bitwise with the
  // compiled path, whose boundary formula reads only derivative-stage
  // gradients, not the algebra.
  using namespace dgr::bssn;
  const auto bg = build_bssn_algebra_graph(0.75, 2.0, 0.1);
  std::vector<std::int32_t> roots(bg.outputs.begin(), bg.outputs.end());
  const CompiledKernel k(bg.graph, roots, Strategy::kStagedCse);

  std::vector<Real> in(std::size_t(kNumVars) * mesh::kPatchPts);
  const std::size_t nout = std::size_t(kNumVars) * mesh::kOctPts;
  std::vector<Real> out_c(nout, 0), out_f(nout, 0);
  Rng rng(23);
  for (int v = 0; v < kNumVars; ++v)
    for (int p = 0; p < mesh::kPatchPts; ++p)
      in[v * mesh::kPatchPts + p] =
          var_asymptotic(v) + 0.01 * rng.uniform(-1, 1);
  const Real* pi[kNumVars];
  Real* po_c[kNumVars];
  Real* po_f[kNumVars];
  for (int v = 0; v < kNumVars; ++v) {
    pi[v] = &in[v * mesh::kPatchPts];
    po_c[v] = &out_c[v * mesh::kOctPts];
    po_f[v] = &out_f[v * mesh::kOctPts];
  }
  // Geometry placing the patch's ii = 9 face exactly on the outer boundary.
  const Real h = 0.1, half = 2.0;
  mesh::PatchGeom geom{{half - 9 * h, 0, 0}, h};
  BssnParams prm;  // sommerfeld on by default
  DerivWorkspace ws;
  bssn_rhs_patch(pi, po_c, geom, half, prm, ws);
  FusedWorkspace fws;
  bssn_rhs_patch_fused(pi, po_f, geom, half, prm, k, fws, nullptr, 4);
  int boundary_pts = 0;
  for (int v = 0; v < kNumVars; ++v)
    for (int kk = mesh::kPad; kk < mesh::kPad + mesh::kR; ++kk)
      for (int jj = mesh::kPad; jj < mesh::kPad + mesh::kR; ++jj) {
        const int o = mesh::oct_idx(9 - mesh::kPad, jj - mesh::kPad,
                                    kk - mesh::kPad);
        ASSERT_EQ(out_f[v * mesh::kOctPts + o], out_c[v * mesh::kOctPts + o])
            << var_name(v) << " @9," << jj << "," << kk;
        ++boundary_pts;
      }
  EXPECT_EQ(boundary_pts, kNumVars * mesh::kR * mesh::kR);
}

TEST(FusedRhs, OpCountsAccumulate) {
  using namespace dgr::bssn;
  const auto bg = build_bssn_algebra_graph();
  std::vector<std::int32_t> roots(bg.outputs.begin(), bg.outputs.end());
  const CompiledKernel k(bg.graph, roots, Strategy::kStagedCse);
  std::vector<Real> in(std::size_t(kNumVars) * mesh::kPatchPts, 1.0);
  std::vector<Real> out(std::size_t(kNumVars) * mesh::kOctPts);
  const Real* pi[kNumVars];
  Real* po[kNumVars];
  for (int v = 0; v < kNumVars; ++v) {
    pi[v] = &in[v * mesh::kPatchPts];
    po[v] = &out[v * mesh::kOctPts];
  }
  mesh::PatchGeom geom{{0, 0, 0}, 0.1};
  BssnParams prm;
  prm.sommerfeld = false;
  FusedWorkspace fws;
  OpCounts c;
  bssn_rhs_patch_fused(pi, po, geom, 1e9, prm, k, fws, &c, 0);
  const std::uint64_t pts = mesh::kR * mesh::kR * mesh::kR;
  EXPECT_GT(c.flops, pts * k.stats().num_ops);  // algebra + stencil work
  EXPECT_EQ(c.bytes_written, pts * kNumVars * sizeof(Real));
  EXPECT_GT(c.shared_bytes, 0u);
}

}  // namespace
}  // namespace dgr::codegen
