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

}  // namespace
}  // namespace dgr::codegen
