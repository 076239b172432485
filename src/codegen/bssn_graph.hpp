#pragma once
/// \file bssn_graph.hpp
/// \brief Construction of the BSSN algebraic-stage expression DAG (the
/// "composed graph G" of §IV-B / Fig. 10) by instantiating the shared
/// algebra template with the symbolic scalar, plus the input packer that
/// fills the interpreter's input vector in the exact registration order.

#include <array>
#include <string>

#include "bssn/algebra.hpp"
#include "bssn/rhs.hpp"
#include "codegen/expr.hpp"

namespace dgr::codegen {

struct BssnAlgebraGraph {
  Graph graph;
  std::array<std::int32_t, bssn::kNumVars> outputs;  ///< DAG roots
  int num_inputs = 0;
};

/// Build the DAG with the gauge/dissipation parameters baked in as
/// constants (as real code generators do).
BssnAlgebraGraph build_bssn_algebra_graph(Real lambda_f0 = 0.75,
                                          Real eta = 2.0,
                                          Real ko_sigma = 0.1);

/// Number of scalar inputs the packed vector carries.
int bssn_algebra_num_inputs();

/// Visit every input slot of an AlgebraInputs `q` (const or not) in the one
/// canonical order: f(slot, name), where name() builds the slot's input
/// name on demand. The n-th visited slot is graph input n, so the graph
/// builder, the packer and the fused SoA scatter (fused_rhs.cpp) all go
/// through this function and cannot drift apart.
template <class Q, class F>
void visit_algebra_inputs(Q& q, F&& f) {
  using std::to_string;
  f(q.a, [] { return std::string("alpha"); });
  f(q.ch, [] { return std::string("chi"); });
  f(q.Kt, [] { return std::string("K"); });
  for (int i = 0; i < 3; ++i) f(q.Gt[i], [i] { return "Gt" + to_string(i); });
  for (int i = 0; i < 3; ++i)
    f(q.bet[i], [i] { return "beta" + to_string(i); });
  for (int i = 0; i < 3; ++i) f(q.Bv[i], [i] { return "B" + to_string(i); });
  for (int s = 0; s < 6; ++s) f(q.gt[s], [s] { return "gt" + to_string(s); });
  for (int s = 0; s < 6; ++s) f(q.At[s], [s] { return "At" + to_string(s); });
  for (int a = 0; a < 3; ++a)
    f(q.d_a[a], [a] { return "d_alpha_" + to_string(a); });
  for (int a = 0; a < 3; ++a)
    f(q.d_ch[a], [a] { return "d_chi_" + to_string(a); });
  for (int a = 0; a < 3; ++a)
    f(q.d_K[a], [a] { return "d_K_" + to_string(a); });
  for (int i = 0; i < 3; ++i)
    for (int a = 0; a < 3; ++a)
      f(q.d_b[i][a],
        [i, a] { return "d_beta" + to_string(i) + "_" + to_string(a); });
  for (int i = 0; i < 3; ++i)
    for (int a = 0; a < 3; ++a)
      f(q.d_Gt[i][a],
        [i, a] { return "d_Gt" + to_string(i) + "_" + to_string(a); });
  for (int s = 0; s < 6; ++s)
    for (int a = 0; a < 3; ++a)
      f(q.d_gt[s][a],
        [s, a] { return "d_gt" + to_string(s) + "_" + to_string(a); });
  for (int s = 0; s < 6; ++s)
    for (int a = 0; a < 3; ++a)
      f(q.d_At[s][a],
        [s, a] { return "d_At" + to_string(s) + "_" + to_string(a); });
  for (int s = 0; s < 6; ++s)
    f(q.dd_a[s], [s] { return "dd_alpha_" + to_string(s); });
  for (int s = 0; s < 6; ++s)
    f(q.dd_ch[s], [s] { return "dd_chi_" + to_string(s); });
  for (int i = 0; i < 3; ++i)
    for (int s = 0; s < 6; ++s)
      f(q.dd_b[i][s],
        [i, s] { return "dd_beta" + to_string(i) + "_" + to_string(s); });
  for (int g = 0; g < 6; ++g)
    for (int s = 0; s < 6; ++s)
      f(q.dd_gt[g][s],
        [g, s] { return "dd_gt" + to_string(g) + "_" + to_string(s); });
  for (int v = 0; v < bssn::kNumVars; ++v)
    f(q.ad[v], [v] { return "adv_" + std::string(bssn::var_name(v)); });
  for (int v = 0; v < bssn::kNumVars; ++v)
    f(q.ko[v], [v] { return "ko_" + std::string(bssn::var_name(v)); });
}

/// Fill `buf` (size bssn_algebra_num_inputs()) from gathered point inputs,
/// in the same order the graph builder registered them.
void pack_algebra_inputs(const bssn::AlgebraInputs<Real>& q, Real* buf);

}  // namespace dgr::codegen
