#include "codegen/bssn_graph.hpp"

#include <string>

namespace dgr::codegen {

int bssn_algebra_num_inputs() {
  int n = 0;
  const bssn::AlgebraInputs<int> dummy{};
  visit_algebra_inputs(dummy, [&](const int&, auto&&) { ++n; });
  return n;
}

BssnAlgebraGraph build_bssn_algebra_graph(Real lambda_f0, Real eta,
                                          Real ko_sigma) {
  BssnAlgebraGraph out;
  Graph& g = out.graph;
  bssn::AlgebraInputs<Sym> q;
  visit_algebra_inputs(q, [&](Sym& slot, auto&& name) {
    slot = Sym(&g, g.add_input(name()));
  });
  out.num_inputs = g.num_inputs();
  const bssn::AlgebraParams<Sym> prm{Sym(&g, g.add_const(lambda_f0)),
                                     Sym(&g, g.add_const(eta)),
                                     Sym(&g, g.add_const(ko_sigma))};
  Sym rhs[bssn::kNumVars];
  bssn::bssn_algebra_point(q, prm, rhs);
  for (int v = 0; v < bssn::kNumVars; ++v) out.outputs[v] = rhs[v].id();
  return out;
}

void pack_algebra_inputs(const bssn::AlgebraInputs<Real>& q, Real* buf) {
  int idx = 0;
  visit_algebra_inputs(q, [&](const Real& slot, auto&&) { buf[idx++] = slot; });
}

}  // namespace dgr::codegen
