#include "codegen/interp_rhs.hpp"

#include "codegen/bssn_graph.hpp"

namespace dgr::codegen {

using bssn::kNumVars;
using mesh::kPad;
using mesh::kR;
using mesh::oct_idx;
using mesh::patch_idx;

void bssn_rhs_patch_interp(const Real* const in[kNumVars],
                           Real* const out[kNumVars],
                           const mesh::PatchGeom& geom,
                           const bssn::BssnParams& params,
                           bssn::DerivWorkspace& ws,
                           const CompiledKernel& kernel, OpCounts* counts,
                           mesh::RowMask rows) {
  bssn_deriv_stage(in, geom.h, ws, counts);
  static const int n_inputs = bssn_algebra_num_inputs();
  std::vector<Real> packed(n_inputs);
  bssn::AlgebraInputs<Real> q;
  Real rhs_pt[kNumVars];
  for (int kk = kPad; kk < kPad + kR; ++kk)
    for (int jj = kPad; jj < kPad + kR; ++jj) {
      if (!mesh::has_row(rows, jj - kPad, kk - kPad)) continue;
      for (int ii = kPad; ii < kPad + kR; ++ii) {
        bssn::bssn_gather_point(in, ws, patch_idx(ii, jj, kk), params, q);
        pack_algebra_inputs(q, packed.data());
        kernel.run(packed.data(), rhs_pt);
        const int o = oct_idx(ii - kPad, jj - kPad, kk - kPad);
        for (int v = 0; v < kNumVars; ++v) out[v][o] = rhs_pt[v];
      }
    }
  if (counts) {
    counts->flops += std::uint64_t(kR * kR * kR) * kernel.stats().num_ops;
    counts->bytes_read += std::uint64_t(kR * kR * kR) *
                          (kNumVars * 2 + 210) * sizeof(Real);
    counts->bytes_written +=
        std::uint64_t(kR * kR * kR) * kNumVars * sizeof(Real);
    counts->shared_bytes +=
        std::uint64_t(kR * kR * kR) * (kernel.stats().spill_load_bytes +
                                       kernel.stats().spill_store_bytes);
  }
}

}  // namespace dgr::codegen
