#pragma once
/// \file fused_rhs.hpp
/// \brief The register-machine BSSN RHS over a structure-of-arrays block:
/// the pack gather (bssn/gather_pack.hpp) writes every algebra input of the
/// 343 interior points into an SoA input block, which the scheduled
/// register-machine program then consumes W points at a time through the
/// explicit `dgr::simd<double, W>` packs. It is the Table II / Fig. 11
/// code-generation artefact at its cheapest; the solver runs the compiled
/// kernels of bssn/rhs.hpp instead.
///
/// Determinism contract: at every point the fused path is bitwise identical
/// to the interpreter path with the same kernel (and to itself at any SIMD
/// width). See stencils_point.hpp and CompiledKernel::run_block for the
/// mechanism; tests/test_codegen.cpp enforces it.

#include "bssn/rhs.hpp"
#include "codegen/machine.hpp"

namespace dgr::codegen {

/// Per-thread scratch of the fused path: the SoA input/output blocks, the
/// inner mixed-derivative sweeps and the kernel spill scratch. Allocate one
/// per execution lane — not shareable across concurrent calls.
struct FusedWorkspace {
  bssn::MixedInnerSweeps inner;
  std::vector<Real> in_soa;    ///< [input_id] * 343 interior points
  std::vector<Real> out_soa;   ///< [var] * 343 interior points
  std::vector<Real> spill;     ///< kernel spill scratch (widest pack)

  FusedWorkspace();
};

/// Full RHS on one patch through the fused SIMD path, into the x-rows
/// `rows` of the 7^3 output blocks (bssn/rhs.hpp's output contract; the
/// gather and the algebra still cover all 343 points). Semantics match
/// `bssn_rhs_patch` evaluated with the kernel's scheduled algebra,
/// including the Sommerfeld boundary overwrite when `params.sommerfeld` is
/// set. `width` selects the SIMD pack width (1 or 4; 0 = the active runtime
/// width from DGR_SIMD; anything else throws dgr::Error).
void bssn_rhs_patch_fused(const Real* const in[bssn::kNumVars],
                          Real* const out[bssn::kNumVars],
                          const mesh::PatchGeom& geom, Real half_extent,
                          const bssn::BssnParams& params,
                          const CompiledKernel& kernel, FusedWorkspace& ws,
                          OpCounts* counts = nullptr, int width = 0,
                          mesh::RowMask rows = mesh::kAllRows);

}  // namespace dgr::codegen
