#pragma once
/// \file interp_rhs.hpp
/// \brief Patch-level BSSN RHS evaluation through a scheduled register-
/// machine program (the paper's generated-kernel path). Used by the
/// Table II / Fig. 11 benchmarks to time the three code-generation variants
/// with spills costing real work, and cross-validated against the compiled
/// kernel in the tests.

#include "bssn/rhs.hpp"
#include "codegen/machine.hpp"

namespace dgr::codegen {

/// Evaluate the full RHS of one patch with the derivative stage followed by
/// the interpreted algebraic stage, into the x-rows `rows` of the 7^3
/// output blocks (bssn/rhs.hpp's output contract). Semantics match
/// `bssn_rhs_patch` with the same parameters and Sommerfeld disabled (the
/// boundary overwrite is a host-side concern, not part of the generated
/// kernel). The OpCounts model all 7^3 points whatever `rows` holds.
void bssn_rhs_patch_interp(const Real* const in[bssn::kNumVars],
                           Real* const out[bssn::kNumVars],
                           const mesh::PatchGeom& geom,
                           const bssn::BssnParams& params,
                           bssn::DerivWorkspace& ws,
                           const CompiledKernel& kernel,
                           OpCounts* counts = nullptr,
                           mesh::RowMask rows = mesh::kAllRows);

}  // namespace dgr::codegen
