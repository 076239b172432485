#pragma once
/// \file constraints.hpp
/// \brief Hamiltonian and momentum constraint evaluation — the accuracy
/// diagnostics used in §V-C (and by the error-driven regrid criterion).

#include "bssn/rhs.hpp"
#include "bssn/vars.hpp"
#include "common/types.hpp"
#include "mesh/mesh.hpp"

namespace dgr::bssn {

/// Evaluate the vacuum constraints on the interior of one patch:
///   H   = R + (2/3) K^2 - At_ij At^ij                  (Hamiltonian)
///   M^i = dj At^ij + Gammat^i_jk At^jk
///         - (3/(2chi)) At^ij dj chi - (2/3) gtu^ij dj K (momentum)
/// Outputs are 13^3 buffers with the interior 7^3 region written; `d` is
/// the metric derivative set of the same input patch (MetricDerivs). Reads
/// only the kMetricVars entries of `in`.
void bssn_constraints_patch(const Real* const in[kNumVars],
                            const BssnParams& params, const MetricDerivs& d,
                            Real* ham, Real* mom /*3 x kPatchPts*/);

/// Constraint norms over a whole mesh/state (L2 and Linf of H), optionally
/// excluding balls of radius `excise_radius` around given centers (the
/// puncture neighborhoods, where constraint violation is expected and
/// gauge-protected).
struct ConstraintNorms {
  Real ham_l2 = 0;
  Real ham_linf = 0;
  Real mom_l2 = 0;
  Real mom_linf = 0;
};

class BssnState;

ConstraintNorms compute_constraint_norms(
    const mesh::Mesh& mesh, const BssnState& state, const BssnParams& params,
    const std::vector<std::array<Real, 3>>& excise_centers = {},
    Real excise_radius = 0.0);

}  // namespace dgr::bssn
