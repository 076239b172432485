#pragma once
/// \file constraints.hpp
/// \brief Hamiltonian and momentum constraint evaluation — the accuracy
/// diagnostics used in §V-C (and by the error-driven regrid criterion).

#include "bssn/algebra.hpp"
#include "bssn/rhs.hpp"
#include "bssn/vars.hpp"
#include "common/types.hpp"
#include "mesh/mesh.hpp"

namespace dgr::bssn {

/// The vacuum constraints at one point (S = Real, or a dgr::simd pack of W
/// points gathered by bssn_gather_pack_metric):
///   H   = R + (2/3) K^2 - At_ij At^ij                  (Hamiltonian)
///   M^i = dj At^ij + Gammat^i_jk At^jk
///         - (3/(2chi)) At^ij dj chi - (2/3) gtu^ij dj K (momentum)
/// Reads only the metric inputs of q. Every lane has the bits of the Real
/// instantiation, the one exported here (bssn_constraints_patch runs the
/// pack instantiations).
template <class S>
void bssn_constraints_point(const AlgebraInputs<S>& q, S& ham, S mom[3]);

/// H and M^i (13^3 buffers; mom holds 3) on the interior of one patch, W
/// points at a time (W = 1 or 4): the metric pack gather and
/// bssn_constraints_point. Reads only the kMetricVars entries of `in`;
/// `inner` is the caller's scratch.
template <int W>
void bssn_constraints_patch(const Real* const in[kNumVars], Real h,
                            Real chi_floor, MixedInnerSweeps& inner,
                            Real* ham, Real* mom);

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

/// Per octant: an unzip of the 17 kMetricVars, bssn_constraints_patch at
/// the active dispatch width (simd_active_width), and a serial,
/// octant-order accumulation. The norms have the same bits at every width.
ConstraintNorms compute_constraint_norms(
    const mesh::Mesh& mesh, const BssnState& state, const BssnParams& params,
    const std::vector<std::array<Real, 3>>& excise_centers = {},
    Real excise_radius = 0.0);

}  // namespace dgr::bssn
