#pragma once
/// \file stencils.hpp
/// \brief Finite-difference stencils on 13^3 patches (paper §III-A/§III-B):
/// O(h^6) centered first and second derivatives, 4th-order upwind advective
/// derivatives (the widest that fit the k=3 padding, as in Dendro-GR's
/// "644" derivative family), and 5th-order Kreiss–Oliger dissipation.
///
/// Conventions. All operators read a full 13^3 patch and write a 13^3
/// buffer. Output is valid at every point where the stencil fits inside the
/// patch: for centered operators along axis a that is index 3..9 along a and
/// the full 0..12 range along the other axes — wide enough that mixed second
/// derivatives can be formed by composing two first-derivative sweeps.

#include <array>
#include <vector>

#include "common/types.hpp"
#include "mesh/patch.hpp"

namespace dgr::fd {

using mesh::kPad;
using mesh::kPatch;
using mesh::kPatchPts;
using mesh::kR;
using mesh::patch_idx;

/// Fornberg's algorithm: weights of the m-th derivative at evaluation point
/// x0 for the given node offsets. Exact for polynomials up to degree
/// nodes.size()-1.
std::vector<Real> fornberg_weights(Real x0, const std::vector<Real>& nodes,
                                   int m);

/// The fixed stencil weight tables used by every operator below. Exposed so
/// the fused point evaluators (stencils_point.hpp) contract the exact same
/// coefficients in the exact same order as the sweep operators — the basis
/// of the fused-kernel bitwise-identity contract.
struct StencilWeights {
  Real w1[7];      ///< centered first derivative, nodes -3..3
  Real w2[7];      ///< centered second derivative, nodes -3..3
  Real up_pos[5];  ///< 4th-order upwind for positive speed, nodes -1..3
  Real up_neg[5];  ///< mirrored, nodes -3..1
  Real ko[7];      ///< KO numerator (binomial / 64), nodes -3..3
};
const StencilWeights& stencil_weights();

/// Element stride of a patch axis (0=x, 1=y, 2=z).
constexpr int axis_stride(int axis) {
  return axis == 0 ? 1 : axis == 1 ? kPatch : kPatch * kPatch;
}

/// Centered O(h^6) first derivative along axis (0=x, 1=y, 2=z).
void d1(const Real* u, Real* out, int axis, Real h);

/// d1 along x or y (axis 0 or 1) on the interior x-range 3..9 of the patch
/// rows y in [y0, y1), z in [z0, z1), which must lie in d1's valid region.
/// Bitwise equal to d1 there; every other entry of `out` is left untouched.
void d1_rows(const Real* u, Real* out, int axis, Real h, int y0, int y1,
             int z0, int z1);

/// Centered O(h^6) second derivative along a single axis.
void d2(const Real* u, Real* out, int axis, Real h);

/// Mixed second derivative d^2/(da db), a != b, via two d1 sweeps. Valid on
/// the region where both sweeps fit (indices 3..9 along both axes).
void d2_mixed(const Real* u, Real* scratch, Real* out, int axis_a, int axis_b,
              Real h);

/// 4th-order upwind ("advective") first derivative along axis: at each
/// output point the stencil is biased by the sign of the advection speed
/// `beta` (same layout as u). Valid on interior indices 3..9 along all axes.
void d1_upwind(const Real* u, const Real* beta, Real* out, int axis, Real h);

/// 5th-order Kreiss–Oliger dissipation, all three axes summed:
///   sigma/(64 h) * (u_{i-3} - 6u_{i-2} + 15u_{i-1} - 20u_i + ...).
/// Valid on interior indices 3..9 along all axes. The operator annihilates
/// polynomials of degree <= 5 and is negative semi-definite.
void ko_dissipation(const Real* u, Real* out, Real sigma, Real h);

/// Flop cost (per valid output point) of each operator — used by the
/// performance counters of the RHS kernels.
inline constexpr int kD1Flops = 2 * 7;
inline constexpr int kD2Flops = 2 * 7;
inline constexpr int kUpwindFlops = 2 * 5 + 1;
inline constexpr int kKoFlops = 3 * (2 * 7) + 2;

}  // namespace dgr::fd
