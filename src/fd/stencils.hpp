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

#include <algorithm>
#include <array>
#include <cstddef>

#include "common/error.hpp"
#include "common/types.hpp"
#include "mesh/patch.hpp"

namespace dgr::fd {

using mesh::kPad;
using mesh::kPatch;
using mesh::kPatchPts;
using mesh::kR;
using mesh::patch_idx;

/// Fornberg's algorithm: weights of the m-th derivative at evaluation point
/// x0 for the N given node offsets. Exact for polynomials up to degree N-1.
/// constexpr, so the tables below are evaluated from it at compile time:
/// the coefficients have this one source. Fixed-size arrays keep it a
/// constant expression without constexpr std::vector.
template <std::size_t N>
constexpr std::array<Real, N> fornberg_weights(Real x0, const Real (&nodes)[N],
                                               int m) {
  // B. Fornberg, "Generation of finite difference formulas on arbitrarily
  // spaced grids", Math. Comp. 51 (1988). Direct transcription; column k of
  // c holds the k-th derivative's weights, so columns past m stay unused.
  const int n = static_cast<int>(N) - 1;
  DGR_CHECK(n >= m && m >= 0);
  Real c[N][N] = {};
  Real c1 = 1.0;
  Real c4 = nodes[0] - x0;
  c[0][0] = 1.0;
  for (int i = 1; i <= n; ++i) {
    const int mn = std::min(i, m);
    Real c2 = 1.0;
    const Real c5 = c4;
    c4 = nodes[i] - x0;
    for (int j = 0; j < i; ++j) {
      const Real c3 = nodes[i] - nodes[j];
      c2 *= c3;
      if (j == i - 1) {
        for (int k = mn; k >= 1; --k)
          c[i][k] = c1 * (k * c[i - 1][k - 1] - c5 * c[i - 1][k]) / c2;
        c[i][0] = -c1 * c5 * c[i - 1][0] / c2;
      }
      for (int k = mn; k >= 1; --k)
        c[j][k] = (c4 * c[j][k] - k * c[j][k - 1]) / c3;
      c[j][0] = c4 * c[j][0] / c3;
    }
    c1 = c2;
  }
  std::array<Real, N> w{};
  for (int i = 0; i <= n; ++i) w[i] = c[i][m];
  return w;
}

/// The fixed stencil weight tables used by every operator below. The sweep
/// operators and the point evaluators (stencils_point.hpp) contract the
/// same coefficients in the same order — the basis of the bitwise contract
/// between the pack gather and the staged derivative stage.
struct StencilWeights {
  Real w1[7];      ///< centered first derivative, nodes -3..3
  Real w2[7];      ///< centered second derivative, nodes -3..3
  Real up_pos[5];  ///< 4th-order upwind for positive speed, nodes -1..3
  Real up_neg[5];  ///< mirrored, nodes -3..1
  Real ko[7];      ///< KO numerator (binomial / 64), nodes -3..3
};

/// The tables as compile-time constants. They carry Fornberg's roundoff
/// bits (w1's centre weight is -0x1.5555555555555p-54, not 0), the same
/// bits as a runtime call of fornberg_weights (test_fd memcmps them).
/// Being constants, every weight folds into the kernels that read it.
inline constexpr StencilWeights kStencilWeights = [] {
  StencilWeights s{};
  const Real c7[7] = {-3, -2, -1, 0, 1, 2, 3};
  const std::array<Real, 7> a1 = fornberg_weights(0.0, c7, 1);
  const std::array<Real, 7> a2 = fornberg_weights(0.0, c7, 2);
  for (int i = 0; i < 7; ++i) {
    s.w1[i] = a1[i];
    s.w2[i] = a2[i];
  }
  const std::array<Real, 5> up = fornberg_weights(0.0, {-1, 0, 1, 2, 3}, 1);
  for (int i = 0; i < 5; ++i) s.up_pos[i] = up[i];
  // Mirror: d/dx with nodes -3..1 is minus the reversed positive stencil.
  for (int i = 0; i < 5; ++i) s.up_neg[i] = -s.up_pos[4 - i];
  const Real b[7] = {1, -6, 15, -20, 15, -6, 1};
  for (int i = 0; i < 7; ++i) s.ko[i] = b[i] / 64.0;
  return s;
}();

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
