#pragma once
/// \file gather_pack.hpp
/// \brief The pack gather: every algebra input of W consecutive x-points of
/// a patch row, evaluated point-locally from the input patches and written
/// straight into AlgebraInputs<P>, P = dgr::simd<double, W>. It is the
/// derivative stage D without the 210 patch-sized derivative arrays (72
/// gradients, 72 upwind gradients, 66 Hessian components, 24 KO terms):
/// only the 22 inner sweeps of the mixed second derivatives stay arrays.
///
/// It has two parts. The metric part gathers what the 3-metric diagnostics
/// (Psi4, the constraints) read: values and gradients of the 17
/// kMetricVars and Hessians of chi and gt_ij. The gauge part gathers the
/// rest (alpha, beta^i, B^i and their derivatives, advection and KO terms).
/// The RHS pack kernel (bssn_rhs_patch_packed), the register-machine SoA
/// kernel (codegen::bssn_rhs_patch_fused), gw::compute_psi4_field and
/// bssn::compute_constraint_norms all gather through it, so each stencil is
/// written once. Every lane is bitwise identical to the value
/// bssn_gather_point reads from the derivative-stage arrays at that point:
/// the point evaluators of fd/stencils_point.hpp contract the sweeps' weight
/// tables in the sweeps' order.
///
/// A pack may extend past the interior row end. Its extra lanes read
/// in-bounds padding (a pack at x = 7..10 reaches x = 13, the next row's
/// x = 0) and are discarded by the caller.

#include "bssn/algebra.hpp"
#include "bssn/rhs.hpp"
#include "fd/stencils_point.hpp"

namespace dgr::bssn {

// The Hessian slots of kSecondDerivVars the gather writes: alpha = 0,
// beta = 1..3, chi = 4, gt = 5..10.
static_assert(kSecondDerivVars[0] == kAlpha && kSecondDerivVars[1] == kBeta0 &&
              kSecondDerivVars[4] == kChi && kSecondDerivVars[5] == kGtxx);

/// The six Hessian components of kSecondDerivVars slot s at the W points
/// from p. Diagonals are d2 stencils; each mixed component is the outer d1
/// stencil over an inner sweep, in fd::d2_mixed's order: (0,1) = d/dy of
/// d/dx, (0,2) = d/dz of d/dx, (1,2) = d/dz of d/dy.
template <class P>
void gather_hessian_pack(const Real* u, const MixedInnerSweeps& inner, int s,
                         int p, Real inv_h, Real inv_h2, P dd[6]) {
  dd[sym_idx(0, 0)] = fd::d2_point<P>(u, p, 0, inv_h2);
  dd[sym_idx(1, 1)] = fd::d2_point<P>(u, p, 1, inv_h2);
  dd[sym_idx(2, 2)] = fd::d2_point<P>(u, p, 2, inv_h2);
  dd[sym_idx(0, 1)] = fd::d1_point<P>(inner.of(s, 0), p, 1, inv_h);
  dd[sym_idx(0, 2)] = fd::d1_point<P>(inner.of(s, 0), p, 2, inv_h);
  dd[sym_idx(1, 2)] = fd::d1_point<P>(inner.of(s, 1), p, 2, inv_h);
}

/// The metric part at the W x-points starting at patch index p: reads only
/// the kMetricVars entries of `in` and the chi and gt_ij sweeps of `inner`.
/// `chi_floor` is applied as std::max(chi, floor) lanewise.
template <class P>
void bssn_gather_pack_metric(const Real* const in[kNumVars],
                             const MixedInnerSweeps& inner, int p, Real inv_h,
                             Real inv_h2, Real chi_floor,
                             AlgebraInputs<P>& q) {
  // With maxpd semantics (a > b ? a : b), max(floor, chi) is lanewise
  // bitwise-equal to std::max(chi, floor), NaN included.
  q.ch = max(P::broadcast(chi_floor), P::load(in[kChi] + p));
  q.Kt = P::load(in[kK] + p);
  for (int i = 0; i < 3; ++i) q.Gt[i] = P::load(in[kGt0 + i] + p);
  for (int s = 0; s < 6; ++s) {
    q.gt[s] = P::load(in[kGtxx + s] + p);
    q.At[s] = P::load(in[kAtxx + s] + p);
  }
  for (int ax = 0; ax < 3; ++ax) {
    q.d_ch[ax] = fd::d1_point<P>(in[kChi], p, ax, inv_h);
    q.d_K[ax] = fd::d1_point<P>(in[kK], p, ax, inv_h);
    for (int i = 0; i < 3; ++i)
      q.d_Gt[i][ax] = fd::d1_point<P>(in[kGt0 + i], p, ax, inv_h);
    for (int s = 0; s < 6; ++s) {
      q.d_gt[s][ax] = fd::d1_point<P>(in[kGtxx + s], p, ax, inv_h);
      q.d_At[s][ax] = fd::d1_point<P>(in[kAtxx + s], p, ax, inv_h);
    }
  }
  gather_hessian_pack(in[kChi], inner, 4, p, inv_h, inv_h2, q.dd_ch);
  for (int s = 0; s < 6; ++s)
    gather_hessian_pack(in[kGtxx + s], inner, 5 + s, p, inv_h, inv_h2,
                        q.dd_gt[s]);
}

/// The gauge part at the W x-points starting at patch index p: everything
/// bssn_gather_pack_metric leaves out.
template <class P>
void bssn_gather_pack_gauge(const Real* const in[kNumVars],
                            const MixedInnerSweeps& inner, int p, Real inv_h,
                            Real inv_h2, AlgebraInputs<P>& q) {
  q.a = P::load(in[kAlpha] + p);
  for (int i = 0; i < 3; ++i) {
    q.bet[i] = P::load(in[kBeta0 + i] + p);
    q.Bv[i] = P::load(in[kB0 + i] + p);
  }
  for (int ax = 0; ax < 3; ++ax) {
    q.d_a[ax] = fd::d1_point<P>(in[kAlpha], p, ax, inv_h);
    for (int i = 0; i < 3; ++i)
      q.d_b[i][ax] = fd::d1_point<P>(in[kBeta0 + i], p, ax, inv_h);
  }
  gather_hessian_pack(in[kAlpha], inner, 0, p, inv_h, inv_h2, q.dd_a);
  for (int i = 0; i < 3; ++i)
    gather_hessian_pack(in[kBeta0 + i], inner, 1 + i, p, inv_h, inv_h2,
                        q.dd_b[i]);

  // Advection beta^j d_j v (upwind side picked lanewise by the shift's
  // sign, summed from zero over the axes as bssn_gather_point does) and
  // unit-sigma KO dissipation.
  for (int v = 0; v < kNumVars; ++v) {
    P adv = P::zero();
    for (int ax = 0; ax < 3; ++ax)
      adv = adv +
            q.bet[ax] * fd::upwind_point<P>(in[v], q.bet[ax], p, ax, inv_h);
    q.ad[v] = adv;
    q.ko[v] = fd::ko_point<P>(in[v], p, inv_h);
  }
}

/// Visit the W-point packs that cover the interior x-rows in `rows`, row by
/// row: body(p, o, i, j, k, live) with p = patch_idx(i, j, k) the pack's
/// first point in the input patch, o = oct_idx(i - kPad, j - kPad,
/// k - kPad) the same point in a 7^3 output block, and `live` its lanes
/// inside the row. The pack kernels store only the live lanes.
template <int W, class Body>
void for_each_row_pack(mesh::RowMask rows, Body&& body) {
  using mesh::kPad;
  using mesh::kR;
  for (int kk = kPad; kk < kPad + kR; ++kk)
    for (int jj = kPad; jj < kPad + kR; ++jj) {
      if (!mesh::has_row(rows, jj - kPad, kk - kPad)) continue;
      for (int i0 = 0; i0 < kR; i0 += W)
        body(mesh::patch_idx(kPad + i0, jj, kk),
             mesh::oct_idx(i0, jj - kPad, kk - kPad), kPad + i0, jj, kk,
             i0 + W <= kR ? W : kR - i0);
    }
}

/// Gather every algebra input of the W x-points starting at patch index p.
/// `inner` must hold the sweeps of the same input patches.
template <class P>
void bssn_gather_pack(const Real* const in[kNumVars],
                      const MixedInnerSweeps& inner, int p, Real inv_h,
                      Real inv_h2, Real chi_floor, AlgebraInputs<P>& q) {
  bssn_gather_pack_metric(in, inner, p, inv_h, inv_h2, chi_floor, q);
  bssn_gather_pack_gauge(in, inner, p, inv_h, inv_h2, q);
}

}  // namespace dgr::bssn
