#include "bssn/rhs.hpp"

#include <algorithm>
#include <cmath>

#include "bssn/algebra.hpp"
#include "bssn/gather_pack.hpp"
#include "common/error.hpp"
#include "fd/stencils.hpp"
#include "simd/simd.hpp"

namespace dgr::bssn {

using mesh::kPad;
using mesh::kPatch;
using mesh::kPatchPts;
using mesh::kR;
using mesh::oct_idx;
using mesh::patch_idx;

MixedInnerSweeps::MixedInnerSweeps()
    : d1(static_cast<std::size_t>(kSecondDerivVars.size()) * 2 * kPatchPts) {}

void MixedInnerSweeps::compute(const Real* const in[kNumVars], Real h) {
  constexpr int lo = kPad, hi = kPad + kR;
  for (std::size_t s = 0; s < kSecondDerivVars.size(); ++s) {
    const int v = kSecondDerivVars[s];
    if (in[v] == nullptr) continue;
    Real* dx = d1.data() + (s * 2) * kPatchPts;
    // d/dx where y or z is interior: every y at interior z, then interior
    // y at the z padding below and above.
    fd::d1_rows(in[v], dx, 0, h, 0, kPatch, lo, hi);
    fd::d1_rows(in[v], dx, 0, h, lo, hi, 0, lo);
    fd::d1_rows(in[v], dx, 0, h, lo, hi, hi, kPatch);
    // d/dy at interior x and y, every z.
    fd::d1_rows(in[v], dx + kPatchPts, 1, h, lo, hi, 0, kPatch);
  }
}

namespace {

/// OpCounts of the derivative stage (both RHS bodies charge these, so the
/// simgpu kernel records and the modeled times do not depend on the width).
void charge_deriv_stage(OpCounts& c) {
  const std::uint64_t pts = kR * kR * kR;
  c.flops += pts * (kNumVars * 3ull * (fd::kD1Flops + fd::kUpwindFlops) +
                    kNumVars * fd::kKoFlops +
                    kSecondDerivVars.size() * 6ull * fd::kD2Flops);
  c.bytes_read += std::uint64_t(kNumVars) * kPatchPts * sizeof(Real);
}

/// OpCounts of the algebraic stage: A reads the 24 fields + 210 derivatives
/// per point and writes 24 outputs (paper Eq. 21b memory accounting).
void charge_algebraic_stage(OpCounts& c) {
  const std::uint64_t pts = kR * kR * kR;
  c.flops += pts * kAFlopsPerPoint;
  c.bytes_read += pts * (kNumVars * 2 + 210) * sizeof(Real);
  c.bytes_written += pts * kNumVars * sizeof(Real);
}

/// The Sommerfeld overwrite (see bssn_sommerfeld) with the centered
/// gradient d_axis(var) at patch index p taken from grad(var, axis, p):
/// the staged kernel reads its derivative-stage arrays, the packed kernels
/// evaluate the same stencil point-locally (the same bits).
template <class Grad>
void sommerfeld(const Real* const in[kNumVars], Real* const out[kNumVars],
                const mesh::PatchGeom& geom, Real half_extent,
                mesh::RowMask rows, Grad&& grad) {
  const Real eps = 1e-9 * half_extent;
  for (int kk = kPad; kk < kPad + kR; ++kk)
    for (int jj = kPad; jj < kPad + kR; ++jj) {
      if (!mesh::has_row(rows, jj - kPad, kk - kPad)) continue;
      for (int ii = kPad; ii < kPad + kR; ++ii) {
        const Real x = geom.origin[0] + ii * geom.h;
        const Real y = geom.origin[1] + jj * geom.h;
        const Real z = geom.origin[2] + kk * geom.h;
        const bool on_boundary = std::abs(std::abs(x) - half_extent) < eps ||
                                 std::abs(std::abs(y) - half_extent) < eps ||
                                 std::abs(std::abs(z) - half_extent) < eps;
        if (!on_boundary) continue;
        const int p = patch_idx(ii, jj, kk);
        const int o = oct_idx(ii - kPad, jj - kPad, kk - kPad);
        const Real r = std::sqrt(x * x + y * y + z * z);
        for (int v = 0; v < kNumVars; ++v) {
          const Real du =
              (x * grad(v, 0, p) + y * grad(v, 1, p) + z * grad(v, 2, p)) / r;
          out[v][o] = -var_wave_speed(v) *
                      (du + (in[v][p] - var_asymptotic(v)) / r);
        }
      }
    }
}

}  // namespace

void metric_patch_inputs(const Real* block, const Real* in[kNumVars]) {
  for (int v = 0; v < kNumVars; ++v) in[v] = nullptr;
  for (std::size_t s = 0; s < kMetricVars.size(); ++s)
    in[kMetricVars[s]] = block + s * kPatchPts;
}

void bssn_deriv_stage(const Real* const in[kNumVars], Real h,
                      DerivWorkspace& ws, OpCounts* counts) {
  if (ws.grad.empty()) {
    ws.grad.resize(std::size_t(kNumVars) * 3 * kPatchPts);
    ws.agrad.resize(std::size_t(kNumVars) * 3 * kPatchPts);
    ws.hess.resize(kSecondDerivVars.size() * 6 * kPatchPts);
    ws.ko.resize(std::size_t(kNumVars) * kPatchPts);
    ws.scratch.resize(kPatchPts);
  }
  // First derivatives (72 evaluations) + upwind advective derivatives.
  for (int v = 0; v < kNumVars; ++v) {
    for (int axis = 0; axis < 3; ++axis) {
      fd::d1(in[v], ws.grad_of(v, axis), axis, h);
      fd::d1_upwind(in[v], in[kBeta0 + axis], ws.agrad_of(v, axis), axis, h);
    }
    // KO dissipation folded over the three axes (the paper counts the 72
    // directional KO derivatives; the combined apply is equivalent work).
    fd::ko_dissipation(in[v], ws.ko_of(v), 1.0, h);  // sigma applied in A
  }
  // Second derivatives (66 evaluations) for the 11 Hessian variables.
  for (int s = 0; s < static_cast<int>(kSecondDerivVars.size()); ++s) {
    const Real* u = in[kSecondDerivVars[s]];
    Real* sc = ws.scratch.data();
    fd::d2(u, ws.hess_of(s, sym_idx(0, 0)), 0, h);
    fd::d2(u, ws.hess_of(s, sym_idx(1, 1)), 1, h);
    fd::d2(u, ws.hess_of(s, sym_idx(2, 2)), 2, h);
    fd::d2_mixed(u, sc, ws.hess_of(s, sym_idx(0, 1)), 0, 1, h);
    fd::d2_mixed(u, sc, ws.hess_of(s, sym_idx(0, 2)), 0, 2, h);
    fd::d2_mixed(u, sc, ws.hess_of(s, sym_idx(1, 2)), 1, 2, h);
  }
  if (counts) charge_deriv_stage(*counts);
}

/// Gather the point-local inputs of the algebraic stage from the workspace
/// (the GPU analogue reads these from shared memory / thread-local storage,
/// Fig. 9). Hessian slots are fixed by kSecondDerivVars: alpha=0,
/// beta=1..3, chi=4, gt=5..10.
void bssn_gather_point(const Real* const in[kNumVars], DerivWorkspace& ws,
                       int p, const BssnParams& prm, AlgebraInputs<Real>& q) {
  q.a = in[kAlpha][p];
  q.ch = std::max(in[kChi][p], prm.chi_floor);
  q.Kt = in[kK][p];
  for (int i = 0; i < 3; ++i) {
    q.Gt[i] = in[kGt0 + i][p];
    q.bet[i] = in[kBeta0 + i][p];
    q.Bv[i] = in[kB0 + i][p];
  }
  for (int s = 0; s < 6; ++s) {
    q.gt[s] = in[kGtxx + s][p];
    q.At[s] = in[kAtxx + s][p];
  }
  for (int ax = 0; ax < 3; ++ax) {
    q.d_a[ax] = ws.grad_of(kAlpha, ax)[p];
    q.d_ch[ax] = ws.grad_of(kChi, ax)[p];
    q.d_K[ax] = ws.grad_of(kK, ax)[p];
    for (int i = 0; i < 3; ++i) {
      q.d_b[i][ax] = ws.grad_of(kBeta0 + i, ax)[p];
      q.d_Gt[i][ax] = ws.grad_of(kGt0 + i, ax)[p];
    }
    for (int s = 0; s < 6; ++s) {
      q.d_gt[s][ax] = ws.grad_of(kGtxx + s, ax)[p];
      q.d_At[s][ax] = ws.grad_of(kAtxx + s, ax)[p];
    }
  }
  for (int s6 = 0; s6 < 6; ++s6) {
    q.dd_a[s6] = ws.hess_of(0, s6)[p];
    q.dd_ch[s6] = ws.hess_of(4, s6)[p];
    for (int i = 0; i < 3; ++i) q.dd_b[i][s6] = ws.hess_of(1 + i, s6)[p];
    for (int s = 0; s < 6; ++s) q.dd_gt[s][s6] = ws.hess_of(5 + s, s6)[p];
  }
  for (int v = 0; v < kNumVars; ++v) {
    Real s = 0;
    for (int ax = 0; ax < 3; ++ax) s += q.bet[ax] * ws.agrad_of(v, ax)[p];
    q.ad[v] = s;
    q.ko[v] = ws.ko_of(v)[p];
  }
}

void bssn_algebraic_stage(const Real* const in[kNumVars],
                          Real* const out[kNumVars],
                          const mesh::PatchGeom& geom, Real half_extent,
                          const BssnParams& prm, DerivWorkspace& ws,
                          OpCounts* counts, mesh::RowMask rows) {
  DGR_CHECK_MSG(!ws.grad.empty(),
                "bssn_algebraic_stage reads a bssn_deriv_stage workspace");
  AlgebraInputs<Real> q;
  const AlgebraParams<Real> aprm{prm.lambda_f0, prm.eta, prm.ko_sigma};
  Real rhs_pt[kNumVars];
  for (int kk = kPad; kk < kPad + kR; ++kk)
    for (int jj = kPad; jj < kPad + kR; ++jj) {
      if (!mesh::has_row(rows, jj - kPad, kk - kPad)) continue;
      for (int ii = kPad; ii < kPad + kR; ++ii) {
        bssn_gather_point(in, ws, patch_idx(ii, jj, kk), prm, q);
        bssn_algebra_point(q, aprm, rhs_pt);
        const int o = oct_idx(ii - kPad, jj - kPad, kk - kPad);
        for (int v = 0; v < kNumVars; ++v) out[v][o] = rhs_pt[v];
      }
    }
  if (prm.sommerfeld)
    sommerfeld(in, out, geom, half_extent, rows, [&](int v, int axis, int p) {
      return ws.grad_of(v, axis)[p];
    });
  if (counts) charge_algebraic_stage(*counts);
}

void bssn_rhs_patch(const Real* const in[kNumVars], Real* const out[kNumVars],
                    const mesh::PatchGeom& geom, Real half_extent,
                    const BssnParams& params, DerivWorkspace& ws,
                    OpCounts* counts, mesh::RowMask rows) {
  bssn_deriv_stage(in, geom.h, ws, counts);
  bssn_algebraic_stage(in, out, geom, half_extent, params, ws, counts, rows);
}

template <int W>
void bssn_rhs_patch_packed(const Real* const in[kNumVars],
                           Real* const out[kNumVars],
                           const mesh::PatchGeom& geom, Real half_extent,
                           const BssnParams& prm, DerivWorkspace& ws,
                           OpCounts* counts, mesh::RowMask rows) {
  using P = simd<Real, W>;
  ws.inner.compute(in, geom.h);
  const Real inv_h = 1.0 / geom.h;
  const Real inv_h2 = 1.0 / (geom.h * geom.h);
  const AlgebraParams<P> aprm{P::broadcast(prm.lambda_f0),
                              P::broadcast(prm.eta),
                              P::broadcast(prm.ko_sigma)};
  AlgebraInputs<P> q;
  P rhs[kNumVars];
  for_each_row_pack<W>(rows, [&](int p, int o, int, int, int, int live) {
    bssn_gather_pack(in, ws.inner, p, inv_h, inv_h2, prm.chi_floor, q);
    bssn_algebra_point(q, aprm, rhs);
    for (int v = 0; v < kNumVars; ++v) rhs[v].store_partial(out[v] + o, live);
  });
  if (prm.sommerfeld) bssn_sommerfeld(in, out, geom, half_extent, rows);
  if (counts) {
    charge_deriv_stage(*counts);
    charge_algebraic_stage(*counts);
  }
}

template void bssn_rhs_patch_packed<1>(const Real* const[kNumVars],
                                       Real* const[kNumVars],
                                       const mesh::PatchGeom&, Real,
                                       const BssnParams&, DerivWorkspace&,
                                       OpCounts*, mesh::RowMask);
template void bssn_rhs_patch_packed<4>(const Real* const[kNumVars],
                                       Real* const[kNumVars],
                                       const mesh::PatchGeom&, Real,
                                       const BssnParams&, DerivWorkspace&,
                                       OpCounts*, mesh::RowMask);

void bssn_sommerfeld(const Real* const in[kNumVars], Real* const out[kNumVars],
                     const mesh::PatchGeom& geom, Real half_extent,
                     mesh::RowMask rows) {
  const Real inv_h = 1.0 / geom.h;
  sommerfeld(in, out, geom, half_extent, rows, [&](int v, int axis, int p) {
    return fd::d1_point<simd<Real, 1>>(in[v], p, axis, inv_h)[0];
  });
}

}  // namespace dgr::bssn
