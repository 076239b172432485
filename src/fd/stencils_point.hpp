#pragma once
/// \file stencils_point.hpp
/// \brief Point-local (and SIMD-pack-local) stencil evaluators — the fused
/// counterparts of the whole-patch sweeps in stencils.hpp. Each evaluator
/// contracts the same weight table in the same left-to-right order as the
/// corresponding sweep, so its value at any point is bitwise identical to
/// the sweep's output there. The pack type `P` is `dgr::simd<double, W>`:
/// the W lanes are W consecutive x-points of a patch row, so every load is
/// a stride-1 vector load of the underlying patch array.
///
/// These are the DGR hot loops: the pack gather (bssn/gather_pack.hpp)
/// evaluates them once per interior point per input, with no intermediate
/// patch-sized arrays (tools/check_vectorization.sh asserts the emitted
/// code is vector code).

#include "common/types.hpp"
#include "fd/stencils.hpp"
#include "simd/simd.hpp"

namespace dgr::fd {

/// Centered 7-point contraction at patch index p along stride s:
///   (w0*u[p-3s] + ... + w6*u[p+3s]) * scale
/// With w = w1/h it is d1; with w = w2/h^2 it is d2 (see stencils.cpp's
/// centered_sweep — the expression shape is identical).
template <class P>
inline P centered_point(const Real* u, int p, int s, const Real w[7],
                        Real scale) {
  const P acc = P::broadcast(w[0]) * P::load(u + p - 3 * s) +
                P::broadcast(w[1]) * P::load(u + p - 2 * s) +
                P::broadcast(w[2]) * P::load(u + p - s) +
                P::broadcast(w[3]) * P::load(u + p) +
                P::broadcast(w[4]) * P::load(u + p + s) +
                P::broadcast(w[5]) * P::load(u + p + 2 * s) +
                P::broadcast(w[6]) * P::load(u + p + 3 * s);
  return acc * P::broadcast(scale);
}

/// Fused d1: centered first derivative at p along `axis`, scaled by 1/h.
template <class P>
inline P d1_point(const Real* u, int p, int axis, Real inv_h) {
  return centered_point<P>(u, p, axis_stride(axis), kStencilWeights.w1,
                           inv_h);
}

/// Fused d2 (diagonal): centered second derivative at p, scaled by 1/h^2.
template <class P>
inline P d2_point(const Real* u, int p, int axis, Real inv_h2) {
  return centered_point<P>(u, p, axis_stride(axis), kStencilWeights.w2,
                           inv_h2);
}

/// Fused 4th-order upwind derivative at p along `axis`: both one-sided
/// contractions are evaluated and the lanewise sign of `beta` selects one —
/// bitwise identical to the scalar branch in d1_upwind (both sides
/// accumulate from zero in the sweep's order).
template <class P>
inline P upwind_point(const Real* u, const P& beta, int p, int axis,
                      Real inv_h) {
  const StencilWeights& W = kStencilWeights;
  const int s = axis_stride(axis);
  P pos = P::zero();
  for (int t = -1; t <= 3; ++t)
    pos = pos + P::broadcast(W.up_pos[t + 1]) * P::load(u + p + t * s);
  P neg = P::zero();
  for (int t = -3; t <= 1; ++t)
    neg = neg + P::broadcast(W.up_neg[t + 3]) * P::load(u + p + t * s);
  return select_ge_zero(beta, pos, neg) * P::broadcast(inv_h);
}

/// Fused Kreiss–Oliger dissipation at p, all three axes summed, scaled by
/// f = sigma/h. Accumulation order matches ko_dissipation exactly
/// (per-offset: x + y + z first, then the weight).
template <class P>
inline P ko_point(const Real* u, int p, Real f) {
  const StencilWeights& W = kStencilWeights;
  P acc = P::zero();
  for (int t = -3; t <= 3; ++t) {
    acc = acc + P::broadcast(W.ko[t + 3]) *
                    (P::load(u + p + t) + P::load(u + p + t * kPatch) +
                     P::load(u + p + t * kPatch * kPatch));
  }
  return acc * P::broadcast(f);
}

}  // namespace dgr::fd
