#include "fd/stencils.hpp"

#include "common/error.hpp"

namespace dgr::fd {

namespace {

/// Compile-time-stride centered sweep over x in [X0, X1) of the patch rows
/// y in [y0, y1), z in [z0, z1): the fixed stride and x range let the
/// compiler unroll and vectorize the 7-point contraction.
template <int Axis, int X0, int X1>
void centered_rows(const Real* u, Real* out, const Real w[7], Real scale,
                   int y0, int y1, int z0, int z1) {
  constexpr int S = axis_stride(Axis);
  for (int k = z0; k < z1; ++k)
    for (int j = y0; j < y1; ++j) {
      const int row = (k * kPatch + j) * kPatch;
      for (int i = X0; i < X1; ++i) {
        const int p = row + i;
        const Real acc = w[0] * u[p - 3 * S] + w[1] * u[p - 2 * S] +
                         w[2] * u[p - S] + w[3] * u[p] + w[4] * u[p + S] +
                         w[5] * u[p + 2 * S] + w[6] * u[p + 3 * S];
        out[p] = acc * scale;
      }
    }
}

/// The centered sweep over its whole valid region: 3..9 along the sweep
/// axis and the full patch along the other two.
template <int Axis>
void centered_sweep(const Real* u, Real* out, const Real w[7], Real scale) {
  constexpr int lo1 = Axis == 1 ? kPad : 0;
  constexpr int hi1 = Axis == 1 ? kPad + kR : kPatch;
  constexpr int lo2 = Axis == 2 ? kPad : 0;
  constexpr int hi2 = Axis == 2 ? kPad + kR : kPatch;
  if constexpr (Axis == 0)
    centered_rows<Axis, kPad, kPad + kR>(u, out, w, scale, lo1, hi1, lo2, hi2);
  else
    centered_rows<Axis, 0, kPatch>(u, out, w, scale, lo1, hi1, lo2, hi2);
}

}  // namespace

void d1(const Real* u, Real* out, int axis, Real h) {
  const StencilWeights& W = kStencilWeights;
  const Real inv = 1.0 / h;
  switch (axis) {
    case 0: centered_sweep<0>(u, out, W.w1, inv); break;
    case 1: centered_sweep<1>(u, out, W.w1, inv); break;
    default: centered_sweep<2>(u, out, W.w1, inv); break;
  }
}

void d1_rows(const Real* u, Real* out, int axis, Real h, int y0, int y1,
             int z0, int z1) {
  DGR_CHECK(axis == 0 || axis == 1);
  const StencilWeights& W = kStencilWeights;
  const Real inv = 1.0 / h;
  if (axis == 0)
    centered_rows<0, kPad, kPad + kR>(u, out, W.w1, inv, y0, y1, z0, z1);
  else
    centered_rows<1, kPad, kPad + kR>(u, out, W.w1, inv, y0, y1, z0, z1);
}

void d2(const Real* u, Real* out, int axis, Real h) {
  const StencilWeights& W = kStencilWeights;
  const Real inv = 1.0 / (h * h);
  switch (axis) {
    case 0: centered_sweep<0>(u, out, W.w2, inv); break;
    case 1: centered_sweep<1>(u, out, W.w2, inv); break;
    default: centered_sweep<2>(u, out, W.w2, inv); break;
  }
}

void d2_mixed(const Real* u, Real* scratch, Real* out, int axis_a, int axis_b,
              Real h) {
  DGR_CHECK(axis_a != axis_b);
  d1(u, scratch, axis_a, h);
  d1(scratch, out, axis_b, h);
}

void d1_upwind(const Real* u, const Real* beta, Real* out, int axis, Real h) {
  const StencilWeights& W = kStencilWeights;
  const int s = axis_stride(axis);
  const Real inv = 1.0 / h;
  for (int k = kPad; k < kPad + kR; ++k)
    for (int j = kPad; j < kPad + kR; ++j)
      for (int i = kPad; i < kPad + kR; ++i) {
        const int p = patch_idx(i, j, k);
        Real acc = 0;
        if (beta[p] >= 0) {
          for (int t = -1; t <= 3; ++t) acc += W.up_pos[t + 1] * u[p + t * s];
        } else {
          for (int t = -3; t <= 1; ++t) acc += W.up_neg[t + 3] * u[p + t * s];
        }
        out[p] = acc * inv;
      }
}

void ko_dissipation(const Real* u, Real* out, Real sigma, Real h) {
  const StencilWeights& W = kStencilWeights;
  const Real f = sigma / h;
  for (int k = kPad; k < kPad + kR; ++k)
    for (int j = kPad; j < kPad + kR; ++j)
      for (int i = kPad; i < kPad + kR; ++i) {
        const int p = patch_idx(i, j, k);
        Real acc = 0;
        for (int t = -3; t <= 3; ++t) {
          acc += W.ko[t + 3] *
                 (u[p + t] + u[p + t * kPatch] + u[p + t * kPatch * kPatch]);
        }
        out[p] = acc * f;
      }
}

}  // namespace dgr::fd
