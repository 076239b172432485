#include "mesh/interp.hpp"

namespace dgr::mesh {

Real Prolongation::lagrange(int m, Real t) {
  Real num = 1, den = 1;
  for (int j = 0; j < kR; ++j) {
    if (j == m) continue;
    num *= (t - j);
    den *= (m - j);
  }
  return num / den;
}

Prolongation::Prolongation() {
  for (int a = 0; a < kFine; ++a) {
    const Real t = 0.5 * a;
    for (int m = 0; m < kR; ++m) rows_[a][m] = lagrange(m, t);
    if (a % 2 == 0) {
      // Exact deltas at coincident points (avoid rounding noise).
      for (int m = 0; m < kR; ++m) rows_[a][m] = (m == a / 2) ? 1.0 : 0.0;
    }
  }
}

const Prolongation& Prolongation::get() {
  static const Prolongation p;
  return p;
}

void prolong_region(const Real* coarse, const FineBox& box, Real* fine) {
  const Prolongation& P = Prolongation::get();
  const auto [a0, b0, c0] = box.lo;
  const auto [a1, b1, c1] = box.hi;
  // Sweep 1 (x): [7,7,7] -> [13,7,7], stored x-fastest; every coarse (j, k)
  // row feeds the later sweeps.
  Real t1[kFine * kR * kR];
  for (int k = 0; k < kR; ++k)
    for (int j = 0; j < kR; ++j)
      for (int a = a0; a < a1; ++a) {
        const auto& w = P.row(a);
        Real s = 0;
        for (int i = 0; i < kR; ++i) s += w[i] * coarse[oct_idx(i, j, k)];
        t1[(k * kR + j) * kFine + a] = s;
      }
  // Sweep 2 (y): [13,7,7] -> [13,13,7].
  Real t2[kFine * kFine * kR];
  for (int k = 0; k < kR; ++k)
    for (int b = b0; b < b1; ++b) {
      const auto& w = P.row(b);
      for (int a = a0; a < a1; ++a) {
        Real s = 0;
        for (int j = 0; j < kR; ++j) s += w[j] * t1[(k * kR + j) * kFine + a];
        t2[(k * kFine + b) * kFine + a] = s;
      }
    }
  // Sweep 3 (z): [13,13,7] -> [13,13,13].
  for (int c = c0; c < c1; ++c) {
    const auto& w = P.row(c);
    for (int b = b0; b < b1; ++b)
      for (int a = a0; a < a1; ++a) {
        Real s = 0;
        for (int k = 0; k < kR; ++k) s += w[k] * t2[(k * kFine + b) * kFine + a];
        fine[(c * kFine + b) * kFine + a] = s;
      }
  }
}

void prolong_octant(const Real* coarse, Real* fine, OpCounts* counts) {
  prolong_region(coarse, FineBox{}, fine);
  if (counts) counts->flops += kProlongOctantFlops;
}

Real prolong_point_cached(const Real* coarse, int a, int b, int c,
                          OpCounts* counts) {
  const Prolongation& P = Prolongation::get();
  const auto& wa = P.row(a);
  const auto& wb = P.row(b);
  const auto& wc = P.row(c);
  Real s = 0;
  for (int k = 0; k < kR; ++k) {
    if (wc[k] == 0.0) continue;
    Real sk = 0;
    for (int j = 0; j < kR; ++j) {
      if (wb[j] == 0.0) continue;
      Real sj = 0;
      for (int i = 0; i < kR; ++i) sj += wa[i] * coarse[oct_idx(i, j, k)];
      sk += wb[j] * sj;
    }
    s += wc[k] * sk;
  }
  if (counts) counts->flops += 2ull * (kR * kR * kR + kR * kR + kR);
  return s;
}

Real prolong_point(const Real* coarse, int a, int b, int c, OpCounts* counts) {
  // Recompute the three weight rows and contract directly: this repeats the
  // row computation for every point — the redundant-interpolation cost the
  // loop-over-patches baseline pays (paper Fig. 7).
  Real wa[kR], wb[kR], wc[kR];
  for (int m = 0; m < kR; ++m) {
    wa[m] = Prolongation::lagrange(m, 0.5 * a);
    wb[m] = Prolongation::lagrange(m, 0.5 * b);
    wc[m] = Prolongation::lagrange(m, 0.5 * c);
  }
  Real s = 0;
  for (int k = 0; k < kR; ++k) {
    Real sk = 0;
    for (int j = 0; j < kR; ++j) {
      Real sj = 0;
      for (int i = 0; i < kR; ++i) sj += wa[i] * coarse[oct_idx(i, j, k)];
      sk += wb[j] * sj;
    }
    s += wc[k] * sk;
  }
  if (counts) {
    counts->flops += 3ull * kR * 13 /* row recomputation */ +
                     2ull * (kR * kR * kR + kR * kR + kR);
  }
  return s;
}

}  // namespace dgr::mesh
