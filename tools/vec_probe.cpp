/// \file vec_probe.cpp
/// \brief Auto-vectorization probe for the CI gate (tools/
/// check_vectorization.sh). Each loop tagged `DGR_HOT_LOOP(name)` must be
/// reported "loop vectorized" under `-O2 -mavx2 -fopt-info-vec-optimized`,
/// or the gate fails the build with the compiler's -fopt-info-vec-missed
/// reasons. The loops are the solver's compiler-vectorized hot shapes:
/// the RK4 state updates (solver par_axpy / par_set_axpy), plus two SoA
/// stream shapes (a scaled copy and a multiply-add). The stencil reductions
/// themselves are deliberately NOT here: auto-vectorizing a left-associated
/// floating-point sum requires reassociation, which would break the repo's
/// bitwise-determinism contract — those are vectorized across points with
/// explicit dgr::simd packs instead, asserted by an asm grep for ymm
/// registers in the same gate.

#include <cstddef>

namespace dgr::vecprobe {

/// RK4 update y += s * x over one field (par_axpy inner loop).
void axpy(double* __restrict y, const double* __restrict x, double s,
          std::size_t n) {
  // DGR_HOT_LOOP(axpy)
  for (std::size_t d = 0; d < n; ++d) y[d] += s * x[d];
}

/// RK4 stage y = a + s * b over one field (par_set_axpy inner loop).
void set_axpy(double* __restrict y, const double* __restrict a,
              const double* __restrict b, double s, std::size_t n) {
  // DGR_HOT_LOOP(set_axpy)
  for (std::size_t d = 0; d < n; ++d) y[d] = a[d] + s * b[d];
}

/// Stride-1 SoA gather with a uniform scale.
void soa_gather(double* __restrict dst, const double* __restrict src,
                double scale, std::size_t n) {
  // DGR_HOT_LOOP(soa_gather)
  for (std::size_t p = 0; p < n; ++p) dst[p] = src[p] * scale;
}

/// Elementwise ternary over SoA rows.
void soa_mul_add(double* __restrict out, const double* __restrict a,
                 const double* __restrict b, const double* __restrict c,
                 std::size_t n) {
  // DGR_HOT_LOOP(soa_mul_add)
  for (std::size_t p = 0; p < n; ++p) out[p] = a[p] * b[p] + c[p];
}

}  // namespace dgr::vecprobe
