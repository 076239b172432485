#pragma once
/// \file simd.hpp
/// \brief Thin explicit-SIMD wrapper `dgr::simd<double, W>` for the patch
/// kernels (the RHS, Psi4 and the constraints): a
/// fixed-width pack of doubles with elementwise
/// load/store/arithmetic (mixed scalar–pack operands broadcast) whose
/// per-lane results are bitwise identical to the scalar expressions they
/// replace.
///
/// Three instantiations coexist:
///  - `simd<double, 1>`  — the scalar reference, always available;
///  - `simd<double, 4>`  — AVX2 (`__m256d`) when the build enables it
///    (`-DDGR_ENABLE_AVX2=ON` -> global `-mavx2` + `DGR_SIMD_AVX2`),
///    otherwise the generic array fallback below;
///  - `simd<double, W>`  — a portable array-of-W fallback whose per-lane
///    loops the compiler is left to auto-vectorize.
///
/// ODR/ABI safety: everything here is a header-only template, and the AVX2
/// specialization is compiled in (or out) uniformly for the whole build via
/// the global `DGR_SIMD_AVX2` definition — never by mixing `-march` flags
/// between translation units. Backend choice at run time (`DGR_SIMD=avx2|
/// scalar`) only selects which already-instantiated width to dispatch to.
///
/// Determinism contract: add/sub/mul/div/neg/min/max/select/sqrt/pow are
/// lanewise identical to their scalar counterparts; `fma` is a
/// single-rounding fused multiply-add in every backend (`std::fma` ==
/// `vfmadd`), so results never depend on the width. The build adds
/// `-ffp-contract=off` so the compiler cannot contract scalar a*b+c into an
/// FMA behind our back.

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "common/error.hpp"
#include "common/types.hpp"

#if defined(DGR_SIMD_AVX2) && defined(__AVX2__)
#include <immintrin.h>
#define DGR_SIMD_HAS_AVX2 1
#else
#define DGR_SIMD_HAS_AVX2 0
#endif

namespace dgr {

template <class T, int W>
struct simd;

/// Portable array backend: per-lane loops, written stride-1 so the
/// auto-vectorizer turns them into vector code at any width.
template <int W>
struct simd<double, W> {
  static_assert(W >= 1, "simd width must be positive");
  double v[W];

  static constexpr int width = W;

  static simd load(const double* p) {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = p[i];
    return r;
  }
  static simd load_aligned(const double* p) { return load(p); }
  /// First n lanes from p, remaining lanes zero (tail handling).
  static simd load_partial(const double* p, int n) {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = i < n ? p[i] : 0.0;
    return r;
  }
  static simd broadcast(double c) {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = c;
    return r;
  }
  static simd zero() { return broadcast(0.0); }

  void store(double* p) const {
    for (int i = 0; i < W; ++i) p[i] = v[i];
  }
  void store_aligned(double* p) const { store(p); }
  void store_partial(double* p, int n) const {
    for (int i = 0; i < W && i < n; ++i) p[i] = v[i];
  }
  double operator[](int i) const { return v[i]; }

  friend simd operator+(const simd& a, const simd& b) {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  friend simd operator-(const simd& a, const simd& b) {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  friend simd operator*(const simd& a, const simd& b) {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  friend simd operator/(const simd& a, const simd& b) {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] / b.v[i];
    return r;
  }
  friend simd operator-(const simd& a) {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = -a.v[i];
    return r;
  }
  /// Single-rounding fused multiply-add: a*b + c (std::fma is correctly
  /// rounded, bitwise-equal to the hardware vfmadd lanes).
  friend simd fma(const simd& a, const simd& b, const simd& c) {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = std::fma(a.v[i], b.v[i], c.v[i]);
    return r;
  }
  /// maxpd semantics: a > b ? a : b (returns b on NaN or equal operands).
  friend simd max(const simd& a, const simd& b) {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  /// minpd semantics: a < b ? a : b (returns b on NaN or equal operands).
  friend simd min(const simd& a, const simd& b) {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  /// Lanewise c >= 0 ? a : b (upwind stencil side selection).
  friend simd select_ge_zero(const simd& c, const simd& a, const simd& b) {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = c.v[i] >= 0.0 ? a.v[i] : b.v[i];
    return r;
  }
  /// Lanewise a < b ? x : y (false on NaN, like the scalar compare).
  friend simd select_lt(const simd& a, const simd& b, const simd& x,
                        const simd& y) {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] < b.v[i] ? x.v[i] : y.v[i];
    return r;
  }
  /// Lanewise correctly rounded square root (std::sqrt).
  friend simd sqrt(const simd& a) {
    simd r;
    for (int i = 0; i < W; ++i) r.v[i] = std::sqrt(a.v[i]);
    return r;
  }
};

/// Scalar specialization: the reference every wider width must match
/// bitwise, lane for lane.
template <>
struct simd<double, 1> {
  double v;

  static constexpr int width = 1;

  static simd load(const double* p) { return {*p}; }
  static simd load_aligned(const double* p) { return {*p}; }
  static simd load_partial(const double* p, int n) {
    return {n > 0 ? *p : 0.0};
  }
  static simd broadcast(double c) { return {c}; }
  static simd zero() { return {0.0}; }

  void store(double* p) const { *p = v; }
  void store_aligned(double* p) const { *p = v; }
  void store_partial(double* p, int n) const {
    if (n > 0) *p = v;
  }
  double operator[](int) const { return v; }

  friend simd operator+(const simd& a, const simd& b) { return {a.v + b.v}; }
  friend simd operator-(const simd& a, const simd& b) { return {a.v - b.v}; }
  friend simd operator*(const simd& a, const simd& b) { return {a.v * b.v}; }
  friend simd operator/(const simd& a, const simd& b) { return {a.v / b.v}; }
  friend simd operator-(const simd& a) { return {-a.v}; }
  friend simd fma(const simd& a, const simd& b, const simd& c) {
    return {std::fma(a.v, b.v, c.v)};
  }
  friend simd max(const simd& a, const simd& b) {
    return {a.v > b.v ? a.v : b.v};
  }
  friend simd min(const simd& a, const simd& b) {
    return {a.v < b.v ? a.v : b.v};
  }
  friend simd select_ge_zero(const simd& c, const simd& a, const simd& b) {
    return {c.v >= 0.0 ? a.v : b.v};
  }
  friend simd select_lt(const simd& a, const simd& b, const simd& x,
                        const simd& y) {
    return {a.v < b.v ? x.v : y.v};
  }
  friend simd sqrt(const simd& a) { return {std::sqrt(a.v)}; }
};

#if DGR_SIMD_HAS_AVX2
/// AVX2 backend: one 256-bit register, four doubles.
template <>
struct simd<double, 4> {
  __m256d v;

  static constexpr int width = 4;

  static simd load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static simd load_aligned(const double* p) { return {_mm256_load_pd(p)}; }
  static simd load_partial(const double* p, int n) {
    alignas(32) double tmp[4] = {0, 0, 0, 0};
    for (int i = 0; i < 4 && i < n; ++i) tmp[i] = p[i];
    return {_mm256_load_pd(tmp)};
  }
  static simd broadcast(double c) { return {_mm256_set1_pd(c)}; }
  static simd zero() { return {_mm256_setzero_pd()}; }

  void store(double* p) const { _mm256_storeu_pd(p, v); }
  void store_aligned(double* p) const { _mm256_store_pd(p, v); }
  void store_partial(double* p, int n) const {
    alignas(32) double tmp[4];
    _mm256_store_pd(tmp, v);
    for (int i = 0; i < 4 && i < n; ++i) p[i] = tmp[i];
  }
  double operator[](int i) const {
    alignas(32) double tmp[4];
    _mm256_store_pd(tmp, v);
    return tmp[i];
  }

  friend simd operator+(const simd& a, const simd& b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend simd operator-(const simd& a, const simd& b) {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend simd operator*(const simd& a, const simd& b) {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  friend simd operator/(const simd& a, const simd& b) {
    return {_mm256_div_pd(a.v, b.v)};
  }
  /// Sign-bit flip, as scalar negation (0 - a would turn -(+0) into +0).
  friend simd operator-(const simd& a) {
    return {_mm256_xor_pd(a.v, _mm256_set1_pd(-0.0))};
  }
  friend simd fma(const simd& a, const simd& b, const simd& c) {
#if defined(__FMA__)
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
#else
    // Lanewise std::fma keeps the single-rounding contract without -mfma.
    alignas(32) double xa[4], xb[4], xc[4];
    _mm256_store_pd(xa, a.v);
    _mm256_store_pd(xb, b.v);
    _mm256_store_pd(xc, c.v);
    for (int i = 0; i < 4; ++i) xa[i] = std::fma(xa[i], xb[i], xc[i]);
    return {_mm256_load_pd(xa)};
#endif
  }
  friend simd max(const simd& a, const simd& b) {
    return {_mm256_max_pd(a.v, b.v)};
  }
  friend simd min(const simd& a, const simd& b) {
    return {_mm256_min_pd(a.v, b.v)};
  }
  friend simd select_ge_zero(const simd& c, const simd& a, const simd& b) {
    const __m256d m = _mm256_cmp_pd(c.v, _mm256_setzero_pd(), _CMP_GE_OQ);
    return {_mm256_blendv_pd(b.v, a.v, m)};
  }
  friend simd select_lt(const simd& a, const simd& b, const simd& x,
                        const simd& y) {
    const __m256d m = _mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ);
    return {_mm256_blendv_pd(y.v, x.v, m)};
  }
  friend simd sqrt(const simd& a) { return {_mm256_sqrt_pd(a.v)}; }
};
#endif  // DGR_SIMD_HAS_AVX2

/// Mixed scalar–pack arithmetic: the scalar is broadcast to every lane, so
/// each lane computes exactly the scalar expression. This is what lets code
/// written once over a scalar type S (bssn_algebra_point, whose constants
/// are plain doubles: `2.0 * q.a`, `x / 3.0`) instantiate at a pack.
template <int W>
inline simd<double, W> operator+(double a, const simd<double, W>& b) {
  return simd<double, W>::broadcast(a) + b;
}
template <int W>
inline simd<double, W> operator+(const simd<double, W>& a, double b) {
  return a + simd<double, W>::broadcast(b);
}
template <int W>
inline simd<double, W> operator-(double a, const simd<double, W>& b) {
  return simd<double, W>::broadcast(a) - b;
}
template <int W>
inline simd<double, W> operator-(const simd<double, W>& a, double b) {
  return a - simd<double, W>::broadcast(b);
}
template <int W>
inline simd<double, W> operator*(double a, const simd<double, W>& b) {
  return simd<double, W>::broadcast(a) * b;
}
template <int W>
inline simd<double, W> operator*(const simd<double, W>& a, double b) {
  return a * simd<double, W>::broadcast(b);
}
template <int W>
inline simd<double, W> operator/(double a, const simd<double, W>& b) {
  return simd<double, W>::broadcast(a) / b;
}
template <int W>
inline simd<double, W> operator/(const simd<double, W>& a, double b) {
  return a / simd<double, W>::broadcast(b);
}

/// Lanewise std::pow(a, e): one scalar library call per lane, in every
/// backend.
template <int W>
inline simd<double, W> pow(const simd<double, W>& a, double e) {
  double x[W];
  a.store(x);
  for (int i = 0; i < W; ++i) x[i] = std::pow(x[i], e);
  return simd<double, W>::load(x);
}

/// The scalar forms of the lanewise ops a point body needs beyond
/// arithmetic, so one body instantiates at Real and at every pack width
/// (with `using std::sqrt; using std::pow;` in the body for those two).
inline double select_lt(double a, double b, double x, double y) {
  return a < b ? x : y;
}
/// c in every lane of S (S = Real or a dgr::simd pack).
template <class S>
inline S splat(double c) {
  if constexpr (std::is_same_v<S, double>)
    return c;
  else
    return S::broadcast(c);
}

/// Widest backend the build compiled real vector instructions for.
inline constexpr int kSimdNativeWidth = DGR_SIMD_HAS_AVX2 ? 4 : 1;

/// Name of the backend a given width dispatches to.
inline const char* simd_backend_name(int width) {
  if (width <= 1) return "scalar";
#if DGR_SIMD_HAS_AVX2
  if (width == 4) return "avx2";
#endif
  return "generic";
}

/// Compiler flags the SIMD-bearing TUs were built with (set by CMake; the
/// bench telemetry records it as `march` so hosts are comparable).
inline const char* simd_march() {
#ifdef DGR_MARCH
  return DGR_MARCH;
#else
  return "unknown";
#endif
}

/// Active dispatch width: `DGR_SIMD=scalar` forces 1, `DGR_SIMD=avx2`
/// forces 4 (the generic 4-wide fallback when AVX2 was not compiled in),
/// default is the native width. Any other value throws dgr::Error at first
/// use — a typo'd DGR_SIMD must not silently run at the native width.
/// Read once and cached — set the environment variable before the first
/// kernel runs.
inline int simd_active_width() {
  static const int w = [] {
    const char* e = std::getenv("DGR_SIMD");
    if (e == nullptr || *e == '\0') return kSimdNativeWidth;
    if (std::strcmp(e, "scalar") == 0) return 1;
    if (std::strcmp(e, "avx2") == 0) return 4;
    DGR_CHECK_MSG(false, "DGR_SIMD must be one of scalar|avx2, got \"" << e
                                                                      << "\"");
    return kSimdNativeWidth;  // unreachable
  }();
  return w;
}

}  // namespace dgr
