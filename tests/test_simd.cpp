/// \file test_simd.cpp
/// \brief Tests of the explicit SIMD wrapper dgr::simd<double, W>: memory
/// ops (aligned, unaligned, partial tails), lanewise arithmetic identity
/// with scalar expressions, single-rounding fma, min/max semantics, and the
/// property that the fused pack stencil evaluators (stencils_point.hpp) are
/// bitwise-equal lane for lane to the scalar sweeps they replace.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "fd/stencils.hpp"
#include "fd/stencils_point.hpp"
#include "simd/simd.hpp"

namespace dgr {
namespace {

using P4 = simd<double, 4>;
using P1 = simd<double, 1>;

TEST(Simd, LoadStoreRoundTrip) {
  alignas(32) double src[8] = {1.5, -2.25, 3.0, 0.0, 7.5, -0.5, 2.0, 9.0};
  double dst[4] = {0, 0, 0, 0};
  P4::load(src + 1).store(dst);  // unaligned
  for (int i = 0; i < 4; ++i) EXPECT_EQ(dst[i], src[1 + i]);
  alignas(32) double adst[4];
  P4::load_aligned(src).store_aligned(adst);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(adst[i], src[i]);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(P4::load(src)[i], src[i]);
}

TEST(Simd, PartialLoadStoreTails) {
  const double src[4] = {1.0, 2.0, 3.0, 4.0};
  for (int n = 0; n <= 4; ++n) {
    const P4 v = P4::load_partial(src, n);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(v[i], i < n ? src[i] : 0.0) << n;
    double dst[4] = {-1, -1, -1, -1};
    P4::load(src).store_partial(dst, n);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(dst[i], i < n ? src[i] : -1.0) << n;
  }
  // Scalar specialization honors the same contract.
  EXPECT_EQ(P1::load_partial(src, 0)[0], 0.0);
  EXPECT_EQ(P1::load_partial(src, 1)[0], 1.0);
}

TEST(Simd, ArithmeticIsLanewiseBitwiseEqualToScalar) {
  Rng rng(42);
  for (int trial = 0; trial < 100; ++trial) {
    double a[4], b[4];
    for (int i = 0; i < 4; ++i) {
      a[i] = rng.uniform(-10, 10);
      b[i] = rng.uniform(0.1, 10);  // nonzero divisor
    }
    const P4 pa = P4::load(a), pb = P4::load(b);
    const double s = b[0];  // mixed scalar–pack operand, broadcast
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ((pa + pb)[i], a[i] + b[i]);
      EXPECT_EQ((pa - pb)[i], a[i] - b[i]);
      EXPECT_EQ((pa * pb)[i], a[i] * b[i]);
      EXPECT_EQ((pa / pb)[i], a[i] / b[i]);
      EXPECT_EQ((-pa)[i], -a[i]);
      EXPECT_EQ((s + pa)[i], s + a[i]);
      EXPECT_EQ((pa + s)[i], a[i] + s);
      EXPECT_EQ((s - pa)[i], s - a[i]);
      EXPECT_EQ((pa - s)[i], a[i] - s);
      EXPECT_EQ((s * pa)[i], s * a[i]);
      EXPECT_EQ((pa * s)[i], a[i] * s);
      EXPECT_EQ((s / pb)[i], s / b[i]);
      EXPECT_EQ((pa / s)[i], a[i] / s);
    }
  }
}

TEST(Simd, FmaIsSingleRounding) {
  // Pick operands where round(a*b)+c differs from fma(a,b,c): the product
  // 1+2^-30 squared needs more than 53 bits against c = -1.
  const double a = 1.0 + std::ldexp(1.0, -30);
  const double c = -1.0;
  const double fused = std::fma(a, a, c);
  const double unfused = a * a + c;
  ASSERT_NE(fused, unfused);  // the case actually discriminates
  const P4 r = fma(P4::broadcast(a), P4::broadcast(a), P4::broadcast(c));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r[i], fused);
  EXPECT_EQ(fma(P1::broadcast(a), P1::broadcast(a), P1::broadcast(c))[0],
            fused);
}

TEST(Simd, MinMaxMatchVectorSemantics) {
  // maxpd/minpd return the SECOND operand on NaN; both specializations and
  // the chi-floor usage max(floor, x) rely on exactly that.
  const double nan = std::nan("");
  const double xs[4] = {1.0, -2.0, nan, 0.5};
  const double ys[4] = {0.5, -1.0, 2.0, nan};
  const P4 x = P4::load(xs);
  const P4 y = P4::load(ys);
  const P4 mx = max(x, y), mn = min(x, y);
  EXPECT_EQ(mx[0], 1.0);
  EXPECT_EQ(mx[1], -1.0);
  EXPECT_EQ(mx[2], 2.0);  // NaN in first operand -> second
  EXPECT_TRUE(std::isnan(mx[3]));
  EXPECT_EQ(mn[0], 0.5);
  EXPECT_EQ(mn[1], -2.0);
  EXPECT_EQ(mn[2], 2.0);
  EXPECT_TRUE(std::isnan(mn[3]));
  // Scalar specialization agrees lane for lane.
  for (int i = 0; i < 4; ++i) {
    const P1 sx = P1::broadcast(x[i]), sy = P1::broadcast(y[i]);
    const double m4 = mx[i], s1 = max(sx, sy)[0];
    EXPECT_TRUE(m4 == s1 || (std::isnan(m4) && std::isnan(s1)));
  }
}

TEST(Simd, SelectGeZero) {
  const double cs[4] = {1.0, -1.0, 0.0, -0.0};
  const P4 c = P4::load(cs);
  const P4 a = P4::broadcast(10.0), b = P4::broadcast(20.0);
  const P4 r = select_ge_zero(c, a, b);
  EXPECT_EQ(r[0], 10.0);
  EXPECT_EQ(r[1], 20.0);
  EXPECT_EQ(r[2], 10.0);   // +0 >= 0
  EXPECT_EQ(r[3], 10.0);   // -0 >= 0, like the scalar branch
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(r[i], select_ge_zero(P1::broadcast(c[i]), P1::broadcast(10.0),
                                   P1::broadcast(20.0))[0]);
}

/// Bits of a double, so NaN payloads and signed zeros compare exactly.
std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

TEST(Simd, NegSqrtPowSelectLtAreBitwiseEqualToScalarOnEdgeValues) {
  // Every lane of every op against its scalar form, at widths 4 and 1, on
  // signed zeros, subnormals, infinities, NaN and ordinary values.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double sub = std::numeric_limits<double>::denorm_min();
  const std::vector<double> xs = {0.0,  -0.0, sub, -sub,  3 * sub, inf,
                                  -inf, nan,  -nan, 2.25, -1.5,    1e-300};
  for (std::size_t i = 0; i < xs.size(); ++i)
    for (std::size_t j = 0; j < xs.size(); ++j) {
      // Lanes: (x, y), (y, x), (x, x), (y, y).
      const double x = xs[i], y = xs[j];
      const double as[4] = {x, y, x, y}, bs[4] = {y, x, x, y};
      const P4 a = P4::load(as), b = P4::load(bs);
      const P4 sel = select_lt(a, b, P4::broadcast(1.0), P4::broadcast(2.0));
      const P4 neg = -a, rt = sqrt(a), pw = pow(a, -1.5);
      for (int l = 0; l < 4; ++l) {
        const P1 a1 = P1::broadcast(as[l]), b1 = P1::broadcast(bs[l]);
        EXPECT_EQ(bits(neg[l]), bits(-as[l])) << as[l];
        EXPECT_EQ(bits(rt[l]), bits(std::sqrt(as[l]))) << as[l];
        EXPECT_EQ(bits(pw[l]), bits(std::pow(as[l], -1.5))) << as[l];
        EXPECT_EQ(sel[l], as[l] < bs[l] ? 1.0 : 2.0) << as[l] << " " << bs[l];
        EXPECT_EQ(bits((-a1)[0]), bits(-as[l]));
        EXPECT_EQ(bits(sqrt(a1)[0]), bits(std::sqrt(as[l])));
        EXPECT_EQ(bits(pow(a1, -1.5)[0]), bits(std::pow(as[l], -1.5)));
        EXPECT_EQ(select_lt(a1, b1, P1::broadcast(1.0), P1::broadcast(2.0))[0],
                  select_lt(as[l], bs[l], 1.0, 2.0));
        EXPECT_EQ(select_lt(as[l], bs[l], 1.0, 2.0),
                  as[l] < bs[l] ? 1.0 : 2.0);
      }
    }
  EXPECT_EQ(splat<double>(2.5), 2.5);
  for (int l = 0; l < 4; ++l) EXPECT_EQ(splat<P4>(2.5)[l], 2.5);
}

TEST(Simd, WidthSelection) {
#if DGR_SIMD_HAS_AVX2
  EXPECT_EQ(kSimdNativeWidth, 4);
  EXPECT_STREQ(simd_backend_name(4), "avx2");
#else
  EXPECT_EQ(kSimdNativeWidth, 1);
#endif
  EXPECT_STREQ(simd_backend_name(1), "scalar");
  const int w = simd_active_width();
  EXPECT_TRUE(w == 1 || w == 4);
}

/// Property test: every fused pack stencil evaluator is bitwise-equal, lane
/// for lane, to (a) its own scalar instantiation and (b) the whole-patch
/// sweep operator it fuses — on random data, at every interior point.
TEST(Simd, FusedStencilsBitwiseEqualScalarSweeps) {
  using namespace dgr::fd;
  Rng rng(7);
  std::vector<Real> u(kPatchPts), beta(kPatchPts);
  for (auto& v : u) v = rng.uniform(-1, 1);
  for (auto& v : beta) v = rng.uniform(-1, 1);
  const Real h = 0.1;
  const Real inv_h = 1.0 / h, inv_h2 = 1.0 / (h * h);
  std::vector<Real> sweep(kPatchPts), asweep(kPatchPts), ko(kPatchPts);
  fd::ko_dissipation(u.data(), ko.data(), 1.0, h);

  for (int axis = 0; axis < 3; ++axis) {
    fd::d1_upwind(u.data(), beta.data(), asweep.data(), axis, h);
    for (int deriv = 0; deriv < 2; ++deriv) {
      if (deriv == 0)
        fd::d1(u.data(), sweep.data(), axis, h);
      else
        fd::d2(u.data(), sweep.data(), axis, h);
      for (int kk = kPad; kk < kPad + kR; ++kk)
        for (int jj = kPad; jj < kPad + kR; ++jj)
          for (int ii = kPad; ii < kPad + kR; ii += 4) {
            const int p = patch_idx(ii, jj, kk);
            const int lanes = std::min(4, kPad + kR - ii);
            const auto pack =
                deriv == 0 ? d1_point<P4>(u.data(), p, axis, inv_h)
                           : d2_point<P4>(u.data(), p, axis, inv_h2);
            const P4 bp = P4::load(beta.data() + p);
            const auto apack =
                upwind_point<P4>(u.data(), bp, p, axis, inv_h);
            const auto kpack = ko_point<P4>(u.data(), p, inv_h);
            for (int l = 0; l < lanes; ++l) {
              ASSERT_EQ(pack[l], sweep[p + l]) << axis << " d" << deriv + 1;
              const auto s1 =
                  deriv == 0
                      ? d1_point<P1>(u.data(), p + l, axis, inv_h)
                      : d2_point<P1>(u.data(), p + l, axis, inv_h2);
              ASSERT_EQ(pack[l], s1[0]);
              ASSERT_EQ(apack[l], asweep[p + l]) << "upwind axis " << axis;
              const P1 b1 = P1::load(beta.data() + p + l);
              ASSERT_EQ(apack[l],
                        upwind_point<P1>(u.data(), b1, p + l, axis, inv_h)[0]);
              if (deriv == 0 && axis == 0) {
                ASSERT_EQ(kpack[l], ko[p + l]) << "ko";
                ASSERT_EQ(kpack[l], ko_point<P1>(u.data(), p + l, inv_h)[0]);
              }
            }
          }
    }
  }
}

}  // namespace
}  // namespace dgr
