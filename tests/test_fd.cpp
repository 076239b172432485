/// \file test_fd.cpp
/// \brief Stencil tests: Fornberg weight generation, polynomial exactness,
/// measured convergence orders, and Kreiss–Oliger dissipation properties.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "fd/stencils.hpp"

namespace dgr::fd {
namespace {

TEST(Fornberg, ReproducesClassicCentered2ndOrder) {
  auto w = fornberg_weights(0.0, {-1, 0, 1}, 1);
  EXPECT_NEAR(w[0], -0.5, 1e-14);
  EXPECT_NEAR(w[1], 0.0, 1e-14);
  EXPECT_NEAR(w[2], 0.5, 1e-14);
  auto w2 = fornberg_weights(0.0, {-1, 0, 1}, 2);
  EXPECT_NEAR(w2[0], 1.0, 1e-14);
  EXPECT_NEAR(w2[1], -2.0, 1e-14);
  EXPECT_NEAR(w2[2], 1.0, 1e-14);
}

TEST(Fornberg, Centered6thOrderFirstDerivative) {
  auto w = fornberg_weights(0.0, {-3, -2, -1, 0, 1, 2, 3}, 1);
  const Real expect[7] = {-1.0 / 60, 3.0 / 20, -3.0 / 4, 0.0,
                          3.0 / 4,   -3.0 / 20, 1.0 / 60};
  for (int i = 0; i < 7; ++i) EXPECT_NEAR(w[i], expect[i], 1e-13);
}

TEST(Fornberg, Centered6thOrderSecondDerivative) {
  auto w = fornberg_weights(0.0, {-3, -2, -1, 0, 1, 2, 3}, 2);
  const Real expect[7] = {1.0 / 90,  -3.0 / 20, 3.0 / 2, -49.0 / 18,
                          3.0 / 2,   -3.0 / 20, 1.0 / 90};
  for (int i = 0; i < 7; ++i) EXPECT_NEAR(w[i], expect[i], 1e-12);
}

TEST(Fornberg, WeightsExactOnPolynomials) {
  // Degree-6 exactness of the 7-node first-derivative weights at x0 = 0.4.
  const Real nodes[7] = {-3, -2, -1, 0, 1, 2, 3};
  auto w = fornberg_weights(0.4, nodes, 1);
  for (int deg = 0; deg <= 6; ++deg) {
    Real s = 0;
    for (int i = 0; i < 7; ++i)
      s += w[i] * std::pow(nodes[i], deg);
    const Real exact = deg == 0 ? 0.0 : deg * std::pow(0.4, deg - 1);
    EXPECT_NEAR(s, exact, 1e-10) << "degree " << deg;
  }
}

TEST(Fornberg, ConstantTablesEqualRuntimeWeightsBitwise) {
  // kStencilWeights is evaluated at compile time; every table must hold the
  // bits a runtime call gives, Fornberg roundoff included. The volatile
  // evaluation point keeps these calls out of constant folding.
  volatile Real x0 = 0.0;
  const Real c7[7] = {-3, -2, -1, 0, 1, 2, 3};
  const auto w1 = fornberg_weights(x0, c7, 1);
  const auto w2 = fornberg_weights(x0, c7, 2);
  const auto up = fornberg_weights(x0, {-1, 0, 1, 2, 3}, 1);
  Real up_neg[5], ko[7];
  for (int i = 0; i < 5; ++i) up_neg[i] = -up[4 - i];
  const Real b[7] = {1, -6, 15, -20, 15, -6, 1};
  for (int i = 0; i < 7; ++i) ko[i] = b[i] / 64.0;
  const StencilWeights& W = kStencilWeights;
  EXPECT_EQ(std::memcmp(W.w1, w1.data(), sizeof(W.w1)), 0);
  EXPECT_EQ(std::memcmp(W.w2, w2.data(), sizeof(W.w2)), 0);
  EXPECT_EQ(std::memcmp(W.up_pos, up.data(), sizeof(W.up_pos)), 0);
  EXPECT_EQ(std::memcmp(W.up_neg, up_neg, sizeof(W.up_neg)), 0);
  EXPECT_EQ(std::memcmp(W.ko, ko, sizeof(W.ko)), 0);
  // The roundoff the tables must keep: w1's centre weight is not 0.
  EXPECT_EQ(W.w1[3], -0x1.5555555555555p-54);
}

/// Fill a patch with f evaluated on a unit-spacing lattice scaled by h.
void fill_patch(Real* u, Real h,
                const std::function<Real(Real, Real, Real)>& f) {
  for (int k = 0; k < kPatch; ++k)
    for (int j = 0; j < kPatch; ++j)
      for (int i = 0; i < kPatch; ++i)
        u[patch_idx(i, j, k)] = f(i * h, j * h, k * h);
}

/// Max abs error of `out` against `exact` over the interior 7^3 region.
Real interior_max_err(const Real* out, Real h,
                      const std::function<Real(Real, Real, Real)>& exact) {
  Real e = 0;
  for (int k = kPad; k < kPad + kR; ++k)
    for (int j = kPad; j < kPad + kR; ++j)
      for (int i = kPad; i < kPad + kR; ++i)
        e = std::max(e, std::abs(out[patch_idx(i, j, k)] -
                                 exact(i * h, j * h, k * h)));
  return e;
}

TEST(Stencils, D1ExactOnDegree6Polynomial) {
  const Real h = 0.37;
  Real u[kPatchPts], out[kPatchPts];
  fill_patch(u, h, [](Real x, Real y, Real z) {
    return std::pow(x, 6) + x * x * y + z;
  });
  d1(u, out, 0, h);
  const Real err = interior_max_err(
      out, h, [](Real x, Real y, Real) { return 6 * std::pow(x, 5) + 2 * x * y; });
  EXPECT_LT(err, 1e-8);
}

TEST(Stencils, D2ExactOnDegree6Polynomial) {
  const Real h = 0.21;
  Real u[kPatchPts], out[kPatchPts];
  fill_patch(u, h, [](Real x, Real, Real) { return std::pow(x, 6); });
  d2(u, out, 0, h);
  const Real err = interior_max_err(
      out, h, [](Real x, Real, Real) { return 30 * std::pow(x, 4); });
  EXPECT_LT(err, 1e-7);
}

TEST(Stencils, MixedDerivativeExactOnPolynomial) {
  const Real h = 0.15;
  Real u[kPatchPts], scratch[kPatchPts], out[kPatchPts];
  fill_patch(u, h, [](Real x, Real y, Real z) {
    return x * x * x * y * y + x * z;
  });
  d2_mixed(u, scratch, out, 0, 1, h);
  const Real err = interior_max_err(
      out, h, [](Real x, Real y, Real) { return 6 * x * x * y; });
  EXPECT_LT(err, 1e-9);
}

/// Measured convergence order of an operator applied to sin waves.
Real convergence_order(int axis, int deriv_order) {
  // Comparable phase speed on every axis so the truncation error stays well
  // above roundoff for each measured direction.
  auto f = [](Real x, Real y, Real z) { return std::sin(x + 0.9 * y + 0.8 * z); };
  const Real coef[3] = {1.0, 0.9, 0.8};
  Real errs[2];
  int n = 0;
  for (Real h : {0.1, 0.05}) {
    Real u[kPatchPts], out[kPatchPts];
    fill_patch(u, h, f);
    if (deriv_order == 1)
      d1(u, out, axis, h);
    else
      d2(u, out, axis, h);
    errs[n++] = interior_max_err(out, h, [&](Real x, Real y, Real z) {
      const Real phase = x + 0.9 * y + 0.8 * z;
      return deriv_order == 1 ? coef[axis] * std::cos(phase)
                              : -coef[axis] * coef[axis] * std::sin(phase);
    });
  }
  return std::log2(errs[0] / errs[1]);
}

class StencilOrder : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(StencilOrder, SixthOrderConvergence) {
  const auto [axis, m] = GetParam();
  const Real order = convergence_order(axis, m);
  EXPECT_GT(order, 5.5) << "axis " << axis << " deriv " << m;
  EXPECT_LT(order, 7.0) << "axis " << axis << " deriv " << m;
}

INSTANTIATE_TEST_SUITE_P(AllAxes, StencilOrder,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(1, 2)));

TEST(Stencils, UpwindMatchesCenteredOnSmoothData) {
  const Real h = 0.02;
  Real u[kPatchPts], beta[kPatchPts], out_p[kPatchPts], out_n[kPatchPts];
  fill_patch(u, h, [](Real x, Real y, Real) { return std::sin(3 * x) + y; });
  for (auto& b : beta) b = 1.0;
  d1_upwind(u, beta, out_p, 0, h);
  for (auto& b : beta) b = -1.0;
  d1_upwind(u, beta, out_n, 0, h);
  const auto exact = [](Real x, Real, Real) { return 3 * std::cos(3 * x); };
  EXPECT_LT(interior_max_err(out_p, h, exact), 1e-5);
  EXPECT_LT(interior_max_err(out_n, h, exact), 1e-5);
}

TEST(Stencils, UpwindFourthOrderConvergence) {
  Real errs[2];
  int n = 0;
  for (Real h : {0.1, 0.05}) {
    Real u[kPatchPts], beta[kPatchPts], out[kPatchPts];
    fill_patch(u, h, [](Real x, Real, Real) { return std::sin(x); });
    for (auto& b : beta) b = 1.0;
    d1_upwind(u, beta, out, 0, h);
    errs[n++] = interior_max_err(
        out, h, [](Real x, Real, Real) { return std::cos(x); });
  }
  const Real order = std::log2(errs[0] / errs[1]);
  EXPECT_GT(order, 3.5);
  EXPECT_LT(order, 5.5);
}

TEST(Stencils, UpwindBiasDirectionSwitches) {
  // On non-smooth data the two biases give different answers.
  const Real h = 1.0;
  Real u[kPatchPts], beta[kPatchPts], a[kPatchPts], b[kPatchPts];
  fill_patch(u, h, [](Real x, Real, Real) { return x > 6 ? 1.0 : 0.0; });
  for (auto& v : beta) v = 1.0;
  d1_upwind(u, beta, a, 0, h);
  for (auto& v : beta) v = -1.0;
  d1_upwind(u, beta, b, 0, h);
  Real diff = 0;
  for (int i = 0; i < kPatchPts; ++i) diff = std::max(diff, std::abs(a[i] - b[i]));
  EXPECT_GT(diff, 0.01);
}

TEST(KreissOliger, AnnihilatesQuinticPolynomials) {
  const Real h = 0.3;
  Real u[kPatchPts], out[kPatchPts];
  fill_patch(u, h, [](Real x, Real y, Real z) {
    return std::pow(x, 5) - 2 * std::pow(y, 4) + z * z * x + 1.0;
  });
  ko_dissipation(u, out, 0.4, h);
  for (int k = kPad; k < kPad + kR; ++k)
    for (int j = kPad; j < kPad + kR; ++j)
      for (int i = kPad; i < kPad + kR; ++i)
        EXPECT_NEAR(out[patch_idx(i, j, k)], 0.0, 1e-8);
}

TEST(KreissOliger, DampsHighestFrequencyMode) {
  // u = (-1)^i along x: the KO term must be strictly negative where u = +1
  // (dissipative sign convention).
  const Real h = 0.5;
  Real u[kPatchPts], out[kPatchPts];
  for (int k = 0; k < kPatch; ++k)
    for (int j = 0; j < kPatch; ++j)
      for (int i = 0; i < kPatch; ++i)
        u[patch_idx(i, j, k)] = (i % 2 == 0) ? 1.0 : -1.0;
  ko_dissipation(u, out, 0.1, h);
  for (int k = kPad; k < kPad + kR; ++k)
    for (int j = kPad; j < kPad + kR; ++j)
      for (int i = kPad; i < kPad + kR; ++i) {
        const Real ui = u[patch_idx(i, j, k)];
        const Real d = out[patch_idx(i, j, k)];
        EXPECT_LT(ui * d, 0.0) << "KO must oppose the mode";
      }
}

TEST(KreissOliger, ScalesLinearlyWithSigma) {
  const Real h = 0.2;
  Real u[kPatchPts], o1[kPatchPts], o2[kPatchPts];
  fill_patch(u, h, [](Real x, Real y, Real z) {
    return std::sin(9 * x) * std::cos(7 * y) + z;
  });
  ko_dissipation(u, o1, 0.1, h);
  ko_dissipation(u, o2, 0.2, h);
  for (int k = kPad; k < kPad + kR; ++k)
    for (int j = kPad; j < kPad + kR; ++j)
      for (int i = kPad; i < kPad + kR; ++i)
        EXPECT_NEAR(o2[patch_idx(i, j, k)], 2 * o1[patch_idx(i, j, k)], 1e-10);
}

}  // namespace
}  // namespace dgr::fd
