/// \file test_bssn.cpp
/// \brief Physics validation of the BSSN right-hand side, initial data and
/// constraints: flat-space identities, analytic gauge-dynamics checks,
/// constraint satisfaction and convergence for puncture data.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bssn/algebra.hpp"
#include "bssn/constraints.hpp"
#include "bssn/initial_data.hpp"
#include "bssn/rhs.hpp"
#include "bssn/state.hpp"
#include "common/page_array.hpp"
#include "common/rng.hpp"
#include "solver/bssn_ctx.hpp"

namespace dgr::bssn {
namespace {

using mesh::Mesh;
using oct::Domain;
using oct::Octree;
using solver::BssnCtx;
using solver::SolverConfig;

std::shared_ptr<Mesh> uniform_mesh(int level, Real half) {
  return std::make_shared<Mesh>(Octree::uniform(level), Domain{half});
}

SolverConfig quiet_config(bool sommerfeld = true, Real ko = 0.0) {
  SolverConfig cfg;
  cfg.bssn.sommerfeld = sommerfeld;
  cfg.bssn.ko_sigma = ko;
  return cfg;
}

TEST(BssnRhs, FlatSpaceRhsIsZero) {
  auto m = uniform_mesh(1, 4.0);
  BssnCtx ctx(m, quiet_config(/*sommerfeld=*/true, /*ko=*/0.1));
  set_minkowski(*m, ctx.state());
  BssnState rhs(m->num_dofs());
  ctx.compute_rhs(ctx.state(), rhs);
  EXPECT_LT(rhs.max_abs(), 1e-11);
}

TEST(BssnRhs, ConstantTraceKGaugeDynamics) {
  // Flat metric with uniform K = K0: the exact RHS is
  //   d_t alpha = -2 alpha K,   d_t K = alpha K^2 / 3,
  //   d_t chi = (2/3) chi alpha K, everything else zero.
  auto m = uniform_mesh(1, 4.0);
  BssnCtx ctx(m, quiet_config(/*sommerfeld=*/false));
  set_minkowski(*m, ctx.state());
  const Real K0 = 0.37;
  for (std::size_t d = 0; d < m->num_dofs(); ++d)
    ctx.state().field(kK)[d] = K0;
  BssnState rhs(m->num_dofs());
  ctx.compute_rhs(ctx.state(), rhs);
  for (std::size_t d = 0; d < m->num_dofs(); ++d) {
    EXPECT_NEAR(rhs.field(kAlpha)[d], -2.0 * K0, 1e-11);
    EXPECT_NEAR(rhs.field(kK)[d], K0 * K0 / 3.0, 1e-11);
    EXPECT_NEAR(rhs.field(kChi)[d], (2.0 / 3.0) * K0, 1e-11);
    for (int s = 0; s < 6; ++s) {
      EXPECT_NEAR(rhs.field(kGtxx + s)[d], 0.0, 1e-11);
      EXPECT_NEAR(rhs.field(kAtxx + s)[d], 0.0, 1e-11);
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_NEAR(rhs.field(kGt0 + i)[d], 0.0, 1e-11);
      EXPECT_NEAR(rhs.field(kBeta0 + i)[d], 0.0, 1e-11);
      EXPECT_NEAR(rhs.field(kB0 + i)[d], 0.0, 1e-11);
    }
  }
}

TEST(BssnRhs, BilinearLapsePerturbation) {
  // alpha = 1 + c x y on flat space (K = 0, beta = 0):
  //   d_t K  = -D^i D_i alpha = -(dxx + dyy + dzz) alpha = 0,
  //   d_t At_xy = chi (-(DiDj alpha))^TF_xy = -c (the Hessian is traceless),
  //   d_t alpha = 0.
  auto m = uniform_mesh(1, 2.0);
  BssnCtx ctx(m, quiet_config(/*sommerfeld=*/false));
  set_minkowski(*m, ctx.state());
  const Real c = 0.01;
  for (std::size_t d = 0; d < m->num_dofs(); ++d) {
    const auto x = m->dof_position(static_cast<DofIndex>(d));
    ctx.state().field(kAlpha)[d] = 1.0 + c * x[0] * x[1];
  }
  BssnState rhs(m->num_dofs());
  ctx.compute_rhs(ctx.state(), rhs);
  for (std::size_t d = 0; d < m->num_dofs(); ++d) {
    EXPECT_NEAR(rhs.field(kAlpha)[d], 0.0, 1e-10);
    EXPECT_NEAR(rhs.field(kK)[d], 0.0, 1e-9);
    EXPECT_NEAR(rhs.field(kAtxy)[d], -c, 1e-9);
    EXPECT_NEAR(rhs.field(kAtxx)[d], 0.0, 1e-9);
    EXPECT_NEAR(rhs.field(kAtzz)[d], 0.0, 1e-9);
  }
}

TEST(BssnRhs, ConstantShiftAdvectsLinearLapse) {
  // beta^x = b0 constant, alpha = 1 + c x: d_t alpha = beta^x dx alpha = b0 c
  // (upwind derivative is exact on linear data); the Gamma-driver gives
  // d_t beta = 0 (B = 0) and d_t Gt^i = 0 (all second derivatives vanish).
  auto m = uniform_mesh(1, 2.0);
  BssnCtx ctx(m, quiet_config(/*sommerfeld=*/false));
  set_minkowski(*m, ctx.state());
  const Real b0 = 0.3, c = 0.02;
  for (std::size_t d = 0; d < m->num_dofs(); ++d) {
    const auto x = m->dof_position(static_cast<DofIndex>(d));
    ctx.state().field(kBeta0)[d] = b0;
    ctx.state().field(kAlpha)[d] = 1.0 + c * x[0];
  }
  BssnState rhs(m->num_dofs());
  ctx.compute_rhs(ctx.state(), rhs);
  for (std::size_t d = 0; d < m->num_dofs(); ++d) {
    EXPECT_NEAR(rhs.field(kAlpha)[d], b0 * c, 1e-10);
    for (int i = 0; i < 3; ++i) {
      EXPECT_NEAR(rhs.field(kGt0 + i)[d], 0.0, 1e-10);
      EXPECT_NEAR(rhs.field(kBeta0 + i)[d], 0.0, 1e-10);
    }
    // chi advected: d_t chi = beta dx chi + 2/3 chi (0 - div beta) = 0.
    EXPECT_NEAR(rhs.field(kChi)[d], 0.0, 1e-10);
  }
}

TEST(BssnRhs, PackedKernelIsBitwiseEqualToStagedKernel) {
  // The pack kernel at width 4 (a 4-wide pack and a 3-lane partial pack per
  // row) and at width 1 against the staged scalar kernel on every point of
  // the output patches, on random data whose shift has both signs (both
  // upwind sides) and whose chi straddles the floor. Cases add an octant on
  // the outer boundary (Sommerfeld on three faces) and non-default
  // ko_sigma / eta. OpCounts must match too: the simgpu kernel records
  // price them. The pack kernel reads only the inner sweeps of a new
  // workspace and never allocates its staged arrays.
  const auto m = uniform_mesh(1, 2.0);
  struct Case {
    const char* name;
    bool boundary;
    Real ko_sigma, eta;
  };
  for (int width : {1, 4}) {
    for (const Case& cs : {Case{"interior", false, 0.1, 2.0},
                           Case{"boundary", true, 0.1, 2.0},
                           Case{"ko+eta", true, 0.37, 0.8}}) {
      SCOPED_TRACE(std::string(cs.name) + " width " + std::to_string(width));
      std::vector<Real> in(std::size_t(kNumVars) * mesh::kPatchPts);
      Rng rng(41);
      for (int v = 0; v < kNumVars; ++v)
        for (int p = 0; p < mesh::kPatchPts; ++p)
          in[v * mesh::kPatchPts + p] =
              var_asymptotic(v) +
              (v >= kBeta0 && v < kBeta0 + 3 ? 0.3 : 0.01) * rng.uniform(-1, 1);
      const std::size_t nout = std::size_t(kNumVars) * mesh::kOctPts;
      std::vector<Real> out_s(nout, 12345.0), out_p(nout, 12345.0);
      const Real* pi[kNumVars];
      Real* ps[kNumVars];
      Real* pp[kNumVars];
      for (int v = 0; v < kNumVars; ++v) {
        pi[v] = &in[v * mesh::kPatchPts];
        ps[v] = &out_s[v * mesh::kOctPts];
        pp[v] = &out_p[v * mesh::kOctPts];
      }
      BssnParams prm;
      prm.chi_floor = 1.0;  // chi = 1 +- 0.01: about half the points floored
      prm.ko_sigma = cs.ko_sigma;
      prm.eta = cs.eta;
      const mesh::PatchGeom geom = cs.boundary
                                       ? m->patch_geom(0)
                                       : mesh::PatchGeom{{0.3, -0.2, 0.1}, 0.1};
      const Real half = cs.boundary ? m->domain().half_extent : 1e9;

      int floored = 0, beta_neg = 0, beta_pos = 0, on_boundary = 0;
      for (int kk = mesh::kPad; kk < mesh::kPad + mesh::kR; ++kk)
        for (int jj = mesh::kPad; jj < mesh::kPad + mesh::kR; ++jj)
          for (int ii = mesh::kPad; ii < mesh::kPad + mesh::kR; ++ii) {
            const int p = mesh::patch_idx(ii, jj, kk);
            floored += pi[kChi][p] < prm.chi_floor;
            (pi[kBeta0][p] < 0 ? beta_neg : beta_pos) += 1;
            on_boundary += std::abs(std::abs(geom.origin[0] + ii * geom.h) -
                                    half) < 1e-9 * half;
          }
      EXPECT_GT(floored, 0);
      EXPECT_GT(beta_neg, 0);
      EXPECT_GT(beta_pos, 0);
      EXPECT_EQ(on_boundary > 0, cs.boundary);

      DerivWorkspace ws_s, ws_p;
      OpCounts c_s, c_p;
      bssn_rhs_patch(pi, ps, geom, half, prm, ws_s, &c_s);
      const auto packed =
          width == 4 ? bssn_rhs_patch_packed<4> : bssn_rhs_patch_packed<1>;
      packed(pi, pp, geom, half, prm, ws_p, &c_p, mesh::kAllRows);
      for (const auto* staged :
           {&ws_p.grad, &ws_p.agrad, &ws_p.hess, &ws_p.ko, &ws_p.scratch})
        EXPECT_TRUE(staged->empty());
      EXPECT_FALSE(ws_s.grad.empty());
      // Whole 7^3 output blocks: the pack kernel writes every point, with
      // the same bits.
      ASSERT_EQ(std::memcmp(out_p.data(), out_s.data(),
                            out_s.size() * sizeof(Real)),
                0);
      EXPECT_EQ(c_p.flops, c_s.flops);
      EXPECT_EQ(c_p.bytes_read, c_s.bytes_read);
      EXPECT_EQ(c_p.bytes_written, c_s.bytes_written);
      EXPECT_EQ(c_p.shared_bytes, c_s.shared_bytes);
    }
  }
}

TEST(BssnRhs, AtRhsTraceFreeOnPunctureData) {
  // For Brill–Lindquist data (At = 0), d_t At = chi(-DDalpha + alpha R)^TF
  // must be trace-free w.r.t. the conformal metric (here delta_ij).
  Domain dom{8.0};
  auto m = std::make_shared<Mesh>(Octree::uniform(2), dom);
  BssnCtx ctx(m, quiet_config(/*sommerfeld=*/false));
  set_punctures(*m, {{1.0, {0.13, 0.07, 0.045}, {0, 0, 0}, {0, 0, 0}}},
                ctx.state());
  BssnState rhs(m->num_dofs());
  ctx.compute_rhs(ctx.state(), rhs);
  for (std::size_t d = 0; d < m->num_dofs(); ++d) {
    const Real tr = rhs.field(kAtxx)[d] + rhs.field(kAtyy)[d] +
                    rhs.field(kAtzz)[d];
    const Real mag = std::abs(rhs.field(kAtxx)[d]) +
                     std::abs(rhs.field(kAtyy)[d]) +
                     std::abs(rhs.field(kAtzz)[d]) + 1.0;
    EXPECT_LT(std::abs(tr) / mag, 1e-10) << "dof " << d;
  }
}

TEST(BssnConstraints, FlatSpaceConstraintsVanish) {
  auto m = uniform_mesh(1, 4.0);
  BssnState s;
  set_minkowski(*m, s);
  const auto norms = compute_constraint_norms(*m, s, BssnParams{});
  EXPECT_LT(norms.ham_linf, 1e-12);
  EXPECT_LT(norms.mom_linf, 1e-12);
}

TEST(BssnConstraints, BrillLindquistHamiltonianConverges) {
  // Exact solution of the constraints: the discrete violation is pure
  // truncation error and must fall steeply with resolution away from the
  // puncture. Measured on uniform levels 2, 3, 4 (r < 3 excised), ham_l2
  // falls 17.1x and then 13.2x per halving: about 4th order, not the
  // stencils' 6th.
  Domain dom{8.0};
  const PunctureData bh{1.0, {0.11, 0.06, 0.042}, {0, 0, 0}, {0, 0, 0}};
  Real l2[2];
  int idx = 0;
  for (int level : {2, 3}) {
    auto m = std::make_shared<Mesh>(Octree::uniform(level), dom);
    BssnState s;
    set_punctures(*m, {bh}, s);
    const auto norms =
        compute_constraint_norms(*m, s, BssnParams{}, {bh.pos}, 3.0);
    l2[idx++] = norms.ham_l2;
  }
  EXPECT_LT(l2[1], l2[0]);
  EXPECT_GT(l2[0] / l2[1], 16.0) << "expected a 4th-order drop, got "
                                 << l2[0] / l2[1];
}

TEST(BssnConstraints, BowenYorkMomentumSmallAndConverging) {
  // The Bowen–York At satisfies the momentum constraint analytically, so
  // the discrete M^i must converge to zero.
  Domain dom{8.0};
  const PunctureData bh{0.5, {0.11, 0.06, 0.042}, {0.2, 0.1, 0.0}, {0, 0, 0.1}};
  Real l2[2];
  int idx = 0;
  for (int level : {2, 3}) {
    auto m = std::make_shared<Mesh>(Octree::uniform(level), dom);
    BssnState s;
    set_punctures(*m, {bh}, s);
    const auto norms =
        compute_constraint_norms(*m, s, BssnParams{}, {bh.pos}, 3.0);
    l2[idx++] = norms.mom_l2;
  }
  EXPECT_LT(l2[1], l2[0]);
  EXPECT_GT(l2[0] / l2[1], 8.0);
}

TEST(BssnConstraints, NormsAreBitwiseEqualToFullDerivativeStageReference) {
  // Two-level mesh, Bowen-York data evolved two RK4 steps so that every
  // metric derivative the constraints read is non-trivial.
  Domain dom{8.0};
  const PunctureData bh{0.5, {0.11, 0.06, 0.042}, {0.2, 0.1, 0.0}, {0, 0, 0.1}};
  auto m = std::make_shared<Mesh>(
      oct::build_puncture_octree(dom, {{bh.pos, 3}}, 2, 0.75), dom);
  BssnCtx ctx(m, quiet_config(true, 0.1));
  set_punctures(*m, {bh}, ctx.state());
  ctx.rk4_step();
  ctx.rk4_step();
  const BssnState& s = ctx.state();

  // Reference: per octant a 24-variable unzip, the staged derivative
  // stage, bssn_gather_point, the constraint point body at Real, and the
  // serial octant-order accumulation. Per point, the production patch body
  // at widths 1 and 4 must give the same bits.
  const auto in = s.cptrs();
  std::vector<Real> patches(kNumVars * mesh::kPatchPts);
  const Real* pin[kNumVars];
  for (int v = 0; v < kNumVars; ++v) pin[v] = &patches[v * mesh::kPatchPts];
  std::vector<Real> ham_w(mesh::kPatchPts), mom_w(3 * mesh::kPatchPts);
  DerivWorkspace ws;
  MixedInnerSweeps inner;
  AlgebraInputs<Real> q;
  const BssnParams prm;
  Real ham_sq = 0, mom_sq = 0, ham_linf = 0, mom_linf = 0;
  std::size_t npts = 0;
  for (OctIndex e = 0; e < static_cast<OctIndex>(m->num_octants()); ++e) {
    m->unzip(in.data(), kNumVars, e, e + 1, patches.data());
    const Real h = m->patch_geom(e).h;
    bssn_deriv_stage(pin, h, ws);
    for (int width : {1, 4}) {
      const auto patch =
          width == 4 ? bssn_constraints_patch<4> : bssn_constraints_patch<1>;
      patch(pin, h, prm.chi_floor, inner, ham_w.data(), mom_w.data());
      for (int kk = mesh::kPad; kk < mesh::kPad + mesh::kR; ++kk)
        for (int jj = mesh::kPad; jj < mesh::kPad + mesh::kR; ++jj)
          for (int ii = mesh::kPad; ii < mesh::kPad + mesh::kR; ++ii) {
            const int p = mesh::patch_idx(ii, jj, kk);
            bssn_gather_point(pin, ws, p, prm, q);
            Real ham, mom[3];
            bssn_constraints_point(q, ham, mom);
            ASSERT_EQ(std::memcmp(&ham, &ham_w[p], sizeof(Real)), 0)
                << "octant " << e << " width " << width;
            for (int i = 0; i < 3; ++i)
              ASSERT_EQ(std::memcmp(&mom[i], &mom_w[i * mesh::kPatchPts + p],
                                    sizeof(Real)),
                        0)
                  << "octant " << e << " width " << width;
            if (width == 4) continue;
            const Real m2 =
                0 + mom[0] * mom[0] + mom[1] * mom[1] + mom[2] * mom[2];
            ham_sq += ham * ham;
            mom_sq += m2;
            ham_linf = std::max(ham_linf, std::abs(ham));
            mom_linf = std::max(mom_linf, std::sqrt(m2));
            ++npts;
          }
    }
  }
  ASSERT_GT(ham_sq, 0.0);
  ASSERT_GT(mom_sq, 0.0);

  // Production norms: a 17-variable unzip and the patch body at the active
  // dispatch width.
  const auto norms = compute_constraint_norms(*m, s, prm);
  EXPECT_EQ(norms.ham_l2, std::sqrt(ham_sq / npts));
  EXPECT_EQ(norms.mom_l2, std::sqrt(mom_sq / npts));
  EXPECT_EQ(norms.ham_linf, ham_linf);
  EXPECT_EQ(norms.mom_linf, mom_linf);
}

// ------------------------------------------------- page-mapped storage --

/// Whether every element of [p, p + n) is +0.0, bit for bit.
bool all_zero_bits(const Real* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const Real zero = 0.0;
    if (std::memcmp(&p[i], &zero, sizeof(Real)) != 0) return false;
  }
  return true;
}

/// Random values with a signed zero and a NaN, so a copy that went through
/// arithmetic instead of the bits would show.
void fill_awkward(Real* p, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) p[i] = rng.uniform(-1, 1);
  p[0] = -0.0;
  p[n - 1] = std::nan("");
}

TEST(PageArray, ResizeHandsOutZeroPages) {
  PageArray<Real> a(1000);
  EXPECT_TRUE(all_zero_bits(a.data(), a.size()));
  fill_awkward(a.data(), a.size(), 3);
  a.resize(1000);
  EXPECT_TRUE(all_zero_bits(a.data(), a.size()));
  fill_awkward(a.data(), a.size(), 4);
  a.resize(5000);
  ASSERT_EQ(a.size(), 5000u);
  EXPECT_TRUE(all_zero_bits(a.data(), a.size()));
}

TEST(PageArray, CopiesAreDeepAndBitwise) {
  PageArray<Real> a(777);
  fill_awkward(a.data(), a.size(), 5);
  const PageArray<Real> b(a);
  ASSERT_EQ(b.size(), a.size());
  EXPECT_NE(b.data(), a.data());
  EXPECT_EQ(std::memcmp(b.data(), a.data(), a.size() * sizeof(Real)), 0);
  PageArray<Real> c(10), d(777);  // assignment across and at equal sizes
  c = a;
  d = a;
  a[1] = 42.0;
  for (const PageArray<Real>* x : {&b, &std::as_const(c), &std::as_const(d)}) {
    ASSERT_EQ(x->size(), 777u);
    EXPECT_NE((*x)[1], 42.0);
    EXPECT_EQ(std::memcmp(x->data() + 2, a.data() + 2, 775 * sizeof(Real)),
              0);
  }
}

TEST(PageArray, MoveLeavesAnEmptySource) {
  PageArray<Real> a(100);
  a[7] = 3.5;
  const Real* p = a.data();
  PageArray<Real> b(std::move(a));
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[7], 3.5);
  PageArray<Real> c(5);
  c = std::move(b);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_EQ(c.data(), p);
  EXPECT_EQ(c.size(), 100u);
}

TEST(PageArray, SelfAssignmentAndSizeZero) {
  PageArray<Real> a(64);
  fill_awkward(a.data(), a.size(), 6);
  const PageArray<Real> ref(a);
  PageArray<Real>& alias = a;
  a = alias;
  EXPECT_EQ(std::memcmp(a.data(), ref.data(), a.size() * sizeof(Real)), 0);
  a = std::move(alias);
  EXPECT_EQ(std::memcmp(a.data(), ref.data(), a.size() * sizeof(Real)), 0);
  PageArray<Real> z(0);
  EXPECT_TRUE(z.empty());
  EXPECT_EQ(z.data(), nullptr);
  const PageArray<Real> zc(z);
  EXPECT_TRUE(zc.empty());
  a = z;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.data(), nullptr);
  a.resize(0);
  EXPECT_TRUE(a.empty());
}

TEST(PageArray, LiveAndPeakBytesCountElementSizes) {
  const std::size_t before = page_map::live_bytes();
  {
    PageArray<Real> a(1000);
    const PageArray<Real> b(a);
    EXPECT_EQ(page_map::live_bytes(), before + 2 * 1000 * sizeof(Real));
    EXPECT_GE(page_map::peak_bytes(), page_map::live_bytes());
    a.resize(10);
    EXPECT_EQ(page_map::live_bytes(), before + 1010 * sizeof(Real));
  }
  EXPECT_EQ(page_map::live_bytes(), before);
}

TEST(BssnStateStorage, ResizeZeroes) {
  BssnState s(1000);
  EXPECT_TRUE(all_zero_bits(s.field(0), kNumVars * s.num_dofs()));
  fill_awkward(s.field(0), kNumVars * s.num_dofs(), 7);
  s.resize(1000);
  EXPECT_TRUE(all_zero_bits(s.field(0), kNumVars * s.num_dofs()));
  s.resize(321);
  ASSERT_EQ(s.num_dofs(), 321u);
  EXPECT_TRUE(all_zero_bits(s.field(0), kNumVars * s.num_dofs()));
}

TEST(BssnStateStorage, CopiesAreDeepAndBitwise) {
  BssnState a(500);
  for (int v = 0; v < kNumVars; ++v) fill_awkward(a.field(v), 500, 10 + v);
  const BssnState b(a);
  BssnState c(3), d(500);
  c = a;
  d = a;
  a.field(kK)[9] = 42.0;
  for (const BssnState* x : {&b, &std::as_const(c), &std::as_const(d)}) {
    ASSERT_EQ(x->num_dofs(), 500u);
    EXPECT_NE(x->field(0), a.field(0));
    EXPECT_NE(x->field(kK)[9], 42.0);
    for (int v = 0; v < kNumVars; ++v) {
      if (v == kK) continue;
      EXPECT_EQ(std::memcmp(x->field(v), a.field(v), 500 * sizeof(Real)), 0)
          << var_name(v);
    }
  }
}

TEST(BssnStateStorage, MoveLeavesAnEmptySource) {
  BssnState a(200);
  a.field(kAlpha)[3] = 0.5;
  const Real* p = a.field(kAlpha);
  BssnState b(std::move(a));
  EXPECT_EQ(a.num_dofs(), 0u);
  EXPECT_EQ(a.field(0), nullptr);
  EXPECT_EQ(b.field(kAlpha), p);
  EXPECT_EQ(b.field(kAlpha)[3], 0.5);
  BssnState c(7);
  c = std::move(b);
  EXPECT_EQ(b.num_dofs(), 0u);
  EXPECT_EQ(b.field(0), nullptr);
  EXPECT_EQ(c.num_dofs(), 200u);
  EXPECT_EQ(c.field(kAlpha), p);
}

TEST(BssnStateStorage, SelfAssignmentAndSizeZero) {
  BssnState a(50);
  for (int v = 0; v < kNumVars; ++v) fill_awkward(a.field(v), 50, 40 + v);
  const BssnState ref(a);
  BssnState& alias = a;
  a = alias;
  a = std::move(alias);
  ASSERT_EQ(a.num_dofs(), 50u);
  EXPECT_EQ(std::memcmp(a.field(0), ref.field(0),
                        kNumVars * 50 * sizeof(Real)),
            0);
  const BssnState z(0);
  EXPECT_EQ(z.num_dofs(), 0u);
  EXPECT_EQ(z.max_abs(), 0.0);
  a = z;
  EXPECT_EQ(a.num_dofs(), 0u);
  EXPECT_EQ(a.max_abs_diff(z), 0.0);
}

TEST(BssnStateStorage, FieldsAreContiguousAndDisjoint) {
  constexpr std::size_t nd = 333;
  BssnState s(nd);
  const auto p = s.ptrs();
  const auto cp = std::as_const(s).cptrs();
  for (int v = 0; v < kNumVars; ++v) {
    EXPECT_EQ(s.field(v), s.field(0) + v * nd) << var_name(v);
    EXPECT_EQ(p[v], s.field(v));
    EXPECT_EQ(cp[v], s.field(v));
  }
  // Writing one field leaves every other one untouched.
  for (int v = 0; v < kNumVars; ++v)
    std::fill(s.field(v), s.field(v) + nd, Real(v + 1));
  for (int v = 0; v < kNumVars; ++v)
    for (std::size_t d = 0; d < nd; ++d)
      ASSERT_EQ(s.field(v)[d], Real(v + 1)) << var_name(v) << " dof " << d;
}

#if defined(__SANITIZE_ADDRESS__)
// One element past the last field lies in the mapping's page-rounding tail
// (24 * 1000 * 8 bytes is not a page multiple), which is poisoned: the
// overflow must be reported as it would be on the heap.
TEST(BssnStateStorageDeathTest, WritePastTheLastFieldIsReported) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        BssnState s(1000);
        volatile Real* last = s.field(kNumVars - 1);
        last[s.num_dofs()] = 1.0;
      },
      "use-after-poison");
}
#endif

TEST(BssnCtxMemory, MapsExactlyTheStagesAndThePipelineBuffers) {
  // Six state-sized buffers (u, four RK stages, the stage input) and one
  // chunk's input patches (13^3) and output blocks (7^3) per variable.
  const auto m = uniform_mesh(2, 4.0);
  const std::size_t nd = m->num_dofs();
  for (int chunk : {64, 5}) {
    SolverConfig cfg;
    cfg.chunk_octants = chunk;
    const std::size_t before = page_map::live_bytes();
    {
      BssnCtx ctx(m, cfg);
      EXPECT_EQ(page_map::live_bytes() - before,
                6 * kNumVars * nd * sizeof(Real) +
                    std::size_t(chunk) * kNumVars *
                        (mesh::kPatchPts + mesh::kOctPts) * sizeof(Real))
          << "chunk " << chunk;
      // Initial data and a step map nothing more.
      set_minkowski(*m, ctx.state());
      ctx.rk4_step();
      EXPECT_EQ(page_map::live_bytes() - before,
                6 * kNumVars * nd * sizeof(Real) +
                    std::size_t(chunk) * kNumVars *
                        (mesh::kPatchPts + mesh::kOctPts) * sizeof(Real))
          << "chunk " << chunk;
    }
    EXPECT_EQ(page_map::live_bytes(), before) << "chunk " << chunk;
  }
}

TEST(BssnInitialData, MakeBinaryProperties) {
  const auto bhs = make_binary(4.0, 6.0);
  ASSERT_EQ(bhs.size(), 2u);
  EXPECT_NEAR(bhs[0].mass + bhs[1].mass, 1.0, 1e-14);
  EXPECT_NEAR(bhs[0].mass / bhs[1].mass, 4.0, 1e-12);
  // Center of mass at the origin; opposite momenta (quasi-circular).
  EXPECT_NEAR(bhs[0].mass * bhs[0].pos[0] + bhs[1].mass * bhs[1].pos[0], 0.0,
              1e-12);
  EXPECT_NEAR(bhs[0].momentum[1] + bhs[1].momentum[1], 0.0, 1e-14);
  EXPECT_NEAR(bhs[0].pos[0] - bhs[1].pos[0], 6.0, 1e-12);
}

TEST(BssnInitialData, ConformalFactorAndPrecollapsedLapse) {
  Domain dom{8.0};
  auto m = std::make_shared<Mesh>(Octree::uniform(1), dom);
  BssnState s;
  const PunctureData bh{1.0, {0.1, 0.1, 0.1}, {0, 0, 0}, {0, 0, 0}};
  set_punctures(*m, {bh}, s);
  for (std::size_t d = 0; d < m->num_dofs(); ++d) {
    const auto x = m->dof_position(static_cast<DofIndex>(d));
    const Real psi =
        bl_conformal_factor({bh}, x[0], x[1], x[2]);
    EXPECT_NEAR(s.field(kChi)[d], std::pow(psi, -4), 1e-13);
    EXPECT_NEAR(s.field(kAlpha)[d], std::pow(psi, -2), 1e-13);
    // chi in (0, 1]; conformal metric stays the identity.
    EXPECT_GT(s.field(kChi)[d], 0.0);
    EXPECT_LE(s.field(kChi)[d], 1.0 + 1e-14);
    EXPECT_EQ(s.field(kGtxy)[d], 0.0);
    EXPECT_EQ(s.field(kGtxx)[d], 1.0);
  }
}

TEST(BssnInitialData, BowenYorkAtIsTraceFree) {
  Domain dom{8.0};
  auto m = std::make_shared<Mesh>(Octree::uniform(1), dom);
  BssnState s;
  set_punctures(*m,
                {{0.6, {0.1, 0.0, 0.0}, {0.0, 0.3, 0.0}, {0.1, 0.0, 0.2}}},
                s);
  for (std::size_t d = 0; d < m->num_dofs(); ++d) {
    const Real tr =
        s.field(kAtxx)[d] + s.field(kAtyy)[d] + s.field(kAtzz)[d];
    EXPECT_NEAR(tr, 0.0, 1e-12);
  }
}

TEST(BssnVars, NamesAndAsymptotics) {
  EXPECT_EQ(var_name(kAlpha), "alpha");
  EXPECT_EQ(var_name(kAtzz), "At_zz");
  EXPECT_EQ(var_asymptotic(kGtyy), 1.0);
  EXPECT_EQ(var_asymptotic(kAtxy), 0.0);
  EXPECT_EQ(sym_idx(2, 0), 2);
  EXPECT_EQ(sym_idx(1, 2), 4);
  EXPECT_EQ(sym_idx(2, 2), 5);
  // Hessian variable table covers exactly the 11 paper variables.
  EXPECT_EQ(kSecondDerivVars.size(), 11u);
}

}  // namespace
}  // namespace dgr::bssn
