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
#include <vector>

#include "bssn/algebra.hpp"
#include "bssn/constraints.hpp"
#include "bssn/initial_data.hpp"
#include "bssn/rhs.hpp"
#include "bssn/state.hpp"
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
      std::vector<Real> out_s(in.size(), 12345.0), out_p(in.size(), 12345.0);
      const Real* pi[kNumVars];
      Real* ps[kNumVars];
      Real* pp[kNumVars];
      for (int v = 0; v < kNumVars; ++v) {
        pi[v] = &in[v * mesh::kPatchPts];
        ps[v] = &out_s[v * mesh::kPatchPts];
        pp[v] = &out_p[v * mesh::kPatchPts];
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
      // Whole patches, padding included: the pack kernel writes exactly the
      // interior points, with the same bits.
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
