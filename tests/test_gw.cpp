/// \file test_gw.cpp
/// \brief Gravitational-wave extraction tests: sphere quadrature exactness,
/// spin-weighted spherical harmonics (closed forms + orthonormality), mode
/// decomposition, Psi4 identities (flat space, Schwarzschild type-D), and
/// the chunked Psi4 pipeline pinned bitwise to the per-octant algorithm.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "bssn/initial_data.hpp"
#include "exec/pool.hpp"
#include "gw/extract.hpp"
#include "gw/psi4.hpp"
#include "gw/quadrature.hpp"
#include "gw/swsh.hpp"
#include "solver/bssn_ctx.hpp"

namespace dgr::gw {
namespace {

constexpr Real kPi = 3.14159265358979323846;

using bssn::BssnState;
using mesh::Mesh;
using oct::Domain;
using oct::Octree;

TEST(GaussLegendre, NodesAndWeights) {
  std::vector<Real> x, w;
  gauss_legendre(5, x, w);
  Real sum = 0;
  for (Real wi : w) sum += wi;
  EXPECT_NEAR(sum, 2.0, 1e-13);
  // Integrates x^8 on [-1,1] exactly (degree 9 rule): 2/9.
  Real s8 = 0;
  for (int i = 0; i < 5; ++i) s8 += w[i] * std::pow(x[i], 8);
  EXPECT_NEAR(s8, 2.0 / 9.0, 1e-12);
  // Symmetric nodes.
  EXPECT_NEAR(x[0] + x[4], 0.0, 1e-13);
  EXPECT_NEAR(x[2], 0.0, 1e-13);
}

class QuadratureExactness
    : public ::testing::TestWithParam<std::pair<const char*, SphereQuadrature (*)()>> {};

SphereQuadrature make_gauss8() { return gauss_product(8); }

TEST_P(QuadratureExactness, LowDegreeMoments) {
  const SphereQuadrature q = GetParam().second();
  std::vector<Real> ones(q.size(), 1.0), x2(q.size()), x2y2(q.size()),
      xy(q.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    const auto& n = q.points[i];
    x2[i] = n[0] * n[0];
    x2y2[i] = n[0] * n[0] * n[1] * n[1];
    xy[i] = n[0] * n[1];
  }
  EXPECT_NEAR(q.integrate(ones), 4 * kPi, 1e-10);
  EXPECT_NEAR(q.integrate(x2), 4 * kPi / 3, 1e-10);
  EXPECT_NEAR(q.integrate(xy), 0.0, 1e-10);
  EXPECT_NEAR(q.integrate(x2y2), 4 * kPi / 15, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Rules, QuadratureExactness,
    ::testing::Values(std::make_pair("lebedev26", &lebedev_26),
                      std::make_pair("gauss8", &make_gauss8)),
    [](const auto& info) { return info.param.first; });

TEST(Quadrature, Lebedev6IntegratesDegree3) {
  const SphereQuadrature q = lebedev_6();
  EXPECT_EQ(q.size(), 6u);
  std::vector<Real> x2(q.size()), x3(q.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    x2[i] = q.points[i][0] * q.points[i][0];
    x3[i] = std::pow(q.points[i][0], 3);
  }
  EXPECT_NEAR(q.integrate(x2), 4 * kPi / 3, 1e-12);
  EXPECT_NEAR(q.integrate(x3), 0.0, 1e-12);
}

TEST(Quadrature, Lebedev26PointsOnSphere) {
  const SphereQuadrature q = lebedev_26();
  EXPECT_EQ(q.size(), 26u);
  Real wsum = 0;
  for (std::size_t i = 0; i < q.size(); ++i) {
    const auto& n = q.points[i];
    EXPECT_NEAR(n[0] * n[0] + n[1] * n[1] + n[2] * n[2], 1.0, 1e-13);
    wsum += q.weights[i];
  }
  EXPECT_NEAR(wsum, 4 * kPi, 1e-12);
}

TEST(Wigner, IdentityAtZeroAngle) {
  for (int l = 0; l <= 4; ++l)
    for (int m = -l; m <= l; ++m)
      for (int mp = -l; mp <= l; ++mp)
        EXPECT_NEAR(wigner_d(l, m, mp, 0.0), m == mp ? 1.0 : 0.0, 1e-12);
}

TEST(Wigner, ClosedFormD222) {
  for (Real th : {0.3, 1.1, 2.0, 2.9}) {
    const Real expect = std::pow((1 + std::cos(th)) / 2, 2);
    EXPECT_NEAR(wigner_d(2, 2, 2, th), expect, 1e-12);
  }
}

TEST(Swsh, SpinZeroReducesToY00AndY11) {
  for (Real th : {0.4, 1.3}) {
    for (Real ph : {0.0, 2.1}) {
      EXPECT_NEAR(swsh(0, 0, 0, th, ph).real(), std::sqrt(1.0 / (4 * kPi)),
                  1e-12);
      // Y11 = -sqrt(3/8pi) sin(theta) e^{i phi}.
      const Complex y11 = swsh(0, 1, 1, th, ph);
      const Complex expect =
          -std::sqrt(3.0 / (8 * kPi)) * std::sin(th) *
          Complex{std::cos(ph), std::sin(ph)};
      EXPECT_NEAR(y11.real(), expect.real(), 1e-12);
      EXPECT_NEAR(y11.imag(), expect.imag(), 1e-12);
    }
  }
}

TEST(Swsh, ClosedFormSm2Y22) {
  // -2Y22 = sqrt(5/(64 pi)) (1 + cos th)^2 e^{2 i phi}.
  for (Real th : {0.2, 1.0, 2.4}) {
    for (Real ph : {0.5, 3.0}) {
      const Complex v = swsh_m2(2, 2, th, ph);
      const Real amp = std::sqrt(5.0 / (64 * kPi)) * std::pow(1 + std::cos(th), 2);
      EXPECT_NEAR(v.real(), amp * std::cos(2 * ph), 1e-12);
      EXPECT_NEAR(v.imag(), amp * std::sin(2 * ph), 1e-12);
    }
  }
}

TEST(Swsh, OrthonormalityUnderQuadrature) {
  const SphereQuadrature q = gauss_product(12);
  struct LM {
    int l, m;
  };
  const LM modes[] = {{2, 2}, {2, 0}, {2, -1}, {3, 2}, {3, -3}, {4, 0}};
  for (const auto& a : modes)
    for (const auto& b : modes) {
      Complex s{0, 0};
      for (std::size_t i = 0; i < q.size(); ++i) {
        const auto& n = q.points[i];
        const Real th = std::acos(std::clamp(n[2], Real(-1), Real(1)));
        const Real ph = std::atan2(n[1], n[0]);
        s += q.weights[i] * swsh_m2(a.l, a.m, th, ph) *
             std::conj(swsh_m2(b.l, b.m, th, ph));
      }
      const Real expect = (a.l == b.l && a.m == b.m) ? 1.0 : 0.0;
      EXPECT_NEAR(s.real(), expect, 1e-10)
          << a.l << a.m << " vs " << b.l << b.m;
      EXPECT_NEAR(s.imag(), 0.0, 1e-10);
    }
}

TEST(Extractor, DecomposeRecoversInjectedModes) {
  WaveExtractor ex({1.0}, /*lmax=*/4, /*quad_order=*/12);
  const auto& q = ex.quadrature();
  // f = 3*(-2Y22) + (0.5 - 2i)*(-2Y3-1).
  std::vector<Complex> samples(q.size());
  const Complex c22{3.0, 0.0}, c3m1{0.5, -2.0};
  for (std::size_t i = 0; i < q.size(); ++i) {
    const auto& n = q.points[i];
    const Real th = std::acos(std::clamp(n[2], Real(-1), Real(1)));
    const Real ph = std::atan2(n[1], n[0]);
    samples[i] = c22 * swsh_m2(2, 2, th, ph) + c3m1 * swsh_m2(3, -1, th, ph);
  }
  const SphereModes modes = ex.decompose(samples);
  EXPECT_NEAR(std::abs(modes.mode(2, 2) - c22), 0.0, 1e-9);
  EXPECT_NEAR(std::abs(modes.mode(3, -1) - c3m1), 0.0, 1e-9);
  EXPECT_NEAR(std::abs(modes.mode(2, 0)), 0.0, 1e-9);
  EXPECT_NEAR(std::abs(modes.mode(4, 2)), 0.0, 1e-9);
}

TEST(Extractor, ModeIndexPacking) {
  EXPECT_EQ(SphereModes::mode_index(2, -2), 0);
  EXPECT_EQ(SphereModes::mode_index(2, 2), 4);
  EXPECT_EQ(SphereModes::mode_index(3, -3), 5);
  EXPECT_EQ(SphereModes::mode_index(4, 0), 12 + 4);
}

TEST(Psi4, FlatSpaceIsZero) {
  Domain dom{4.0};
  auto m = std::make_shared<Mesh>(Octree::uniform(1), dom);
  BssnState s;
  bssn::set_minkowski(*m, s);
  std::vector<Real> re(m->num_dofs(), 1.0), im(m->num_dofs(), 1.0);
  compute_psi4_field(*m, s, bssn::BssnParams{}, re.data(), im.data());
  for (std::size_t d = 0; d < m->num_dofs(); ++d) {
    EXPECT_NEAR(re[d], 0.0, 1e-11);
    EXPECT_NEAR(im[d], 0.0, 1e-11);
  }
}

/// Psi4 the per-octant way, composed from public calls: a single-octant
/// unzip of all 24 variables, the staged derivative stage,
/// bssn_gather_point and the Psi4 point body at Real on every interior
/// point, and an owner zip of each field.
void reference_psi4_field(const Mesh& m, const BssnState& s,
                          const bssn::BssnParams& prm, Real* re, Real* im) {
  const auto in = s.cptrs();
  std::vector<Real> patches(bssn::kNumVars * mesh::kPatchPts);
  std::vector<Real> pre(mesh::kOctPts), pim(mesh::kOctPts);  // 7^3 blocks
  const Real* pin[bssn::kNumVars];
  for (int v = 0; v < bssn::kNumVars; ++v)
    pin[v] = &patches[v * mesh::kPatchPts];
  Real* outs_re[1] = {re};
  Real* outs_im[1] = {im};
  bssn::DerivWorkspace ws;
  bssn::AlgebraInputs<Real> q;
  for (OctIndex e = 0; e < static_cast<OctIndex>(m.num_octants()); ++e) {
    m.unzip(in.data(), bssn::kNumVars, e, e + 1, patches.data());
    const mesh::PatchGeom geom = m.patch_geom(e);
    bssn::bssn_deriv_stage(pin, geom.h, ws);
    for (int kk = mesh::kPad; kk < mesh::kPad + mesh::kR; ++kk)
      for (int jj = mesh::kPad; jj < mesh::kPad + mesh::kR; ++jj)
        for (int ii = mesh::kPad; ii < mesh::kPad + mesh::kR; ++ii) {
          bssn::bssn_gather_point(pin, ws, mesh::patch_idx(ii, jj, kk), prm,
                                  q);
          const Real pos[3] = {geom.origin[0] + ii * geom.h,
                               geom.origin[1] + jj * geom.h,
                               geom.origin[2] + kk * geom.h};
          const int o = mesh::oct_idx(ii - mesh::kPad, jj - mesh::kPad,
                                      kk - mesh::kPad);
          psi4_point(q, pos, pre[o], pim[o]);
        }
    m.zip(pre.data(), 1, e, e + 1, outs_re);
    m.zip(pim.data(), 1, e, e + 1, outs_im);
  }
}

TEST(Psi4, ChunkedFieldIsBitwiseEqualToPerOctantReference) {
  // Two levels (hanging points), outer-boundary octants, and a DOF at the
  // origin, where the r_min zeroing applies; 204 octants, so the last
  // chunk is partial. The state is evolved two RK4 steps so that every
  // metric derivative is non-trivial.
  Domain dom{8.0};
  const bssn::PunctureData bh{1.0, {0.05, 0.03, 0.02}, {0.1, 0.0, 0.0},
                              {0, 0, 0.1}};
  auto m = std::make_shared<Mesh>(
      oct::build_puncture_octree(dom, {{bh.pos, 3}}, 2, 1.0), dom);
  ASSERT_GT(m->num_hanging(), 0u);
  ASSERT_NE(m->num_octants() % kPsi4ChunkOctants, 0u);
  bool origin_dof = false;
  for (DofIndex d = 0; d < static_cast<DofIndex>(m->num_dofs()); ++d) {
    const auto x = m->dof_position(d);
    origin_dof |= x[0] == 0 && x[1] == 0 && x[2] == 0;
  }
  ASSERT_TRUE(origin_dof);
  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;
  solver::BssnCtx ctx(m, scfg);
  bssn::set_punctures(*m, {bh}, ctx.state());
  ctx.rk4_step();
  ctx.rk4_step();

  const std::size_t n = m->num_dofs();
  std::vector<Real> ref_re(n), ref_im(n);
  reference_psi4_field(*m, ctx.state(), scfg.bssn, ref_re.data(),
                       ref_im.data());
  for (int width : {1, 4})
    for (int threads : {1, 2, 7}) {
      exec::ThreadPool::set_global_threads(threads);
      exec_space::ExecSpace es = exec_space::ExecSpace::host();
      es.set_vector_policy({width});
      std::vector<Real> re(n, -1.0), im(n, -1.0);
      compute_psi4_field(*m, ctx.state(), scfg.bssn, re.data(), im.data(), es);
      EXPECT_EQ(std::memcmp(re.data(), ref_re.data(), n * sizeof(Real)), 0)
          << "width " << width << " threads " << threads;
      EXPECT_EQ(std::memcmp(im.data(), ref_im.data(), n * sizeof(Real)), 0)
          << "width " << width << " threads " << threads;
    }
  exec::ThreadPool::set_global_threads(1);
}

TEST(Psi4, SchwarzschildIsTypeD) {
  // For a single static puncture the radial tetrad is principal-null:
  // Psi4 must vanish up to truncation error and the small tetrad
  // misalignment from the puncture offset, while the Coulomb scale M/r^3 is
  // finite. We check |Psi4| << M/r^3 on an extraction sphere.
  Domain dom{8.0};
  auto m = std::make_shared<Mesh>(Octree::uniform(3), dom);
  BssnState s;
  bssn::set_punctures(*m, {{1.0, {0.02, 0.013, 0.009}, {0, 0, 0}, {0, 0, 0}}},
                      s);
  WaveExtractor ex({4.0}, 2, 8);
  const auto modes = ex.extract_from_state(*m, s, bssn::BssnParams{});
  ASSERT_EQ(modes.size(), 1u);
  const Real coulomb = 1.0 / std::pow(4.0, 3);  // M/r^3 at r = 4
  for (int mm = -2; mm <= 2; ++mm)
    EXPECT_LT(std::abs(modes[0].mode(2, mm)), 0.1 * coulomb)
        << "mode m=" << mm;
}

TEST(Psi4, BinaryPunctureProducesQuadrupole) {
  // Two separated punctures are not type D w.r.t. the radial tetrad: the
  // (2,2) + (2,-2) quadrupole content must dominate odd-m modes.
  Domain dom{8.0};
  auto m = std::make_shared<Mesh>(Octree::uniform(3), dom);
  BssnState s;
  bssn::set_punctures(
      *m, {{0.5, {1.0, 0.01, 0.013}, {0, 0, 0}, {0, 0, 0}},
           {0.5, {-1.0, 0.01, 0.013}, {0, 0, 0}, {0, 0, 0}}},
      s);
  WaveExtractor ex({4.0}, 2, 8);
  const auto modes = ex.extract_from_state(*m, s, bssn::BssnParams{});
  const Real quad = std::abs(modes[0].mode(2, 2)) +
                    std::abs(modes[0].mode(2, -2)) +
                    std::abs(modes[0].mode(2, 0));
  const Real odd = std::abs(modes[0].mode(2, 1)) +
                   std::abs(modes[0].mode(2, -1));
  EXPECT_GT(quad, 1e-6);
  EXPECT_LT(odd, 0.2 * quad);
}

TEST(ModeTimeSeriesRecord, AppendsSamples) {
  ModeTimeSeries ts;
  ts.l = 2;
  ts.m = 2;
  ts.radius = 50;
  ts.append(0.0, {1.0, 0.5});
  ts.append(0.25, {0.9, 0.6});
  ASSERT_EQ(ts.times.size(), 2u);
  EXPECT_EQ(ts.values[1], (Complex{0.9, 0.6}));
}

}  // namespace
}  // namespace dgr::gw
