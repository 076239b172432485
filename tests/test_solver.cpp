/// \file test_solver.cpp
/// \brief Time integration and AMR-driver tests: RK4 order of accuracy,
/// robust stability, state transfer across meshes, the wavelet regrid
/// estimator, and a short puncture-evolution smoke test.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bssn/initial_data.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "solver/bssn_ctx.hpp"
#include "solver/evolution.hpp"
#include "solver/regrid.hpp"

namespace dgr::solver {
namespace {

using bssn::BssnState;
using mesh::Mesh;
using oct::Domain;
using oct::Octree;

std::shared_ptr<Mesh> uniform_mesh(int level, Real half) {
  return std::make_shared<Mesh>(Octree::uniform(level), Domain{half});
}

SolverConfig no_bc_config() {
  SolverConfig cfg;
  cfg.bssn.sommerfeld = false;
  cfg.bssn.ko_sigma = 0.0;
  return cfg;
}

/// The message of the dgr::Error that `f` throws, or "" if it returns.
std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Rk4, FourthOrderOnHomogeneousGaugeDynamics) {
  // Spatially uniform K renders all stencils exact, isolating the time
  // integrator: alpha' = -2 alpha K, K' = alpha K^2/3, chi' = 2/3 chi a K.
  const Real K0 = 0.5, T = 0.4;
  auto run = [&](int nsteps) {
    auto m = uniform_mesh(0, 1.0);  // a single octant suffices
    BssnCtx ctx(m, no_bc_config());
    bssn::set_minkowski(*m, ctx.state());
    for (std::size_t d = 0; d < m->num_dofs(); ++d)
      ctx.state().field(bssn::kK)[d] = K0;
    const Real dt = T / nsteps;
    for (int i = 0; i < nsteps; ++i) ctx.rk4_step(dt);
    return ctx.state();
  };
  BssnState ref = run(64);
  const Real e1 = run(4).max_abs_diff(ref);
  const Real e2 = run(8).max_abs_diff(ref);
  const Real order = std::log2(e1 / e2);
  EXPECT_GT(order, 3.7) << "e1=" << e1 << " e2=" << e2;
  EXPECT_LT(order, 4.7);
}

TEST(Rk4, TimeAndStepCountersAdvance) {
  auto m = uniform_mesh(1, 4.0);
  BssnCtx ctx(m, SolverConfig{});
  bssn::set_minkowski(*m, ctx.state());
  EXPECT_EQ(ctx.steps_taken(), 0u);
  const Real dt = ctx.suggested_dt();
  EXPECT_NEAR(dt, 0.25 * m->finest_spacing(), 1e-14);
  ctx.evolve_steps(3);
  EXPECT_EQ(ctx.steps_taken(), 3u);
  EXPECT_NEAR(ctx.time(), 3 * dt, 1e-12);
}

TEST(Rk4, FlatSpaceIsFixedPoint) {
  auto m = uniform_mesh(1, 4.0);
  SolverConfig cfg;  // Sommerfeld + KO on: flat space must stay flat
  BssnCtx ctx(m, cfg);
  bssn::set_minkowski(*m, ctx.state());
  BssnState before = ctx.state();
  ctx.evolve_steps(3);
  EXPECT_LT(ctx.state().max_abs_diff(before), 1e-10);
}

TEST(Rk4, RobustStabilityRandomPerturbation) {
  // Apples-like robust stability: O(1e-8) random noise on every variable
  // must not blow up over a dozen steps (with KO dissipation active).
  auto m = uniform_mesh(1, 4.0);
  SolverConfig cfg;
  cfg.bssn.ko_sigma = 0.1;
  BssnCtx ctx(m, cfg);
  bssn::set_minkowski(*m, ctx.state());
  Rng rng(2024);
  for (int v = 0; v < bssn::kNumVars; ++v)
    for (std::size_t d = 0; d < m->num_dofs(); ++d)
      ctx.state().field(v)[d] += 1e-8 * rng.uniform(-1, 1);
  ctx.evolve_steps(12);
  BssnState flat;
  bssn::set_minkowski(*m, flat);
  EXPECT_LT(ctx.state().max_abs_diff(flat), 1e-6);
  EXPECT_FALSE(std::isnan(ctx.state().max_abs()));
}

TEST(Rk4, CountersAccumulateAndReset) {
  auto m = uniform_mesh(1, 4.0);
  BssnCtx ctx(m, SolverConfig{});
  bssn::set_minkowski(*m, ctx.state());
  ctx.rk4_step();
  EXPECT_GT(ctx.op_counts().flops, 0u);
  EXPECT_GT(ctx.op_counts().bytes_read, 0u);
  ctx.reset_instrumentation();
  EXPECT_EQ(ctx.op_counts().flops, 0u);
}

TEST(Rk4, ChunkSizeDoesNotChangeResult) {
  const auto bhs = bssn::make_binary(1.0, 2.0);
  auto run = [&](int chunk) {
    auto m = uniform_mesh(2, 8.0);
    SolverConfig cfg;
    cfg.chunk_octants = chunk;
    BssnCtx ctx(m, cfg);
    bssn::set_punctures(*m, bhs, ctx.state());
    ctx.rk4_step();
    return ctx.state();
  };
  BssnState a = run(3);
  BssnState b = run(64);
  EXPECT_EQ(a.max_abs_diff(b), 0.0) << "chunked pipeline must be exact";
}

TEST(Transfer, PolynomialFieldsTransferExactly) {
  // Transfer between different refinements reproduces degree-6 data.
  Domain dom{1.0};
  Mesh src(Octree::uniform(2), dom);
  Mesh dst(Octree::uniform(1), dom);  // coarsening direction
  BssnState s(src.num_dofs());
  auto poly = [](Real x, Real y, Real z) {
    return 0.3 + x * x * y - std::pow(z, 3) + std::pow(x, 6);
  };
  for (int v = 0; v < bssn::kNumVars; ++v)
    src.sample(poly, s.field(v));
  BssnState t = transfer_state(src, s, dst);
  for (std::size_t d = 0; d < dst.num_dofs(); ++d) {
    const auto x = dst.dof_position(static_cast<DofIndex>(d));
    EXPECT_NEAR(t.field(0)[d], poly(x[0], x[1], x[2]), 1e-9);
  }
  // Two levels apart no octant relates to the source tree: the sampler
  // fallback must still reproduce the polynomial.
  Mesh fine(Octree::uniform(3), dom);
  BssnState f(fine.num_dofs());
  for (int v = 0; v < bssn::kNumVars; ++v) fine.sample(poly, f.field(v));
  BssnState tf = transfer_state(fine, f, dst);
  for (std::size_t d = 0; d < dst.num_dofs(); ++d) {
    const auto x = dst.dof_position(static_cast<DofIndex>(d));
    EXPECT_NEAR(tf.field(0)[d], poly(x[0], x[1], x[2]), 1e-9);
  }
}

TEST(Transfer, RefinementDirectionInterpolates) {
  Domain dom{1.0};
  Mesh src(Octree::uniform(1), dom);
  Mesh dst(Octree::uniform(2), dom);
  BssnState s(src.num_dofs());
  auto poly = [](Real x, Real y, Real z) { return x * y * z + 2 * x - y; };
  for (int v = 0; v < bssn::kNumVars; ++v) src.sample(poly, s.field(v));
  BssnState t = transfer_state(src, s, dst);
  for (std::size_t d = 0; d < dst.num_dofs(); ++d) {
    const auto x = dst.dof_position(static_cast<DofIndex>(d));
    EXPECT_NEAR(t.field(5)[d], poly(x[0], x[1], x[2]), 1e-10);
  }
}

/// Random values in every field of a state on `m`.
BssnState random_state(const Mesh& m, std::uint64_t seed) {
  BssnState s(m.num_dofs());
  Rng rng(seed);
  for (int v = 0; v < bssn::kNumVars; ++v)
    for (std::size_t d = 0; d < m.num_dofs(); ++d)
      s.field(v)[d] = rng.uniform(-1, 1);
  return s;
}

/// Root split once, child 0 split again: hanging points and boundary
/// octants (the two-level mesh of test_mesh.cpp).
Mesh two_level_mesh() {
  std::vector<oct::TreeNode> leaves;
  for (int c = 1; c < 8; ++c) leaves.push_back(oct::TreeNode{}.child(c));
  for (int c = 0; c < 8; ++c)
    leaves.push_back(oct::TreeNode{}.child(0).child(c));
  return Mesh(Octree{leaves}, Domain{1.0});
}

enum Relation { kKept, kRefined, kCoarsened, kUnrelated };

/// How destination octant t relates to the source tree.
Relation relation(const Octree& src, const oct::TreeNode& t) {
  if (src.find(t) != kInvalidOct) return kKept;
  if (t.level > 0 && src.find(t.parent()) != kInvalidOct) return kRefined;
  if (t.level == oct::kMaxDepth) return kUnrelated;
  for (int c = 0; c < 8; ++c)
    if (src.find(t.child(c)) == kInvalidOct) return kUnrelated;
  return kCoarsened;
}

/// Transfers `s` onto `dst` and checks that every destination DOF at a
/// source DOF's point holds that DOF's value: bit for bit where its owner
/// is kept or coarsened, and by == where it is refined (the prolongation's
/// delta rows turn -0.0 into +0.0). Returns the octant count per relation.
std::array<int, 4> expect_source_dofs_kept(const Mesh& src, const BssnState& s,
                                           const Mesh& dst, BssnState& t) {
  t = transfer_state(src, s, dst);
  std::unordered_map<std::uint64_t, DofIndex> at;
  for (DofIndex d = 0; d < static_cast<DofIndex>(src.num_dofs()); ++d) {
    const auto& p = src.dof_pu(d);
    at.emplace(mesh::point_key(p[0], p[1], p[2]), d);
  }
  std::array<int, 4> census{};
  for (OctIndex e = 0; e < static_cast<OctIndex>(dst.num_octants()); ++e)
    ++census[relation(src.tree(), dst.tree().leaf(e))];
  std::size_t matched = 0, differ = 0;
  for (DofIndex d = 0; d < static_cast<DofIndex>(dst.num_dofs()); ++d) {
    const auto& p = dst.dof_pu(d);
    const auto it = at.find(mesh::point_key(p[0], p[1], p[2]));
    if (it == at.end()) continue;
    ++matched;
    const bool refined =
        relation(src.tree(), dst.tree().leaf(dst.dof_owner(d))) == kRefined;
    for (int v = 0; v < bssn::kNumVars; ++v) {
      const Real a = t.field(v)[d], b = s.field(v)[it->second];
      if (refined ? a != b : std::memcmp(&a, &b, sizeof(Real)) != 0) ++differ;
    }
  }
  EXPECT_GT(matched, 0u);
  EXPECT_EQ(differ, 0u) << "of " << matched << " DOFs x " << bssn::kNumVars;
  return census;
}

TEST(Transfer, SameMeshIsIdentity) {
  const Mesh m = two_level_mesh();
  ASSERT_GT(m.num_hanging(), 0u);
  const BssnState s = random_state(m, 16);
  const BssnState t = transfer_state(m, s, m);
  ASSERT_EQ(t.num_dofs(), s.num_dofs());
  for (int v = 0; v < bssn::kNumVars; ++v)
    EXPECT_EQ(std::memcmp(t.field(v), s.field(v), s.num_dofs() * sizeof(Real)),
              0)
        << "field " << v;
}

TEST(Transfer, SourceDofsKeepTheirValues) {
  // A real refine and the coarsen back, with bbh_adaptive's mesh, initial
  // data and regrid settings.
  const Domain dom{16.0};
  auto bhs = bssn::make_binary(1.0, 2.0);
  std::vector<oct::Puncture> ps;
  for (auto& b : bhs) {
    b.pos[1] = 0.011;
    b.pos[2] = 0.007;
    ps.push_back({b.pos, 3});
  }
  auto m0 = std::make_shared<Mesh>(oct::build_puncture_octree(dom, ps, 2, 0.75),
                                   dom);
  BssnState s0(m0->num_dofs());
  bssn::set_punctures(*m0, bhs, s0);
  RegridConfig cfg;
  cfg.eps = 3e-4;
  cfg.coarsen_factor = 0.5;
  cfg.min_level = 2;
  cfg.max_level = 3;

  auto m1 = regrid_mesh(*m0, s0, cfg);
  ASSERT_NE(m1, nullptr);
  BssnState s1;
  const auto up = expect_source_dofs_kept(*m0, s0, *m1, s1);
  EXPECT_GT(up[kRefined], 0);
  EXPECT_EQ(up[kUnrelated], 0) << "regrid_mesh output reaches the fallback";

  auto m2 = regrid_mesh(*m1, s1, cfg);
  ASSERT_NE(m2, nullptr);
  BssnState s2;
  const auto down = expect_source_dofs_kept(*m1, s1, *m2, s2);
  EXPECT_GT(down[kCoarsened], 0);
  EXPECT_EQ(down[kUnrelated], 0) << "regrid_mesh output reaches the fallback";

  // 15 -> 22 octants: uniform(1) with its last octant split, then its SFC
  // predecessor refined, which then precedes its finer neighbor.
  const Domain unit{1.0};
  std::vector<oct::TreeNode> leaves = Octree::uniform(1).leaves();
  const oct::TreeNode last = leaves[7], prev = leaves[6];
  leaves.pop_back();
  for (int c = 0; c < 8; ++c) leaves.push_back(last.child(c));
  const Mesh a(Octree{leaves}, unit);
  leaves.erase(leaves.begin() + 6);
  for (int c = 0; c < 8; ++c) leaves.push_back(prev.child(c));
  const Mesh b(Octree{leaves}, unit);
  ASSERT_EQ(a.num_octants(), 15u);
  ASSERT_EQ(b.num_octants(), 22u);
  BssnState t;
  const auto hand = expect_source_dofs_kept(a, random_state(a, 1522), b, t);
  EXPECT_EQ(hand[kKept], 14);
  EXPECT_EQ(hand[kRefined], 8);
}

TEST(Transfer, RejectsMismatchedInputs) {
  const Mesh m = two_level_mesh();
  const BssnState short_state(m.num_dofs() - 1);
  EXPECT_THROW(transfer_state(m, short_state, m), Error);
  const Mesh other(m.tree(), Domain{2.0});
  const BssnState s(m.num_dofs());
  EXPECT_THROW(transfer_state(m, s, other), Error);
}

TEST(Regrid, DetailVanishesOnCubicData) {
  Real u[mesh::kOctPts];
  for (int k = 0; k < mesh::kR; ++k)
    for (int j = 0; j < mesh::kR; ++j)
      for (int i = 0; i < mesh::kR; ++i)
        u[mesh::oct_idx(i, j, k)] =
            1.0 + i - 2.0 * j * j + 0.5 * i * j * k + k * k * k;
  EXPECT_LT(octant_detail(u), 1e-10);
}

TEST(Regrid, DetailDetectsSharpFeature) {
  Real u[mesh::kOctPts] = {};
  u[mesh::oct_idx(3, 3, 3)] = 1.0;  // odd-index spike: pure detail
  EXPECT_GT(octant_detail(u), 0.5);
}

TEST(Regrid, RefinesAroundPuncture) {
  Domain dom{8.0};
  auto m = std::make_shared<Mesh>(Octree::uniform(2), dom);
  BssnState s;
  bssn::set_punctures(*m, {{1.0, {0.07, 0.04, 0.03}, {0, 0, 0}, {0, 0, 0}}},
                      s);
  RegridConfig cfg;
  cfg.eps = 1e-3;
  cfg.max_level = 4;
  cfg.min_level = 2;
  auto errs = compute_octant_errors(*m, s, cfg);
  // The octants containing the puncture must carry the largest error.
  OctIndex center = m->tree().find_leaf(oct::kDomainSize / 2,
                                        oct::kDomainSize / 2,
                                        oct::kDomainSize / 2);
  Real maxerr = 0;
  for (Real e : errs) maxerr = std::max(maxerr, e);
  EXPECT_NEAR(errs[center], maxerr, 1e-12);

  auto next = regrid_mesh(*m, s, cfg);
  ASSERT_NE(next, nullptr);
  EXPECT_GT(next->tree().max_level(), 2);
  EXPECT_TRUE(next->tree().is_balanced());
  // The refined mesh resolves the puncture with finer spacing there.
  OctIndex c2 = next->tree().find_leaf(oct::kDomainSize / 2,
                                       oct::kDomainSize / 2,
                                       oct::kDomainSize / 2);
  EXPECT_GT(int(next->tree().leaf(c2).level), 2);
}

TEST(Regrid, NoChangeReturnsNull) {
  Domain dom{8.0};
  auto m = std::make_shared<Mesh>(Octree::uniform(2), dom);
  BssnState s;
  bssn::set_minkowski(*m, s);
  RegridConfig cfg;
  cfg.eps = 1e-3;
  cfg.min_level = 2;  // flat data: no refine, coarsening capped at level 2
  EXPECT_EQ(regrid_mesh(*m, s, cfg), nullptr);
}

TEST(Regrid, CoarsensSmoothRegions) {
  Domain dom{8.0};
  auto m = std::make_shared<Mesh>(Octree::uniform(3), dom);
  BssnState s;
  bssn::set_minkowski(*m, s);
  RegridConfig cfg;
  cfg.eps = 1e-3;
  cfg.min_level = 2;
  auto next = regrid_mesh(*m, s, cfg);
  ASSERT_NE(next, nullptr);
  EXPECT_LT(next->num_octants(), m->num_octants());
  EXPECT_EQ(next->tree().max_level(), 2);
}

TEST(Regrid, InvalidConfigIsRejectedBeforeAnyStep) {
  auto m = uniform_mesh(1, 4.0);
  BssnCtx ctx(m, SolverConfig{});
  bssn::set_minkowski(*m, ctx.state());
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  const Real inf = std::numeric_limits<Real>::infinity();
  const std::vector<std::function<void(RegridConfig&)>> bad = {
      [](RegridConfig& c) { c.vars = {bssn::kChi, -1}; },
      [](RegridConfig& c) { c.vars = {bssn::kNumVars}; },
      [&](RegridConfig& c) { c.eps = nan; },
      [&](RegridConfig& c) { c.eps = inf; },
      [](RegridConfig& c) { c.eps = -1e-3; },
      [&](RegridConfig& c) { c.coarsen_factor = nan; },
      [](RegridConfig& c) { c.coarsen_factor = -0.5; },
      [](RegridConfig& c) { c.min_level = -1; },
      [](RegridConfig& c) { c.min_level = 4, c.max_level = 3; },
      [](RegridConfig& c) { c.max_level = oct::kMaxDepth + 1; },
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EvolutionConfig ecfg;
    ecfg.t_end = 4 * ctx.suggested_dt();
    ecfg.regrid_every = 2;
    bad[i](ecfg.regrid);
    EXPECT_THROW(evolve(ctx, ecfg, nullptr), Error) << "case " << i;
    EXPECT_THROW(regrid_mesh(*m, ctx.state(), ecfg.regrid), Error)
        << "case " << i;
    EXPECT_EQ(ctx.steps_taken(), 0u) << "case " << i;
  }
  EXPECT_NO_THROW(validate_regrid_config(RegridConfig{}));
}

TEST(SolverConfig, BssnCtxRejectsConfigsThatCannotRun) {
  // A zero or negative cfl never reaches t_end and a NaN one steps to a NaN
  // state; each is rejected, naming the field, before anything is built.
  auto m = uniform_mesh(1, 16.0);
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  const Real inf = std::numeric_limits<Real>::infinity();
  const std::vector<std::pair<std::string, std::function<void(SolverConfig&)>>>
      bad = {
          {"cfl", [](SolverConfig& c) { c.cfl = 0; }},
          {"cfl", [](SolverConfig& c) { c.cfl = -0.25; }},
          {"cfl", [&](SolverConfig& c) { c.cfl = nan; }},
          {"cfl", [&](SolverConfig& c) { c.cfl = inf; }},
          {"chunk_octants", [](SolverConfig& c) { c.chunk_octants = 0; }},
      };
  for (const auto& [field, mutate] : bad) {
    SolverConfig cfg;
    mutate(cfg);
    const std::string what = error_of([&] { BssnCtx ctx(m, cfg); });
    EXPECT_NE(what.find(field), std::string::npos) << field << ": " << what;
  }
  EXPECT_EQ(error_of([&] { BssnCtx ctx(m, SolverConfig{}); }), "");
}

TEST(Evolution, EndTimeAndExtractionAreCheckedBeforeAnyStep) {
  // An infinite t_end never returns, and a sphere past the outer boundary
  // would sample the clamped boundary: evolve rejects both, naming the
  // field, before its first step.
  auto m = uniform_mesh(1, 16.0);
  BssnCtx ctx(m, SolverConfig{});
  bssn::set_minkowski(*m, ctx.state());
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  const Real inf = std::numeric_limits<Real>::infinity();
  const std::vector<
      std::pair<std::string, std::function<void(EvolutionConfig&)>>>
      bad = {
          {"t_end", [&](EvolutionConfig& c) { c.t_end = inf; }},
          {"t_end", [&](EvolutionConfig& c) { c.t_end = nan; }},
          {"t_end", [](EvolutionConfig& c) { c.t_end = -1; }},
          {"radius", [](EvolutionConfig& c) { c.extraction_radii = {40}; }},
          {"radius", [](EvolutionConfig& c) { c.extraction_radii = {4, 16}; }},
          {"radius", [](EvolutionConfig& c) { c.extraction_radii = {0}; }},
          {"radius", [&](EvolutionConfig& c) { c.extraction_radii = {nan}; }},
          {"lmax", [](EvolutionConfig& c) { c.lmax = 1; }},
      };
  for (const auto& [field, mutate] : bad) {
    EvolutionConfig ecfg;
    ecfg.t_end = 2 * ctx.suggested_dt();
    mutate(ecfg);
    const std::string what = error_of([&] { evolve(ctx, ecfg, nullptr); });
    EXPECT_NE(what.find(field), std::string::npos) << field << ": " << what;
    EXPECT_EQ(ctx.steps_taken(), 0u) << field;
  }
  EvolutionConfig ok;
  ok.t_end = 0;
  ok.extraction_radii = {4};
  EXPECT_EQ(evolve(ctx, ok, nullptr).steps, 0);
}

TEST(Evolution, SinglePunctureShortEvolutionStable) {
  // A few steps of a real puncture evolution on an adaptive grid: chi must
  // stay positive, no NaNs, constraints bounded.
  Domain dom{16.0};
  auto tree = oct::build_puncture_octree(
      dom, {{{0.06, 0.04, 0.02}, 4}}, 2);
  auto m = std::make_shared<Mesh>(tree, dom);
  SolverConfig cfg;
  cfg.bssn.ko_sigma = 0.3;
  BssnCtx ctx(m, cfg);
  bssn::set_punctures(*m, {{1.0, {0.06, 0.04, 0.02}, {0, 0, 0}, {0, 0, 0}}},
                      ctx.state());
  ctx.evolve_steps(4);
  EXPECT_FALSE(std::isnan(ctx.state().max_abs()));
  Real chi_min = 1e30, chi_max = -1e30;
  for (std::size_t d = 0; d < m->num_dofs(); ++d) {
    chi_min = std::min(chi_min, ctx.state().field(bssn::kChi)[d]);
    chi_max = std::max(chi_max, ctx.state().field(bssn::kChi)[d]);
  }
  EXPECT_GT(chi_min, -0.01);  // chi may dip slightly near the puncture
  EXPECT_LT(chi_max, 1.2);
  EXPECT_LT(ctx.state().max_abs(), 50.0);
}

TEST(Evolution, RemeshPreservesSmoothState) {
  Domain dom{8.0};
  auto m = std::make_shared<Mesh>(Octree::uniform(2), dom);
  BssnCtx ctx(m, no_bc_config());
  bssn::set_minkowski(*m, ctx.state());
  for (std::size_t d = 0; d < m->num_dofs(); ++d) {
    const auto x = m->dof_position(static_cast<DofIndex>(d));
    ctx.state().field(bssn::kChi)[d] = 1.0 + 0.001 * x[0] * x[1];
  }
  auto m2 = std::make_shared<Mesh>(Octree::uniform(1), dom);
  ctx.remesh(m2);
  EXPECT_EQ(ctx.state().num_dofs(), m2->num_dofs());
  for (std::size_t d = 0; d < m2->num_dofs(); ++d) {
    const auto x = m2->dof_position(static_cast<DofIndex>(d));
    EXPECT_NEAR(ctx.state().field(bssn::kChi)[d], 1.0 + 0.001 * x[0] * x[1],
                1e-10);
  }
}

}  // namespace
}  // namespace dgr::solver
