/// \file test_subcycle.cpp
/// \brief Depth-local sub-cycled timestepping: the scheduler truth table,
/// the per-depth mesh decomposition, dense-output accuracy, the bitwise
/// contracts (uniform-mesh degeneracy to rk4_step, global-dt path
/// unchanged, resumption after restore()), convergence of the sub-cycled
/// evolution to the
/// global-dt answer, the RK2 puncture tracker, cadence validation, and the
/// distributed engine's depth-filtered halo schedule.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include "bssn/initial_data.hpp"
#include "common/error.hpp"
#include "dist/engine.hpp"
#include "ensemble/scenario.hpp"
#include "fd/dense_output.hpp"
#include "mesh/sampling.hpp"
#include "mesh/subcycle_index.hpp"
#include "solver/evolution.hpp"

namespace dgr {
namespace {

using bssn::BssnState;
using mesh::Mesh;

/// Two-depth puncture mesh (levels 2..3, cycle length 2, 120 octants) —
/// the determinism matrix's grid. Thread, SIMD-width and backend
/// determinism of the sub-cycled step is pinned there
/// (tests/test_exec_space.cpp, tests/test_determinism.cpp).
std::shared_ptr<Mesh> puncture_mesh() {
  oct::Domain dom{16.0};
  return std::make_shared<Mesh>(
      oct::build_puncture_octree(dom, {{{0.05, 0.03, 0.02}, 3}}, 2, 0.75),
      dom);
}

/// Uniform level-2 mesh over the same domain (cycle length 1).
std::shared_ptr<Mesh> uniform_mesh() {
  oct::Domain dom{16.0};
  return std::make_shared<Mesh>(
      oct::build_puncture_octree(dom, {{{0.05, 0.03, 0.02}, 2}}, 2), dom);
}

void init_puncture(const Mesh& m, BssnState& s) {
  s.resize(m.num_dofs());
  bssn::set_punctures(m, {{1.0, {0.05, 0.03, 0.02}, {0, 0, 0}, {0, 0, 0}}},
                      s);
}

solver::SolverConfig solver_config() {
  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;
  return scfg;
}

// ------------------------------------------------------------ scheduler --

TEST(SubcycleScheduler, ActivationMatchesTruthTable) {
  // Depth band [1, 4]: cycle 8. Depth d is due every 2^(4 - d) substeps.
  ASSERT_EQ(mesh::subcycle_length(1, 4), 8);
  for (int s = 0; s < 8; ++s)
    for (int d = 1; d <= 4; ++d)
      EXPECT_EQ(mesh::active_depth(s, d, 4), s % (1 << (4 - d)) == 0)
          << "substep " << s << " depth " << d;
  // Substep 0 activates everything; odd substeps only the finest depth.
  for (int d = 1; d <= 4; ++d) {
    EXPECT_TRUE(mesh::active_depth(0, d, 4));
    EXPECT_EQ(mesh::active_depth(1, d, 4), d == 4);
  }
}

TEST(SubcycleScheduler, ActiveSetIsDepthSuffixWithCorrectCounts) {
  mesh::SubcycleIndex idx;
  idx.dmin = 1;
  idx.dmax = 4;
  idx.octants = {1, 10, 100, 1000};
  std::array<int, 5> steps_per_depth{};
  for (int s = 0; s < idx.cycle(); ++s) {
    const int cutoff = idx.active_cutoff(s);
    std::size_t expect_active = 0;
    for (int d = idx.dmin; d <= idx.dmax; ++d) {
      // The suffix property: active set == [cutoff, dmax], exactly the
      // truth-table predicate.
      EXPECT_EQ(d >= cutoff, mesh::active_depth(s, d, idx.dmax))
          << "substep " << s << " depth " << d;
      if (d >= cutoff) {
        ++steps_per_depth[d];
        expect_active += idx.octants[d - idx.dmin];
      }
    }
    EXPECT_EQ(idx.active_octants(s), expect_active) << "substep " << s;
  }
  // Over one cycle, depth d steps exactly 2^(d - dmin) times.
  for (int d = idx.dmin; d <= idx.dmax; ++d)
    EXPECT_EQ(steps_per_depth[d], 1 << (d - idx.dmin)) << "depth " << d;
}

// ---------------------------------------------------- mesh decomposition --

TEST(SubcycleIndex, BuildDecomposesMeshExactly) {
  auto m = puncture_mesh();
  const auto idx = mesh::SubcycleIndex::build(*m);
  EXPECT_EQ(idx.dmin, 2);
  EXPECT_EQ(idx.dmax, 3);
  EXPECT_EQ(idx.cycle(), 2);
  EXPECT_FALSE(idx.uniform());

  // Every octant appears in exactly one run, at its own depth's slot.
  const auto& leaves = m->tree().leaves();
  std::vector<int> seen(m->num_octants(), 0);
  for (int s = 0; s < idx.depths(); ++s) {
    std::size_t in_runs = 0;
    for (const auto& [b, e] : idx.runs[s]) {
      ASSERT_LT(b, e);
      for (OctIndex o = b; o < e; ++o) {
        ++seen[o];
        EXPECT_EQ(int(leaves[o].level), idx.dmin + s) << "octant " << o;
      }
      in_runs += e - b;
    }
    EXPECT_EQ(in_runs, idx.octants[s]);
  }
  for (std::size_t o = 0; o < seen.size(); ++o)
    EXPECT_EQ(seen[o], 1) << "octant " << o;

  // Per-depth octant/DOF counts partition the mesh; dof_depth is the
  // owner-octant level.
  std::size_t octs = 0, dofs = 0;
  for (int s = 0; s < idx.depths(); ++s) {
    ASSERT_GT(idx.octants[s], 0u);
    octs += idx.octants[s];
    dofs += idx.dofs[s];
  }
  EXPECT_EQ(octs, m->num_octants());
  EXPECT_EQ(dofs, m->num_dofs());
  ASSERT_EQ(idx.dof_depth.size(), m->num_dofs());
  for (DofIndex d = 0; d < DofIndex(m->num_dofs()); ++d)
    EXPECT_EQ(int(idx.dof_depth[d]), int(leaves[m->dof_owner(d)].level))
        << "dof " << d;

  // The deterministic work counts the perf gate regresses on.
  const std::uint64_t global =
      std::uint64_t(m->num_octants()) * 4u * std::uint64_t(idx.cycle());
  EXPECT_EQ(idx.global_octant_evals(), global);
  EXPECT_EQ(idx.cycle_octant_evals(),
            std::uint64_t(idx.octants[0]) * 4u +
                std::uint64_t(idx.octants[1]) * 8u);
  EXPECT_LT(idx.cycle_octant_evals(), idx.global_octant_evals());
}

// --------------------------------------------------------- dense output --

TEST(DenseOutput, QuadraticWeightsAreExactOnQuadratics) {
  const auto u = [](Real t) { return 1.7 - 0.3 * t + 0.8 * t * t; };
  const auto du = [](Real t) { return -0.3 + 1.6 * t; };
  const Real dt = 0.37;
  // Interpolation (theta in [0,1]) and the bounded extrapolation the
  // coarse-reads-fine fill uses (theta up to 2, the 2:1 balance bound).
  for (Real theta : {0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0}) {
    const auto c = fd::dense_output_quadratic(theta, dt);
    const Real v = fd::dense_output_eval(c, u(0), u(dt), du(0));
    EXPECT_NEAR(v, u(theta * dt), 1e-12) << "theta " << theta;
  }
  // Endpoint exactness must be bitwise, not just close: theta = 0 returns
  // u0 untouched (what makes the retained step-start state a safe read).
  const auto c0 = fd::dense_output_quadratic(0.0, dt);
  EXPECT_EQ(fd::dense_output_eval(c0, 4.25, 99.0, 7.0), 4.25);
}

TEST(DenseOutput, MidpointErrorIsThirdOrderInDt) {
  // u(t) = t^3 with u(0) = u'(0) = 0: the dense output gives theta^2 dt^3,
  // the truth (theta dt)^3 — midpoint error dt^3 / 8, exactly O(dt^3).
  const auto err = [](Real dt) {
    const auto c = fd::dense_output_quadratic(0.5, dt);
    const Real v = fd::dense_output_eval(c, 0.0, dt * dt * dt, 0.0);
    return std::abs(v - 0.125 * dt * dt * dt);
  };
  EXPECT_NEAR(err(0.4) / err(0.2), 8.0, 1e-9);
}

TEST(DenseOutput, LinearBootstrapReproducesLines) {
  const auto c = fd::dense_output_linear(0.23);
  // u1 must not participate in the linear mode.
  EXPECT_NEAR(fd::dense_output_eval(c, 2.0, 999.0, -0.5), 2.0 - 0.5 * 0.23,
              1e-15);
}

// ----------------------------------------------------- bitwise contracts --

TEST(Subcycle, UniformMeshDegeneratesToGlobalStepBitwise) {
  auto m = uniform_mesh();
  solver::BssnCtx a(m, solver_config());
  solver::BssnCtx b(m, solver_config());
  init_puncture(*m, a.state());
  init_puncture(*m, b.state());
  ASSERT_TRUE(b.subcycle_index().uniform());
  const Real dt = a.suggested_dt();
  a.rk4_step(dt);
  a.rk4_step(dt);
  b.subcycle_cycle(dt);
  b.subcycle_cycle(dt);
  EXPECT_EQ(b.state().max_abs_diff(a.state()), 0.0);
  EXPECT_EQ(b.time(), a.time());
  EXPECT_EQ(b.steps_taken(), a.steps_taken());
}

TEST(Subcycle, GlobalDtEvolveIsUnchangedByTheSubcycleBranch) {
  // evolve() with subcycle off must still be the plain rk4_step loop,
  // bitwise — the flag's default cannot perturb existing runs.
  auto m = puncture_mesh();
  solver::BssnCtx via_evolve(m, solver_config());
  init_puncture(*m, via_evolve.state());
  solver::EvolutionConfig ecfg;
  ecfg.t_end = 3.1 * via_evolve.suggested_dt();
  ecfg.regrid_every = 100;  // no regrid inside this horizon
  const auto res = solver::evolve(via_evolve, ecfg, nullptr);

  solver::BssnCtx manual(m, solver_config());
  init_puncture(*m, manual.state());
  int steps = 0;
  while (manual.time() < ecfg.t_end - 1e-12) {
    manual.rk4_step(std::min(manual.suggested_dt(),
                             ecfg.t_end - manual.time()));
    ++steps;
  }
  EXPECT_EQ(res.steps, steps);
  EXPECT_EQ(via_evolve.state().max_abs_diff(manual.state()), 0.0);
  EXPECT_EQ(via_evolve.time(), manual.time());
}

TEST(Subcycle, RestoreDropsRetainedDenseStages) {
  // restore() replaces the evolution history, so the dense stages retained
  // before it must not fill the next cycle's ghosts: resuming from the
  // initial state is bitwise a fresh context's first cycle.
  auto m = puncture_mesh();
  solver::BssnCtx fresh(m, solver_config());
  init_puncture(*m, fresh.state());
  const Real dt = fresh.suggested_dt();
  fresh.subcycle_cycle(dt);

  solver::BssnCtx resumed(m, solver_config());
  init_puncture(*m, resumed.state());
  const BssnState initial = resumed.state();
  resumed.subcycle_cycle(dt);
  resumed.subcycle_cycle(dt);
  resumed.state() = initial;
  resumed.restore(0, 0);
  resumed.subcycle_cycle(dt);
  EXPECT_EQ(resumed.state().max_abs_diff(fresh.state()), 0.0);
  EXPECT_EQ(resumed.time(), fresh.time());
  EXPECT_EQ(resumed.steps_taken(), fresh.steps_taken());
}

// ------------------------------------------------------------ convergence --

/// Max-abs distance between the sub-cycled and global-dt states after the
/// same horizon at fine step `dt` (`cycles` coarse cycles).
Real subcycle_error(Real dt, int cycles) {
  auto m = puncture_mesh();
  solver::BssnCtx global(m, solver_config());
  solver::BssnCtx sub(m, solver_config());
  init_puncture(*m, global.state());
  init_puncture(*m, sub.state());
  const int cycle = sub.subcycle_index().cycle();
  for (int c = 0; c < cycles; ++c) {
    sub.subcycle_cycle(dt);
    for (int s = 0; s < cycle; ++s) global.rk4_step(dt);
  }
  EXPECT_EQ(sub.time(), global.time());
  return sub.state().max_abs_diff(global.state());
}

TEST(Subcycle, ConvergesToGlobalDtAtSecondOrder) {
  // The sub-cycling error (dense-output boundary coupling) must vanish at
  // least second order as dt -> 0: local O(dt^3) over O(1/dt) substeps.
  auto m = puncture_mesh();
  const Real dt = solver::BssnCtx(m, solver_config()).suggested_dt();
  const Real e1 = subcycle_error(dt, 1);
  const Real e2 = subcycle_error(dt / 2, 2);  // same horizon, halved dt
  ASSERT_GT(e1, 0.0);
  ASSERT_GT(e2, 0.0);
  // Well above FP noise, or the ratio below is meaningless.
  ASSERT_GT(e1, 1e-13);
  EXPECT_GE(e1 / e2, 3.0) << "e1 " << e1 << " e2 " << e2;
}

// ------------------------------------------------------- puncture tracker --

TEST(Subcycle, PunctureTrackerTakesAnRk2MidpointStep) {
  auto m = puncture_mesh();
  solver::BssnCtx ctx(m, solver_config());
  init_puncture(*m, ctx.state());
  // Two steps of gauge evolution so the shift is nonzero at the puncture.
  ctx.rk4_step();
  ctx.rk4_step();
  const std::array<Real, 3> start{0.05, 0.03, 0.02};
  const Real dt = ctx.suggested_dt();
  solver::PunctureTracker tracker({start});
  tracker.step(*m, ctx.state(), dt);
  const auto& pos = tracker.positions()[0];

  mesh::PointSampler sampler(*m);
  const Real* fields[3] = {ctx.state().field(bssn::kBeta0),
                           ctx.state().field(bssn::kBeta1),
                           ctx.state().field(bssn::kBeta2)};
  Real beta0[3];
  sampler.evaluate_many(fields, 3, start[0], start[1], start[2], beta0);
  ASSERT_NE(beta0[0] * beta0[0] + beta0[1] * beta0[1] + beta0[2] * beta0[2],
            0.0)
      << "gamma-driver produced no shift; the tracker test is vacuous";
  Real mid[3], betam[3];
  for (int a = 0; a < 3; ++a) mid[a] = start[a] - 0.5 * dt * beta0[a];
  sampler.evaluate_many(fields, 3, mid[0], mid[1], mid[2], betam);
  bool differs_from_euler = false;
  for (int a = 0; a < 3; ++a) {
    EXPECT_EQ(pos[a], start[a] - dt * betam[a]) << "component " << a;
    if (pos[a] != start[a] - dt * beta0[a]) differs_from_euler = true;
  }
  // The midpoint correction must actually bite on this field.
  EXPECT_TRUE(differs_from_euler);
}

// ---------------------------------------------------- cadence validation --

TEST(Subcycle, RejectsMidCycleSamplingCadences) {
  auto m = puncture_mesh();  // cycle length 2
  solver::SolverConfig scfg = solver_config();
  const auto attempt = [&](int regrid_every, int extract_every) {
    solver::BssnCtx ctx(m, scfg);
    init_puncture(*m, ctx.state());
    solver::EvolutionConfig ecfg;
    ecfg.subcycle = true;
    ecfg.t_end = 2.1 * ctx.suggested_dt();
    ecfg.regrid_every = regrid_every;
    ecfg.regrid.max_level = 3;
    ecfg.extract_every = extract_every;
    ecfg.extraction_radii = {4.0};
    return solver::evolve(ctx, ecfg, nullptr);
  };
  EXPECT_THROW(attempt(2, 1), Error);  // mid-cycle wave sampling
  EXPECT_THROW(attempt(3, 2), Error);  // mid-cycle regrid
  EXPECT_NO_THROW(attempt(2, 2));      // aligned cadences pass
}

// ------------------------------------------------------- dist scheduling --

TEST(Subcycle, DistScheduleFiltersHalosByDepth) {
  auto m = puncture_mesh();
  BssnState initial;
  init_puncture(*m, initial);
  solver::SolverConfig scfg = solver_config();
  dist::DistConfig base;
  base.ranks = 3;
  base.execute = false;
  base.schedule_evals = 6;
  const auto global = dist::evolve_distributed(m, initial, scfg, base);
  ASSERT_GT(global.messages, 0u);

  dist::DistConfig sub = base;
  sub.subcycle = true;
  const auto subr = dist::evolve_distributed(m, initial, scfg, sub);
  EXPECT_EQ(subr.rhs_evals, global.rhs_evals);
  EXPECT_GT(subr.messages, 0u);
  // Depth-filtered payloads: same number of scheduled evaluations moves
  // strictly fewer halo bytes and virtual compute time.
  EXPECT_LT(subr.bytes, global.bytes);
  EXPECT_LT(subr.t_virtual, global.t_virtual);

  // The schedule itself is deterministic.
  const auto subr2 = dist::evolve_distributed(m, initial, scfg, sub);
  EXPECT_EQ(subr2.t_virtual, subr.t_virtual);
  EXPECT_EQ(subr2.messages, subr.messages);
  EXPECT_EQ(subr2.bytes, subr.bytes);
}

TEST(Subcycle, DistExecuteModeRejectsSubcycle) {
  auto m = puncture_mesh();
  BssnState initial;
  init_puncture(*m, initial);
  solver::SolverConfig scfg = solver_config();
  dist::DistConfig bad;
  bad.ranks = 2;
  bad.execute = true;
  bad.subcycle = true;
  bad.t_end = 0.1;
  EXPECT_THROW(dist::evolve_distributed(m, initial, scfg, bad), Error);
}

// --------------------------------------------------- scenario round-trip --

TEST(Subcycle, ScenarioEncodingRoundTripsTheFlag) {
  ensemble::ScenarioConfig cfg;
  cfg.subcycle = true;
  cfg.steps = 2;
  const auto bytes = ensemble::encode(cfg);
  EXPECT_EQ(ensemble::decode(bytes), cfg);
  // The flag changes the canonical bytes (distinct cache keys).
  ensemble::ScenarioConfig off = cfg;
  off.subcycle = false;
  EXPECT_NE(ensemble::encode(off), bytes);
}

}  // namespace
}  // namespace dgr
