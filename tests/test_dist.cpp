/// \file test_dist.cpp
/// \brief Simulated multi-rank engine tests: message routing and
/// virtual-clock accounting in SimComm, hierarchical network selection,
/// exchange-map invariants, overlap measurement, and the headline
/// guarantee — the N-rank overlapped RK4 path is bitwise-identical to the
/// single-rank solver::evolve path, through a regrid.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bssn/initial_data.hpp"
#include "common/error.hpp"
#include "dist/engine.hpp"
#include "solver/evolution.hpp"

namespace dgr::dist {
namespace {

using bssn::BssnState;
using mesh::Mesh;
using oct::Domain;
using oct::Octree;

std::shared_ptr<Mesh> puncture_mesh(int finest = 3, int base = 2) {
  Domain dom{16.0};
  return std::make_shared<Mesh>(
      oct::build_puncture_octree(dom, {{{0.05, 0.03, 0.02}, finest}}, base),
      dom);
}

void init_puncture(const Mesh& m, BssnState& s) {
  s.resize(m.num_dofs());
  bssn::set_punctures(m, {{1.0, {0.05, 0.03, 0.02}, {0, 0, 0}, {0, 0, 0}}},
                      s);
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

TEST(SimComm, DeliversPayloadAndLogs) {
  SimComm comm(2, perf::flat_network(perf::infiniband()));
  SimComm::Payload in = {1.0, 2.5, -3.0}, out;
  std::vector<SimComm::Request> reqs;
  reqs.push_back(comm.irecv(0, 1, 7, &out));
  std::vector<SimComm::Request> sends;
  sends.push_back(comm.isend(1, 0, 7, in));
  comm.wait_all(0, reqs);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], -3.0);
  ASSERT_EQ(comm.log().size(), 1u);
  EXPECT_EQ(comm.log()[0].src, 1);
  EXPECT_EQ(comm.log()[0].dst, 0);
  EXPECT_EQ(comm.log()[0].bytes, 3 * sizeof(Real));
  // The receiver stalled for the full transit: all exposed, nothing hidden.
  EXPECT_GT(comm.stats(0).t_comm_exposed, 0.0);
  EXPECT_EQ(comm.stats(0).t_comm_hidden, 0.0);
  EXPECT_DOUBLE_EQ(comm.clock(0), comm.log()[0].t_ready);
}

TEST(SimComm, OverlappedComputeHidesTransit) {
  SimComm comm(2, perf::flat_network(perf::infiniband()));
  SimComm::Payload out;
  std::vector<SimComm::Request> reqs;
  reqs.push_back(comm.irecv(0, 1, 0, &out));
  comm.isend(1, 0, 0, SimComm::Payload(1024, 1.0));
  const double transit =
      perf::infiniband().time(1024 * sizeof(Real), 1);
  comm.advance(0, 10 * transit);  // interior compute while in flight
  comm.wait_all(0, reqs);
  EXPECT_EQ(comm.stats(0).t_comm_exposed, 0.0);
  EXPECT_GT(comm.stats(0).t_comm_hidden, 0.0);
  // Clock advanced by compute only — the message arrived earlier.
  EXPECT_DOUBLE_EQ(comm.clock(0), 10 * transit);
}

TEST(SimComm, AllreduceSynchronizesClocks) {
  SimComm comm(4, perf::gpu_cluster(2));
  comm.advance(2, 1.0);  // straggler
  const double v = comm.allreduce_min({4.0, 2.0, 8.0, 3.0});
  EXPECT_EQ(v, 2.0);
  const double cost =
      perf::gpu_cluster(2).allreduce_time(4, sizeof(double));
  for (int r = 0; r < 4; ++r) EXPECT_DOUBLE_EQ(comm.clock(r), 1.0 + cost);
  EXPECT_GT(comm.stats(0).t_collective, comm.stats(2).t_collective);
}

TEST(HierarchicalNetwork, LinkSelectionByRankDistance) {
  const auto net = perf::gpu_cluster(4);
  EXPECT_TRUE(net.same_node(0, 3));
  EXPECT_FALSE(net.same_node(3, 4));
  const std::uint64_t mb = 1 << 20;
  EXPECT_LT(net.time(0, 3, mb), net.time(3, 4, mb));  // NVLink beats IB
  // log2 tree: 8 ranks -> 3 rounds up + 3 down.
  const double t8 = net.allreduce_time(8, 8);
  EXPECT_DOUBLE_EQ(t8, 6 * perf::infiniband().time(8, 1));
  EXPECT_EQ(net.allreduce_time(1, 8), 0.0);
  // Within one node the tree uses the intra link.
  EXPECT_DOUBLE_EQ(net.allreduce_time(2, 8),
                   2 * perf::nvlink().time(8, 1));
}

TEST(ExchangeMaps, TransposeAndOwnershipInvariants) {
  auto m = puncture_mesh();
  const auto part = comm::partition_mesh(*m, 4);
  const auto maps = comm::build_exchange_maps(*m, part);
  for (int r = 0; r < 4; ++r) {
    // interior + boundary partition the owned range.
    EXPECT_EQ(maps[r].interior.size() + maps[r].boundary.size(),
              part.owned_end(r) - part.owned_begin(r));
    for (int p = 0; p < 4; ++p) {
      // send/recv lists are transposes of each other.
      EXPECT_EQ(maps[r].send_to[p], maps[p].recv_from[r]);
      // Received DOFs are owned by the sending peer, never by us.
      for (DofIndex d : maps[r].recv_from[p]) {
        EXPECT_EQ(part.rank_of(m->dof_owner(d)), p);
        EXPECT_NE(part.rank_of(m->dof_owner(d)), r);
      }
    }
  }
}

TEST(ExchangeMaps, MultiRankHasRemoteTraffic) {
  auto m = puncture_mesh();
  const auto part = comm::partition_mesh(*m, 3);
  const auto maps = comm::build_exchange_maps(*m, part);
  for (int r = 0; r < 3; ++r) {
    EXPECT_FALSE(maps[r].peers.empty());
    EXPECT_GT(maps[r].recv_dofs(), 0u);
    EXPECT_GT(maps[r].boundary.size(), 0u);
  }
}

/// The headline acceptance test: N simulated ranks running the overlapped
/// schedule reproduce the single-rank solver::evolve state bit for bit,
/// across >= 8 steps and a regrid.
TEST(DistEvolve, BitwiseMatchesSingleRankThroughRegrid) {
  auto m = puncture_mesh();
  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;

  // Reference: the single-rank Algorithm 1 driver.
  solver::BssnCtx ctx(m, scfg);
  init_puncture(*m, ctx.state());
  solver::EvolutionConfig ecfg;
  ecfg.t_end = 8.2 * ctx.suggested_dt();
  ecfg.regrid_every = 4;
  ecfg.regrid.eps = 2e-3;
  ecfg.regrid.min_level = 2;
  ecfg.regrid.max_level = 3;  // keep dt constant across the regrid
  const auto ref = solver::evolve(ctx, ecfg, nullptr);
  ASSERT_GE(ref.steps, 8);
  ASSERT_GE(ref.regrids, 1);

  BssnState initial;
  init_puncture(*m, initial);
  for (int ranks : {2, 4, 7}) {
    DistConfig dcfg;
    dcfg.ranks = ranks;
    dcfg.t_end = ecfg.t_end;
    dcfg.regrid_every = ecfg.regrid_every;
    dcfg.regrid = ecfg.regrid;
    dcfg.sec_per_octant = 1e-5;
    const auto dist = evolve_distributed(m, initial, scfg, dcfg);
    EXPECT_EQ(dist.steps, ref.steps) << ranks;
    EXPECT_EQ(dist.regrids, ref.regrids) << ranks;
    ASSERT_EQ(dist.state.num_dofs(), ctx.mesh().num_dofs()) << ranks;
    EXPECT_EQ(dist.state.max_abs_diff(ctx.state()), 0.0) << ranks;
    // The schedule really overlapped: hidden communication on >= 2 ranks.
    int ranks_with_hidden = 0;
    for (const auto& rep : dist.ranks)
      if (rep.stats.t_comm_hidden > 0) ++ranks_with_hidden;
    EXPECT_GE(ranks_with_hidden, 2) << ranks;
    EXPECT_GT(dist.messages, 0u);
    EXPECT_GT(dist.t_virtual, 0.0);
  }
}

TEST(DistEvolve, SingleRankDegeneratesGracefully) {
  auto m = puncture_mesh(3, 2);
  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;
  solver::BssnCtx ctx(m, scfg);
  init_puncture(*m, ctx.state());
  const Real dt = ctx.suggested_dt();
  ctx.rk4_step(dt);

  BssnState initial;
  init_puncture(*m, initial);
  DistConfig dcfg;
  dcfg.ranks = 1;
  dcfg.t_end = dt;  // exactly one step, no regrid window completes
  dcfg.regrid_every = 8;
  const auto dist = evolve_distributed(m, initial, scfg, dcfg);
  EXPECT_EQ(dist.steps, 1);
  EXPECT_EQ(dist.messages, 0u);  // one rank, no peers
  EXPECT_EQ(dist.state.max_abs_diff(ctx.state()), 0.0);
}

TEST(DistEvolve, InvalidRegridConfigIsRejectedUpFront) {
  // Checked before the first step, not at the first regrid mid-run.
  auto m = puncture_mesh(3, 2);
  BssnState initial;
  init_puncture(*m, initial);
  DistConfig dcfg;
  dcfg.ranks = 2;
  dcfg.regrid.vars = {bssn::kNumVars};
  EXPECT_THROW(evolve_distributed(m, initial, solver::SolverConfig{}, dcfg),
               Error);
}

TEST(DistEvolve, InvalidCadenceIsRejectedUpFront) {
  // Every cadence is checked before the cohort build: a zero regrid
  // cadence would divide by zero at the first step, and a negative regrid
  // or checkpoint cadence would run as if it were off.
  auto m = std::make_shared<Mesh>(Octree::uniform(1), Domain{16.0});
  BssnState initial;
  init_puncture(*m, initial);
  solver::SolverConfig scfg;
  DistConfig base;
  base.ranks = 2;
  base.t_end = 0.5 * solver::BssnCtx(m, scfg).suggested_dt();
  const auto run = [&](const DistConfig& cfg) {
    return evolve_distributed(m, initial, scfg, cfg);
  };
  for (int bad : {-3, 0}) {
    DistConfig regrid = base;
    regrid.regrid_every = bad;
    EXPECT_THROW(run(regrid), Error) << "regrid_every " << bad;
    DistConfig extract = base;
    extract.extraction_radii = {4.0};
    extract.extract_every = bad;
    EXPECT_THROW(run(extract), Error) << "extract_every " << bad;
  }
  DistConfig checkpoint = base;
  checkpoint.checkpoint_interval = -1;
  EXPECT_THROW(run(checkpoint), Error);

  // A regrid cadence that never fires is not an error.
  DistConfig no_regrid = base;
  no_regrid.regrid_every = 0;
  no_regrid.do_regrid = false;
  EXPECT_EQ(run(no_regrid).steps, 1);
  DistConfig schedule = base;
  schedule.regrid_every = 0;
  schedule.execute = false;
  schedule.schedule_evals = 1;
  EXPECT_EQ(run(schedule).rhs_evals, 1);
}

TEST(DistEvolve, ConfigsThatCannotRunAreRejectedInBothModes) {
  // A cfl that never reaches t_end or steps to NaN, an endless t_end, a
  // sphere past the outer boundary, a negative virtual cost: each is
  // rejected in both modes, naming the field, before any rank is built.
  auto m = std::make_shared<Mesh>(Octree::uniform(1), Domain{16.0});
  BssnState initial;
  init_puncture(*m, initial);
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  const Real inf = std::numeric_limits<Real>::infinity();
  using Mutate = std::function<void(solver::SolverConfig&, DistConfig&)>;
  const std::vector<std::pair<std::string, Mutate>> bad = {
      {"cfl", [](auto& s, auto&) { s.cfl = 0; }},
      {"cfl", [](auto& s, auto&) { s.cfl = -0.25; }},
      {"cfl", [&](auto& s, auto&) { s.cfl = nan; }},
      {"t_end", [&](auto&, auto& d) { d.t_end = inf; }},
      {"t_end", [](auto&, auto& d) { d.t_end = -1; }},
      {"radius", [](auto&, auto& d) { d.extraction_radii = {40}; }},
      {"lmax", [](auto&, auto& d) { d.lmax = 1; }},
      {"sec_per_octant", [](auto&, auto& d) { d.sec_per_octant = -1; }},
      {"sec_per_octant", [&](auto&, auto& d) { d.sec_per_octant = nan; }},
      {"schedule_evals", [](auto&, auto& d) { d.schedule_evals = -1; }},
  };
  const Real dt = solver::BssnCtx(m, solver::SolverConfig{}).suggested_dt();
  for (const bool execute : {true, false}) {
    DistConfig base;
    base.ranks = 2;
    base.execute = execute;
    base.t_end = 0.5 * dt;
    base.schedule_evals = 1;
    const auto run = [&](const solver::SolverConfig& scfg,
                         const DistConfig& cfg) {
      return error_of([&] { evolve_distributed(m, initial, scfg, cfg); });
    };
    EXPECT_EQ(run(solver::SolverConfig{}, base), "") << execute;
    for (const auto& [field, mutate] : bad) {
      solver::SolverConfig scfg;
      DistConfig cfg = base;
      mutate(scfg, cfg);
      const std::string what = run(scfg, cfg);
      EXPECT_NE(what.find(field), std::string::npos)
          << (execute ? "execute " : "schedule ") << field << ": " << what;
    }
  }
}

TEST(DistEvolve, ScheduleOnlyModeExecutesExchanges) {
  auto m = puncture_mesh();
  BssnState initial;
  init_puncture(*m, initial);
  solver::SolverConfig scfg;
  DistConfig dcfg;
  dcfg.ranks = 4;
  dcfg.execute = false;
  dcfg.schedule_evals = 20;  // 5 RK4 steps' worth of exchanges
  dcfg.sec_per_octant = 1e-5;
  const auto res = evolve_distributed(m, initial, scfg, dcfg);
  EXPECT_EQ(res.rhs_evals, 20);
  EXPECT_EQ(res.steps, 0);
  EXPECT_GT(res.messages, 0u);
  EXPECT_GT(res.bytes, 0u);
  EXPECT_GT(res.t_virtual, 0.0);
  // Virtual clock covers the modeled compute of every evaluation.
  for (const auto& rep : res.ranks) {
    EXPECT_NEAR(rep.stats.t_compute,
                20 * 1e-5 * double(rep.owned), 1e-12);
    EXPECT_GT(rep.stats.t_comm_hidden, 0.0);
  }
}

TEST(RankCtx, ScheduleOnlyRankBuildsNoPipeline) {
  // A rank built without stages (execute = false) holds no RHS pipeline,
  // so both compute calls throw instead of running; a rank built with
  // stages computes.
  auto m = puncture_mesh();
  BssnState u, rhs;
  init_puncture(*m, u);
  rhs.resize(m->num_dofs());
  const auto part = comm::partition_mesh(*m, 2);
  auto maps = comm::build_exchange_maps(*m, part);
  const solver::SolverConfig scfg;
  RankCtx schedule_only(0, m, part, maps[0], scfg, false);
  EXPECT_THROW(schedule_only.compute_rhs_interior(u, rhs), Error);
  EXPECT_THROW(schedule_only.compute_rhs_boundary(u, rhs), Error);
  RankCtx executing(0, m, part, maps[0], scfg, true);
  EXPECT_NO_THROW(executing.compute_rhs_interior(u, rhs));
  EXPECT_NO_THROW(executing.compute_rhs_boundary(u, rhs));
}

}  // namespace
}  // namespace dgr::dist
