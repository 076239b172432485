/// \file test_fault_recovery.cpp
/// \brief Fault-tolerance tests for the simulated multi-rank engine:
/// deterministic FaultPlan streams, dropped-message retransmit with
/// exponential backoff, delay faults, heartbeat failure detection, and the
/// headline guarantee — a run with an injected rank failure recovers from
/// the last coordinated checkpoint and finishes with a final state and
/// Psi4 waveform bitwise identical to the fault-free run.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "bssn/initial_data.hpp"
#include "common/error.hpp"
#include "dist/engine.hpp"
#include "solver/evolution.hpp"
#include "solver/io.hpp"

namespace dgr::dist {
namespace {

using bssn::BssnState;
using mesh::Mesh;
using oct::Domain;

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

bool file_exists(const std::string& path) {
  return bool(std::ifstream(path));
}

TEST(FaultPlan, SameSeedSameStreams) {
  FaultConfig fc;
  fc.random_failures = 3;
  fc.random_fail_t_min = 1.0;
  fc.random_fail_t_max = 2.0;
  fc.msg_drop_prob = 0.2;
  fc.msg_delay_prob = 0.2;
  FaultPlan a(fc), b(fc);
  ASSERT_EQ(a.failures().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a.failures()[i].t_virtual, b.failures()[i].t_virtual);
    EXPECT_EQ(a.failures()[i].rank, b.failures()[i].rank);
    EXPECT_GE(a.failures()[i].t_virtual, 1.0);
    EXPECT_LT(a.failures()[i].t_virtual, 2.0);
    if (i > 0)
      EXPECT_LE(a.failures()[i - 1].t_virtual, a.failures()[i].t_virtual);
  }
  for (int i = 0; i < 200; ++i) {
    const auto fa = a.draw_msg_fault();
    const auto fb = b.draw_msg_fault();
    EXPECT_EQ(fa.drops, fb.drops);
    EXPECT_EQ(fa.delayed, fb.delayed);
  }
  // A different seed reshuffles the event stream.
  FaultConfig other = fc;
  other.seed = 12345;
  FaultPlan c(fc), d(other);
  bool any_diff = false;
  for (std::size_t i = 0; i < 3; ++i)
    any_diff |= c.failures()[i].t_virtual != d.failures()[i].t_virtual;
  EXPECT_TRUE(any_diff);
}

TEST(FaultPlan, PendingFailuresConsumedInTimeOrder) {
  FaultConfig fc;
  fc.rank_failures = {{2.0, 1}, {1.0, 0}};  // out of order on purpose
  FaultPlan plan(fc);
  EXPECT_TRUE(plan.active());
  EXPECT_EQ(plan.pending_failure(0.5), nullptr);
  const auto* f = plan.pending_failure(1.5);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->rank, 0);
  plan.consume_failure();
  EXPECT_EQ(plan.pending_failure(1.5), nullptr);  // next event is at 2.0
  f = plan.pending_failure(2.5);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->rank, 1);
  plan.consume_failure();
  EXPECT_EQ(plan.pending_failure(1e9), nullptr);

  // A default config injects nothing: no failure, no drop, no delay.
  FaultPlan inert{FaultConfig{}};
  EXPECT_FALSE(inert.active());
  EXPECT_EQ(inert.pending_failure(1e9), nullptr);
  const auto msg = inert.draw_msg_fault();
  EXPECT_EQ(msg.drops, 0);
  EXPECT_FALSE(msg.delayed);
}

TEST(SimCommFault, DroppedMessageRetransmitsWithBackoff) {
  FaultConfig fc;
  fc.msg_drop_prob = 1.0;  // every attempt up to max_retries is lost
  fc.max_retries = 2;
  fc.retry_timeout = 1e-3;
  fc.retry_backoff = 2.0;
  FaultPlan plan(fc);
  SimComm comm(2, perf::flat_network(perf::infiniband()), &plan);

  SimComm::Payload in = {1.0, 2.5, -3.0}, out;
  std::vector<SimComm::Request> reqs;
  reqs.push_back(comm.irecv(0, 1, 0, &out));
  comm.isend(1, 0, 0, in);
  comm.wait_all(0, reqs);

  // Payload delivered intact — drops cost time, never data.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1], 2.5);
  EXPECT_EQ(out[2], -3.0);
  EXPECT_EQ(comm.stats(1).retransmits, 2u);
  // Arrival = 3 full injections (original + 2 resends) + the NACK
  // timeouts 1e-3 and 2e-3 (exponential backoff).
  const auto link = perf::infiniband();
  const double wire = link.alpha + link.beta * (3 * sizeof(Real));
  EXPECT_DOUBLE_EQ(comm.log()[0].t_ready, 3 * wire + 3e-3);
  EXPECT_DOUBLE_EQ(comm.clock(0), comm.log()[0].t_ready);
  EXPECT_GT(comm.stats(0).t_comm_exposed, 3e-3);
}

TEST(SimCommFault, DelayedMessageArrivesLateIntact) {
  FaultConfig fc;
  fc.msg_delay_prob = 1.0;
  fc.msg_delay_factor = 4.0;
  FaultPlan plan(fc);
  SimComm comm(2, perf::flat_network(perf::infiniband()), &plan);

  SimComm::Payload in(256, 7.0), out;
  std::vector<SimComm::Request> reqs;
  reqs.push_back(comm.irecv(0, 1, 0, &out));
  comm.isend(1, 0, 0, in);
  comm.wait_all(0, reqs);

  ASSERT_EQ(out.size(), 256u);
  EXPECT_EQ(out[100], 7.0);
  EXPECT_EQ(comm.stats(1).msgs_delayed, 1u);
  EXPECT_EQ(comm.stats(1).retransmits, 0u);
  // Serialization term stretched by the delay factor.
  const auto link = perf::infiniband();
  EXPECT_DOUBLE_EQ(comm.log()[0].t_ready,
                   link.alpha + 4.0 * link.beta * (256 * sizeof(Real)));
}

TEST(SimCommFault, HeartbeatDetectionAdvancesSurvivors) {
  SimComm comm(4, perf::gpu_cluster(2));
  comm.advance(3, 1.0);  // the furthest survivor sets the sync point
  EXPECT_EQ(comm.alive_count(), 4);
  comm.fail_rank(2, 0.55);
  EXPECT_FALSE(comm.alive(2));
  EXPECT_EQ(comm.alive_count(), 3);
  EXPECT_THROW(comm.fail_rank(2, 0.6), Error);  // already dead

  // Sync point = max(survivor clocks, failure time) = 1.0; the first
  // heartbeat slot after it (period 0.25) is 1.25, and death is declared
  // timeout=0.05 later: every survivor stalls until 1.3.
  const auto detected = comm.detect_failures(0.25, 0.05);
  ASSERT_EQ(detected.size(), 1u);
  EXPECT_EQ(detected[0], 2);
  const double t_detect = 5 * 0.25 + 0.05;
  EXPECT_DOUBLE_EQ(comm.clock(0), t_detect);
  EXPECT_DOUBLE_EQ(comm.stats(0).t_failover, t_detect);
  EXPECT_DOUBLE_EQ(comm.clock(1), t_detect);
  EXPECT_DOUBLE_EQ(comm.clock(3), t_detect);
  EXPECT_DOUBLE_EQ(comm.stats(3).t_failover, t_detect - 1.0);
  // A second sweep finds nothing new and moves no clocks.
  EXPECT_TRUE(comm.detect_failures(0.25, 0.05).empty());
  EXPECT_DOUBLE_EQ(comm.clock(0), t_detect);
}

/// The headline acceptance test: a 4-rank run with a mid-run rank failure
/// rolls back to the last coordinated checkpoint, rebuilds over the 3
/// survivors, and finishes with state AND Psi4 waveform bitwise identical
/// to the fault-free run — only the virtual clock shows the fault.
TEST(FaultRecovery, RankFailureRecoversBitwise) {
  auto m = puncture_mesh();
  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;
  solver::BssnCtx probe(m, scfg);
  init_puncture(*m, probe.state());
  const Real dt = probe.suggested_dt();

  BssnState initial;
  init_puncture(*m, initial);
  DistConfig base;
  base.ranks = 4;
  base.t_end = 8.2 * dt;
  base.regrid_every = 4;
  base.regrid.eps = 2e-3;
  base.regrid.min_level = 2;
  base.regrid.max_level = 3;  // keep dt constant across the regrid
  base.sec_per_octant = 1e-5;
  base.checkpoint_interval = 2;
  base.extraction_radii = {5.0};
  base.extract_every = 2;
  const auto clean = evolve_distributed(m, initial, scfg, base);
  ASSERT_GE(clean.steps, 8);
  ASSERT_GE(clean.regrids, 1);
  ASSERT_GE(clean.checkpoints, 4);
  ASSERT_EQ(clean.recoveries, 0);
  ASSERT_EQ(clean.final_ranks, 4);
  ASSERT_EQ(clean.waves22.size(), 1u);
  ASSERT_GE(clean.waves22[0].times.size(), 4u);

  DistConfig faulty = base;
  faulty.faults.rank_failures = {{0.6 * clean.t_virtual, 2}};
  const auto rec = evolve_distributed(m, initial, scfg, faulty);

  EXPECT_EQ(rec.failures, 1);
  EXPECT_GE(rec.recoveries, 1);
  EXPECT_GT(rec.lost_steps, 0);
  EXPECT_EQ(rec.final_ranks, 3);
  EXPECT_GT(rec.t_failover_max, 0.0);

  // Same net trajectory...
  EXPECT_EQ(rec.steps, clean.steps);
  EXPECT_EQ(rec.regrids, clean.regrids);
  // ...paid for with re-executed steps and extra virtual time.
  EXPECT_EQ(rec.steps_executed, rec.steps + rec.lost_steps);
  EXPECT_GT(rec.t_virtual, clean.t_virtual);

  // The determinism invariant: bitwise-identical state and waveform.
  ASSERT_EQ(rec.state.num_dofs(), clean.state.num_dofs());
  EXPECT_EQ(rec.state.max_abs_diff(clean.state), 0.0);
  ASSERT_EQ(rec.waves22.size(), 1u);
  ASSERT_EQ(rec.waves22[0].times.size(), clean.waves22[0].times.size());
  for (std::size_t i = 0; i < clean.waves22[0].times.size(); ++i) {
    EXPECT_EQ(rec.waves22[0].times[i], clean.waves22[0].times[i]) << i;
    EXPECT_EQ(rec.waves22[0].values[i], clean.waves22[0].values[i]) << i;
  }
}

/// Recovery through the on-disk restart path: the coordinated checkpoint
/// is written with solver::save_checkpoint and reloaded with
/// load_checkpoint + checkpoint_mesh, and the atomic write leaves no .tmp
/// debris behind.
TEST(FaultRecovery, DiskCheckpointRecoveryMatchesInMemory) {
  auto m = puncture_mesh();
  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;
  solver::BssnCtx probe(m, scfg);
  init_puncture(*m, probe.state());
  const Real dt = probe.suggested_dt();

  BssnState initial;
  init_puncture(*m, initial);
  DistConfig base;
  base.ranks = 4;
  base.t_end = 4.2 * dt;
  base.regrid_every = 4;
  base.regrid.eps = 2e-3;
  base.regrid.min_level = 2;
  base.regrid.max_level = 3;
  base.sec_per_octant = 1e-5;
  base.checkpoint_interval = 2;
  const auto clean = evolve_distributed(m, initial, scfg, base);
  ASSERT_GE(clean.steps, 4);

  const std::string path = "/tmp/dgr_test_fault_recovery_cp.bin";
  DistConfig faulty = base;
  faulty.checkpoint_path = path;
  faulty.faults.rank_failures = {{0.6 * clean.t_virtual, 1}};
  const auto rec = evolve_distributed(m, initial, scfg, faulty);

  EXPECT_GE(rec.recoveries, 1);
  EXPECT_EQ(rec.final_ranks, 3);
  EXPECT_EQ(rec.steps, clean.steps);
  EXPECT_EQ(rec.state.max_abs_diff(clean.state), 0.0);
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
  std::remove(path.c_str());
}

/// Message drops and delays perturb only the virtual clock: the evolved
/// state stays bitwise identical because every payload is eventually
/// delivered intact.
TEST(FaultRecovery, MessageFaultsOnlyShiftTheClock) {
  auto m = puncture_mesh();
  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;
  solver::BssnCtx probe(m, scfg);
  init_puncture(*m, probe.state());
  const Real dt = probe.suggested_dt();

  BssnState initial;
  init_puncture(*m, initial);
  DistConfig base;
  base.ranks = 4;
  base.t_end = 4.2 * dt;
  base.regrid_every = 4;
  base.regrid.eps = 2e-3;
  base.regrid.min_level = 2;
  base.regrid.max_level = 3;
  base.sec_per_octant = 1e-5;
  const auto clean = evolve_distributed(m, initial, scfg, base);

  DistConfig lossy = base;
  lossy.faults.msg_drop_prob = 0.3;
  lossy.faults.msg_delay_prob = 0.3;
  const auto res = evolve_distributed(m, initial, scfg, lossy);

  EXPECT_EQ(res.steps, clean.steps);
  EXPECT_EQ(res.recoveries, 0);
  EXPECT_EQ(res.final_ranks, 4);
  EXPECT_GT(res.retransmits, 0u);
  EXPECT_GT(res.msgs_delayed, 0u);
  EXPECT_GT(res.t_virtual, clean.t_virtual);
  EXPECT_EQ(res.state.max_abs_diff(clean.state), 0.0);
}

TEST(FaultRecovery, RankFailuresRequireACheckpointInterval) {
  auto m = puncture_mesh();
  BssnState initial;
  init_puncture(*m, initial);
  solver::SolverConfig scfg;
  DistConfig cfg;
  cfg.ranks = 2;
  cfg.t_end = 1e-3;
  cfg.faults.rank_failures = {{1e-6, 1}};
  ASSERT_EQ(cfg.checkpoint_interval, 0);
  EXPECT_THROW(evolve_distributed(m, initial, scfg, cfg), Error);
}

}  // namespace
}  // namespace dgr::dist
