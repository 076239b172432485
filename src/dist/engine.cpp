#include "dist/engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "exec/parallel.hpp"
#include "exec_space/bssn_sweeps.hpp"
#include "obs/obs.hpp"
#include "solver/io.hpp"

namespace dgr::dist {
namespace {

using bssn::BssnState;
using bssn::kNumVars;

/// All ranks on the current mesh generation (rebuilt after each regrid and
/// after each failure recovery, when the partition shrinks to survivors).
struct Cohort {
  std::shared_ptr<const mesh::Mesh> mesh;
  comm::RankPartition part;
  std::vector<std::unique_ptr<RankCtx>> ranks;
};

Cohort make_cohort(std::shared_ptr<const mesh::Mesh> mesh,
                   const solver::SolverConfig& scfg, const DistConfig& cfg,
                   int nranks, const BssnState& global) {
  Cohort c;
  c.mesh = std::move(mesh);
  c.part = comm::partition_mesh(*c.mesh, nranks);
  auto maps = comm::build_exchange_maps(*c.mesh, c.part);
  for (int r = 0; r < nranks; ++r) {
    c.ranks.push_back(std::make_unique<RankCtx>(
        r, c.mesh, c.part, std::move(maps[r]), scfg, cfg.execute));
    c.ranks.back()->adopt_owned(global);
  }
  return c;
}

/// Reassemble the global state from every rank's owned-DOF payload.
BssnState gather_global(SimComm& comm, Cohort& c) {
  std::vector<SimComm::Payload> contrib(comm.ranks());
  for (auto& rc : c.ranks) contrib[rc->rank()] = rc->pack_owned();
  const SimComm::Payload all = comm.allgather(contrib);
  BssnState g(c.mesh->num_dofs());
  std::size_t off = 0;
  for (auto& rc : c.ranks)
    for (int v = 0; v < kNumVars; ++v)
      for (DofIndex d : rc->owned_dofs()) g.field(v)[d] = all[off++];
  DGR_CHECK(off == all.size());
  return g;
}

/// One overlapped RHS evaluation across all ranks:
///   post recvs + sends -> interior compute (halo in flight) -> wait ->
///   boundary compute. `use_stage` selects the RK stage vector as input;
///   `ks` the k-vector written (execute mode).
/// Run each rank's numeric work concurrently on the host pool (ranks write
/// only their own state vectors), one rank per chunk.
template <class Body>
void ranks_parallel(Cohort& c, Body&& body) {
  exec::parallel_for(0, static_cast<std::int64_t>(c.ranks.size()),
                     /*grain=*/1, [&](std::int64_t rb, std::int64_t re) {
                       for (std::int64_t r = rb; r < re; ++r)
                         body(*c.ranks[r]);
                     });
}

void rhs_eval(SimComm& comm, Cohort& c, const DistConfig& cfg, int tag,
              bool use_stage, int ks) {
  // Every SimComm operation stays on the driver, sequential in rank order:
  // the virtual-clock schedule (message injection, advance, delivery) is
  // bitwise identical to the serial engine. Only the rank-local numeric
  // compute between comm points runs concurrently — it neither reads nor
  // writes comm state, so hoisting it ahead of the advance loop is exact.
  for (auto& rc : c.ranks)
    rc->post_exchange(comm, use_stage ? rc->stage() : rc->state(), tag);
  if (cfg.execute)
    ranks_parallel(c, [&](RankCtx& rc) {
      rc.compute_rhs_interior(use_stage ? rc.stage() : rc.state(), rc.k(ks));
    });
  for (auto& rc : c.ranks)
    comm.advance(rc->rank(),
                 cfg.sec_per_octant * double(rc->interior_octants()));
  for (auto& rc : c.ranks)
    rc->finish_exchange(comm, use_stage ? rc->stage() : rc->state());
  if (cfg.execute)
    ranks_parallel(c, [&](RankCtx& rc) {
      rc.compute_rhs_boundary(use_stage ? rc.stage() : rc.state(), rc.k(ks));
    });
  for (auto& rc : c.ranks)
    comm.advance(rc->rank(),
                 cfg.sec_per_octant * double(rc->boundary_octants()));
}

/// One sub-cycled per-depth exchange (schedule-only): same overlapped
/// shape as rhs_eval, but payloads and compute advances are restricted to
/// one refinement depth's DOFs/octants (RankCtx::build_depth_maps).
void rhs_eval_depth(SimComm& comm, Cohort& c, const DistConfig& cfg, int tag,
                    int slot) {
  for (auto& rc : c.ranks)
    rc->post_exchange_depth(comm, rc->state(), tag, slot);
  for (auto& rc : c.ranks)
    comm.advance(rc->rank(), cfg.sec_per_octant *
                                 double(rc->interior_octants_depth(slot)));
  for (auto& rc : c.ranks)
    rc->finish_exchange_depth(comm, rc->state(), slot);
  for (auto& rc : c.ranks)
    comm.advance(rc->rank(), cfg.sec_per_octant *
                                 double(rc->boundary_octants_depth(slot)));
}

/// One distributed RK4 step — the exact arithmetic of BssnCtx::rk4_step,
/// with a ghost exchange ahead of each of the four evaluations. Every
/// rank's stage updates are BssnCtx's AXPY sweeps, run on the host space
/// its RhsPipeline uses.
void rk4_step(SimComm& comm, Cohort& c, const DistConfig& cfg, Real dt,
              int* tag) {
  const exec_space::ExecSpace es = exec_space::ExecSpace::host();
  const auto stage = [&](Real s, int k) {
    for (auto& rc : c.ranks)
      exec_space::sweep_rk4_axpy(es, rc->stage(), s, rc->k(k), &rc->state(),
                                 nullptr);
  };
  rhs_eval(comm, c, cfg, (*tag)++, /*use_stage=*/false, 0);
  stage(0.5 * dt, 0);
  rhs_eval(comm, c, cfg, (*tag)++, /*use_stage=*/true, 1);
  stage(0.5 * dt, 1);
  rhs_eval(comm, c, cfg, (*tag)++, /*use_stage=*/true, 2);
  stage(dt, 2);
  rhs_eval(comm, c, cfg, (*tag)++, /*use_stage=*/true, 3);
  const Real weight[4] = {dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0};
  for (auto& rc : c.ranks)
    for (int k = 0; k < 4; ++k)
      exec_space::sweep_rk4_axpy(es, rc->state(), weight[k], rc->k(k),
                                 nullptr, nullptr);
}

/// The last coordinated checkpoint, kept in memory (and mirrored on disk
/// when DistConfig::checkpoint_path is set).
struct CoordCheckpoint {
  std::shared_ptr<const mesh::Mesh> mesh;
  BssnState state;
  Real time = 0;
  std::uint64_t step = 0;
};

}  // namespace

DistResult evolve_distributed(std::shared_ptr<const mesh::Mesh> mesh,
                              const BssnState& initial,
                              const solver::SolverConfig& scfg,
                              const DistConfig& cfg) {
  DGR_CHECK(mesh != nullptr && cfg.ranks >= 1);
  DGR_CHECK(initial.num_dofs() == mesh->num_dofs());
  solver::validate_regrid_config(cfg.regrid);
  DGR_CHECK_MSG(!(cfg.execute && cfg.do_regrid) || cfg.regrid_every > 0,
                "regrid_every must be > 0, got " << cfg.regrid_every);
  DGR_CHECK_MSG(cfg.extraction_radii.empty() || cfg.extract_every > 0,
                "extract_every must be > 0, got " << cfg.extract_every);
  DGR_CHECK_MSG(cfg.checkpoint_interval >= 0,
                "checkpoint_interval must be >= 0 (0 disables), got "
                    << cfg.checkpoint_interval);
  DGR_CHECK_MSG(!(cfg.subcycle && cfg.execute),
                "subcycle is schedule-only in the distributed engine "
                "(execute-mode local timestepping runs through "
                "solver::evolve)");
  solver::validate_solver_config(scfg);
  solver::validate_end_and_extraction(cfg.t_end, cfg.extraction_radii,
                                      cfg.lmax, mesh->domain().half_extent);
  DGR_CHECK_MSG(std::isfinite(cfg.sec_per_octant) && cfg.sec_per_octant >= 0,
                "sec_per_octant must be finite and >= 0, got "
                    << cfg.sec_per_octant);
  DGR_CHECK_MSG(cfg.schedule_evals >= 0,
                "schedule_evals must be >= 0, got " << cfg.schedule_evals);
  obs::ScopedSpan top("dist::evolve_distributed", "dist");

  FaultPlan plan(cfg.faults);
  FaultPlan* plan_ptr = plan.active() ? &plan : nullptr;
  if (cfg.execute && !plan.failures().empty())
    DGR_CHECK_MSG(cfg.checkpoint_interval > 0,
                  "rank-failure injection requires checkpoint_interval > 0 "
                  "(no coordinated checkpoint to recover from)");

  auto comm = std::make_unique<SimComm>(cfg.ranks, cfg.net, plan_ptr);
  // Engine-level virtual track: step/regrid/checkpoint/recovery instants
  // and the octant counter, alongside the per-rank tracks of each SimComm.
  obs::TraceSession* tr = obs::trace();
  const int eng = tr ? tr->add_track("engine", "steps") : -1;
  Cohort c = make_cohort(mesh, scfg, cfg, cfg.ranks, initial);
  DistResult res;
  int tag = 0;
  int epoch = 0;
  const auto mark = [&](const char* what) {
    if (!tr) return;
    const double ts = comm->max_clock() * 1e6;
    tr->instant(eng, what, "engine", ts);
    tr->counter(eng, "octants", ts, double(c.mesh->num_octants()));
  };

  // Fold one epoch's communicator into the accumulated result. Called when
  // an epoch ends (recovery) and once at the end of the run, so per-epoch
  // maxima sum up and res.ranks always describes the final (surviving)
  // cohort.
  const auto fold_epoch = [&]() {
    res.t_virtual = comm->max_clock();
    res.messages += comm->total_messages();
    res.bytes += comm->total_bytes();
    double tc = 0, te = 0, th = 0, tf = 0;
    res.ranks.clear();
    for (auto& rc : c.ranks) {
      RankReport rep;
      rep.stats = comm->stats(rc->rank());
      rep.owned = rc->owned_octants();
      rep.ghost_octants = rc->maps().ghost_octants.size();
      rep.interior = rc->interior_octants();
      rep.boundary = rc->boundary_octants();
      rep.recv_dofs = rc->maps().recv_dofs();
      tc = std::max(tc, rep.stats.t_compute);
      te = std::max(te, rep.stats.t_comm_exposed);
      th = std::max(th, rep.stats.t_comm_hidden);
      tf = std::max(tf, rep.stats.t_failover);
      res.retransmits += rep.stats.retransmits;
      res.msgs_delayed += rep.stats.msgs_delayed;
      res.ranks.push_back(rep);
    }
    res.t_compute_max += tc;
    res.t_comm_exposed_max += te;
    res.t_comm_hidden_max += th;
    res.t_failover_max = std::max(res.t_failover_max, tf);
  };

  if (!cfg.execute) {
    if (cfg.subcycle) {
      // Sub-cycled schedule: walk the cycle's substeps, firing one
      // filtered exchange per (substep, active depth) coarsest-first,
      // until schedule_evals evaluations have run. Coarse depths exchange
      // exponentially less often, and each exchange carries only the DOFs
      // on that depth's cadence.
      const mesh::SubcycleIndex idx = mesh::SubcycleIndex::build(*c.mesh);
      for (auto& rc : c.ranks) rc->build_depth_maps(idx);
      int ev = 0;
      while (ev < cfg.schedule_evals) {
        for (int s = 0; s < idx.cycle() && ev < cfg.schedule_evals; ++s)
          for (int d = idx.active_cutoff(s);
               d <= idx.dmax && ev < cfg.schedule_evals; ++d) {
            rhs_eval_depth(*comm, c, cfg, tag++, d - idx.dmin);
            ++res.rhs_evals;
            ++ev;
            mark("rhs-eval");
          }
      }
    } else {
      for (int ev = 0; ev < cfg.schedule_evals; ++ev) {
        rhs_eval(*comm, c, cfg, tag++, /*use_stage=*/false, 0);
        ++res.rhs_evals;
        mark("rhs-eval");
      }
    }
  } else {
    // Mirror solver::evolve (Algorithm 1) exactly, with a global step
    // counter so the regrid cadence (every regrid_every-th step) survives
    // rollbacks: a window of regrid_every steps followed by the regrid
    // synchronization point.
    Real time = 0;
    std::uint64_t global_step = 0;

    std::optional<gw::WaveExtractor> extractor;
    std::vector<std::uint64_t> wave_steps;  // step each sample was taken at
    if (!cfg.extraction_radii.empty()) {
      extractor.emplace(cfg.extraction_radii, cfg.lmax);
      for (Real r : cfg.extraction_radii) {
        gw::ModeTimeSeries ts;
        ts.l = 2;
        ts.m = 2;
        ts.radius = r;
        res.waves22.push_back(ts);
      }
    }

    CoordCheckpoint cp;
    const auto take_checkpoint = [&]() {
      obs::ScopedSpan cp_span("dist::checkpoint", "dist");
      BssnState full = gather_global(*comm, c);
      if (!cfg.checkpoint_path.empty())
        solver::save_checkpoint(cfg.checkpoint_path, *c.mesh, full, time,
                                global_step);
      cp.mesh = c.mesh;
      cp.state = std::move(full);
      cp.time = time;
      cp.step = global_step;
      ++res.checkpoints;
      obs::count("dist.checkpoints");
      mark("checkpoint");
    };

    // The rollback half of the protocol: every survivor restarts from the
    // last coordinated checkpoint (reloaded through the hardened on-disk
    // path when one is configured), the partition is rebuilt over the
    // survivors, and the virtual clocks continue from the detection
    // instant in a fresh epoch.
    const auto recover = [&]() {
      obs::ScopedSpan rec_span("dist::recovery", "dist");
      const double t_detect = comm->max_clock();
      const int lost = static_cast<int>(global_step - cp.step);
      fold_epoch();
      const int survivors = comm->alive_count();
      DGR_CHECK(survivors >= 1);

      std::shared_ptr<const mesh::Mesh> rmesh;
      BssnState rstate;
      if (!cfg.checkpoint_path.empty()) {
        const solver::Checkpoint disk =
            solver::load_checkpoint(cfg.checkpoint_path);
        DGR_CHECK(disk.step == cp.step);
        rmesh = solver::checkpoint_mesh(disk);
        rstate = disk.state;
      } else {
        rmesh = cp.mesh;
        rstate = cp.state;
      }
      comm = std::make_unique<SimComm>(survivors, cfg.net, plan_ptr, t_detect,
                                       ++epoch);
      c = make_cohort(rmesh, scfg, cfg, survivors, rstate);
      global_step = cp.step;
      time = cp.time;
      // Rewind the recorded waveform with the state: samples taken in the
      // discarded steps are re-recorded identically on re-execution.
      std::size_t keep = 0;
      while (keep < wave_steps.size() && wave_steps[keep] <= cp.step) ++keep;
      wave_steps.resize(keep);
      for (auto& w : res.waves22) {
        w.times.resize(keep);
        w.values.resize(keep);
      }
      ++res.recoveries;
      res.lost_steps += lost;
      obs::count("dist.recovery.count");
      obs::count("dist.recovery.lost_steps", std::uint64_t(lost));
      obs::gauge_set("dist.recovery.t_detect", t_detect);
      mark("recovery");
    };

    if (cfg.checkpoint_interval > 0) take_checkpoint();

    while (time < cfg.t_end - 1e-12) {
      // dt from the global finest spacing via allreduce-min of each rank's
      // local minimum — bitwise equal to ctx.suggested_dt().
      std::vector<double> h(c.ranks.size());
      for (auto& rc : c.ranks) h[rc->rank()] = rc->local_finest_spacing();
      const Real dt =
          std::min(scfg.cfl * comm->allreduce_min(h), cfg.t_end - time);
      rk4_step(*comm, c, cfg, dt, &tag);
      res.rhs_evals += 4;
      ++res.steps_executed;
      time += dt;
      ++global_step;
      mark("step");

      if (extractor && global_step % cfg.extract_every == 0) {
        obs::ScopedSpan ext_span("dist::wave-extract", "dist");
        const BssnState full = gather_global(*comm, c);
        const auto modes =
            extractor->extract_from_state(*c.mesh, full, scfg.bssn);
        for (std::size_t r = 0; r < modes.size(); ++r)
          res.waves22[r].append(time, modes[r].mode(2, 2));
        wave_steps.push_back(global_step);
      }

      // Fault check: fail every rank whose planned fail-stop instant has
      // passed on the virtual clock, then run the survivors' heartbeat
      // detector and recover once for the whole batch.
      bool failed_any = false;
      while (const auto* f = plan.pending_failure(comm->max_clock())) {
        plan.consume_failure();
        if (comm->alive_count() <= 1) {
          obs::count("dist.faults.skipped");  // cannot kill the last rank
          continue;
        }
        // Victim: the rank spec modulo the epoch's communicator size,
        // advanced to the next live rank if it already died this batch.
        int victim =
            ((f->rank % comm->ranks()) + comm->ranks()) % comm->ranks();
        while (!comm->alive(victim)) victim = (victim + 1) % comm->ranks();
        comm->fail_rank(victim, f->t_virtual);
        ++res.failures;
        obs::count("dist.faults.rank_failures");
        failed_any = true;
      }
      if (failed_any) {
        comm->detect_failures(cfg.faults.heartbeat_period,
                              cfg.faults.heartbeat_timeout);
        recover();
        continue;  // resume stepping from the restored state
      }

      if (cfg.do_regrid && global_step % cfg.regrid_every == 0 &&
          time < cfg.t_end - 1e-12) {
        // Regrid: gather the state (the host sync point), remesh and
        // transfer replicated and deterministically on every rank, then
        // repartition and scatter.
        obs::ScopedSpan regrid_span("dist::regrid", "dist");
        BssnState full = gather_global(*comm, c);
        auto next = solver::regrid_mesh(*c.mesh, full, cfg.regrid);
        if (next) {
          BssnState moved = solver::transfer_state(*c.mesh, full, *next);
          c = make_cohort(std::move(next), scfg, cfg,
                          static_cast<int>(c.ranks.size()), moved);
          ++res.regrids;
          mark("regrid");
        }
      }

      if (cfg.checkpoint_interval > 0 &&
          global_step % std::uint64_t(cfg.checkpoint_interval) == 0)
        take_checkpoint();
    }
    res.steps = static_cast<int>(global_step);
    res.state = gather_global(*comm, c);
  }

  fold_epoch();
  res.final_ranks = comm->alive_count();
  if (obs::MetricsRegistry* m = obs::metrics()) {
    m->add("dist.steps", std::uint64_t(res.steps));
    m->add("dist.steps_executed", std::uint64_t(res.steps_executed));
    m->add("dist.regrids", std::uint64_t(res.regrids));
    m->add("dist.rhs_evals", std::uint64_t(res.rhs_evals));
    m->add("dist.messages", res.messages);
    m->add("dist.bytes", res.bytes);
    m->set("dist.ranks", double(cfg.ranks));
    m->set("dist.final_ranks", double(res.final_ranks));
    m->set("dist.t_virtual", res.t_virtual);
    m->set("dist.t_compute_max", res.t_compute_max);
    m->set("dist.t_comm_exposed_max", res.t_comm_exposed_max);
    m->set("dist.t_comm_hidden_max", res.t_comm_hidden_max);
    m->set("dist.t_failover_max", res.t_failover_max);
    const double comm_t = res.t_comm_exposed_max + res.t_comm_hidden_max;
    if (comm_t > 0)
      m->set("dist.comm_hidden_ratio", res.t_comm_hidden_max / comm_t);
  }
  return res;
}

}  // namespace dgr::dist
