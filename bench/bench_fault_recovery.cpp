/// \file bench_fault_recovery.cpp
/// \brief Fault-tolerance of the simulated multi-rank engine: inject rank
/// fail-stops into an executing N-rank BBH evolution, recover from the
/// last coordinated checkpoint, and verify the headline invariant — the
/// recovered run's final state and Psi4 (2,2) waveform are BITWISE
/// identical to the fault-free run; only the virtual clock pays for the
/// lost steps, the heartbeat detection stall, and the re-execution. Also
/// sweeps the checkpoint interval to show the classic trade: frequent
/// checkpoints cost steady-state allgathers, sparse ones cost rollback
/// distance.
///
/// Flags: --ranks N (default 4), --faults N (injected failures, default 1,
/// 0 disables), --checkpoint-interval K (default 2), plus the common
/// --json [path] / --threads N of every bench.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "bssn/initial_data.hpp"
#include "dist/engine.hpp"
#include "common/parse.hpp"

namespace {

int parse_int_flag(const char* flag, const char* value, int lo, int hi) {
  if (value == nullptr) {
    std::fprintf(stderr, "error: %s requires a value\n", flag);
    std::exit(2);
  }
  try {
    return static_cast<int>(dgr::parse_count(value, flag, lo, hi));
  } catch (const dgr::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dgr;
  bench::header("Fault recovery",
                "rank fail-stop injection + checkpoint rollback, N ranks");
  bench::Reporter rep("fault_recovery", argc, argv);

  int ranks = 4, nfaults = 1, interval = 2;
  for (int i = 1; i < argc; ++i) {
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(argv[i], "--ranks") == 0)
      ranks = parse_int_flag("--ranks", next, 2, 64);
    else if (std::strcmp(argv[i], "--faults") == 0)
      nfaults = parse_int_flag("--faults", next, 0, 8);
    else if (std::strcmp(argv[i], "--checkpoint-interval") == 0)
      interval = parse_int_flag("--checkpoint-interval", next, 1, 64);
  }
  if (nfaults > ranks - 1) nfaults = ranks - 1;  // one rank must survive

  oct::Domain dom{16.0};
  auto m = std::make_shared<mesh::Mesh>(
      oct::build_puncture_octree(dom, {{{0.05, 0.03, 0.02}, 3}}, 2), dom);
  solver::SolverConfig scfg;
  scfg.bssn.ko_sigma = 0.3;
  solver::BssnCtx probe(m, scfg);
  bssn::set_punctures(*m, {{1.0, {0.05, 0.03, 0.02}, {0, 0, 0}, {0, 0, 0}}},
                      probe.state());
  const Real dt = probe.suggested_dt();
  bssn::BssnState initial;
  initial.resize(m->num_dofs());
  bssn::set_punctures(*m, {{1.0, {0.05, 0.03, 0.02}, {0, 0, 0}, {0, 0, 0}}},
                      initial);
  std::printf("  grid: %zu octants, %zu dofs | ranks=%d faults=%d K=%d\n",
              m->num_octants(), m->num_dofs(), ranks, nfaults, interval);
  rep.metric("ranks", ranks);
  rep.metric("faults_requested", nfaults);
  rep.metric("checkpoint_interval", interval);

  dist::DistConfig base;
  base.ranks = ranks;
  base.t_end = 8.2 * dt;
  base.regrid_every = 4;
  base.regrid.eps = 2e-3;
  base.regrid.min_level = 2;
  base.regrid.max_level = 3;
  base.sec_per_octant = 1e-5;
  base.checkpoint_interval = interval;
  base.extraction_radii = {5.0};
  base.extract_every = 2;

  // Fault-free reference (same checkpoint cadence: its allgathers are part
  // of the schedule both runs execute).
  const auto clean = dist::evolve_distributed(m, initial, scfg, base);
  std::printf("  fault-free: %d steps, %d checkpoints, t_virtual=%.5f s\n",
              clean.steps, clean.checkpoints, clean.t_virtual);

  // Faulted run: nfaults fail-stops spread over the mid-run window.
  dist::DistConfig faulty = base;
  faulty.faults.enabled = nfaults > 0;
  for (int i = 0; i < nfaults; ++i) {
    const double frac =
        nfaults == 1 ? 0.55 : 0.3 + 0.5 * double(i) / double(nfaults - 1);
    faulty.faults.rank_failures.push_back({frac * clean.t_virtual, 1 + i});
  }
  const auto rec = dist::evolve_distributed(m, initial, scfg, faulty);

  const double state_diff = rec.state.max_abs_diff(clean.state);
  double wave_diff = 0;
  const bool wave_shape_ok =
      rec.waves22.size() == clean.waves22.size() &&
      !clean.waves22.empty() &&
      rec.waves22[0].values.size() == clean.waves22[0].values.size();
  if (wave_shape_ok)
    for (std::size_t i = 0; i < clean.waves22[0].values.size(); ++i)
      wave_diff = std::max(
          wave_diff,
          std::abs(rec.waves22[0].values[i] - clean.waves22[0].values[i]));

  std::printf(
      "  faulted:    %d steps (%d executed, %d lost), %d recoveries, "
      "%d->%d ranks\n",
      rec.steps, rec.steps_executed, rec.lost_steps, rec.recoveries, ranks,
      rec.final_ranks);
  std::printf("              t_virtual=%.5f s (+%.1f%%), failover stall "
              "%.5f s\n",
              rec.t_virtual,
              100 * (rec.t_virtual / clean.t_virtual - 1.0),
              rec.t_failover_max);
  std::printf("  state max|diff| = %.3g, psi4 max|diff| = %.3g  %s\n",
              state_diff, wave_diff,
              state_diff == 0 && wave_diff == 0 && wave_shape_ok
                  ? "(bitwise identical)"
                  : "(MISMATCH)");

  rep.pair("state_max_abs_diff", 0.0, state_diff);
  rep.pair("psi4_max_abs_diff", 0.0, wave_diff);
  rep.metric("recoveries", rec.recoveries);
  rep.metric("failures", rec.failures);
  rep.metric("lost_steps", rec.lost_steps);
  rep.metric("final_ranks", rec.final_ranks);
  rep.metric("t_virtual_clean", clean.t_virtual);
  rep.metric("t_virtual_faulted", rec.t_virtual);
  rep.metric("recovery_overhead_pct",
             100 * (rec.t_virtual / clean.t_virtual - 1.0));
  rep.metric("t_failover_max", rec.t_failover_max);

  // Checkpoint-interval sweep: rollback distance vs checkpoint cost.
  if (nfaults > 0) {
    std::printf("\n  checkpoint-interval sweep (same fault plan)\n");
    std::printf("  K  | checkpoints | lost steps | t_virtual | overhead\n");
    for (int k : {1, 2, 4, 8}) {
      dist::DistConfig ck = base;
      ck.checkpoint_interval = k;
      const auto cl = dist::evolve_distributed(m, initial, scfg, ck);
      dist::DistConfig fk = faulty;
      fk.checkpoint_interval = k;
      const auto rk = dist::evolve_distributed(m, initial, scfg, fk);
      const double over = 100 * (rk.t_virtual / cl.t_virtual - 1.0);
      std::printf("  %-2d | %-11d | %-10d | %-9.5f | %+.1f%%\n", k,
                  rk.checkpoints, rk.lost_steps, rk.t_virtual, over);
      rep.metric("sweep_k" + std::to_string(k) + "_lost_steps",
                 rk.lost_steps);
      rep.metric("sweep_k" + std::to_string(k) + "_overhead_pct", over);
      if (rk.state.max_abs_diff(cl.state) != 0)
        rep.note("WARNING: sweep K=" + std::to_string(k) +
                 " broke bitwise identity");
    }
  }

  bench::note("recovered state and Psi4 series are compared bitwise against");
  bench::note("the fault-free run; any nonzero diff is a correctness bug.");
  bench::note("overhead = lost-step re-execution + heartbeat detection stall");
  bench::note("+ checkpoint allgathers, all on the virtual clock.");

  // --json: re-run the faulted evolution under a TraceSession so the
  // checkpoint/recovery instants, the failure-detect stall, and the
  // per-epoch rank tracks are exported as a Perfetto timeline.
  if (rep.enable_trace() && nfaults > 0) {
    const auto traced = dist::evolve_distributed(m, initial, scfg, faulty);
    rep.metric("trace_recoveries", traced.recoveries);
    rep.note("trace: faulted run, virtual time domain, epoch-labeled tracks");
  }
  return 0;
}
