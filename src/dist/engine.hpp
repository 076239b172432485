#pragma once
/// \file engine.hpp
/// \brief The simulated multi-rank evolution driver. N ranks advance the
/// BSSN state in lockstep over an overlapped step schedule — per RHS
/// evaluation: post ghost recvs, pack and send boundary DOFs, compute the
/// interior octants while the halo is in flight, wait, then compute the
/// boundary octants — with per-rank virtual clocks making the overlap
/// measurable (t_comm_hidden vs t_comm_exposed). In execute mode the ranks
/// run the real numerics and the gathered result is bitwise-identical to
/// the single-rank solver::evolve path, including regrids (the host
/// synchronization point, realized as an allgather + replicated remesh).
/// In schedule-only mode the message schedule runs with real payloads but
/// compute is advanced on the virtual clock only — this is what the
/// scaling benches (Figs. 17, 18, 20) execute.
///
/// Fault tolerance. With `faults.enabled`, a deterministic FaultPlan
/// injects rank fail-stops (and message drops/delays, absorbed inside
/// SimComm) at chosen virtual-clock instants. The engine takes a
/// *coordinated checkpoint* every `checkpoint_interval` steps (gather to
/// the replicated global state — the same host sync point a regrid uses —
/// then solver::save_checkpoint when `checkpoint_path` is set, else an
/// in-memory copy). When SimComm's heartbeat detector reports a death, all
/// surviving ranks roll back to the last coordinated checkpoint, the
/// partition is rebuilt over the survivors, and the evolution resumes in a
/// fresh epoch whose clocks continue from the detection instant. Because
/// the N-rank schedule is bitwise-identical to the single-rank pipeline
/// for ANY rank count, the recovered run's final state and Psi4 waveforms
/// are bitwise identical to the fault-free run; only the virtual clock
/// (lost steps, detection stall, re-execution) shows the fault — and that
/// cost lands in obs metrics ("dist.recovery.*", "dist.faults.*") and
/// trace spans.

#include <memory>
#include <string>
#include <vector>

#include "dist/fault.hpp"
#include "dist/rank_ctx.hpp"
#include "gw/extract.hpp"
#include "solver/evolution.hpp"

namespace dgr::dist {

struct DistConfig {
  int ranks = 2;
  /// Execute mode: evolve until t_end with a regrid every `regrid_every`
  /// steps (mirrors solver::EvolutionConfig so the two paths agree).
  Real t_end = 0;
  int regrid_every = 16;
  solver::RegridConfig regrid;
  bool do_regrid = true;
  /// Interconnect: NVLink-class within a node, IB-class across nodes.
  perf::HierarchicalNetworkModel net = perf::gpu_cluster();
  /// Virtual compute cost of one octant's unzip+RHS+zip per evaluation
  /// (calibrated by the benches from the §III-D machine models).
  double sec_per_octant = 1e-5;
  /// false: schedule-only — run `schedule_evals` RHS-evaluation message
  /// schedules with real payloads but no numerics (benches).
  bool execute = true;
  int schedule_evals = 0;
  /// Depth-local sub-cycled message schedule (schedule-only mode; execute
  /// mode rejects it). Each scheduled evaluation becomes one per-depth
  /// exchange of the sub-cycle walk — substeps in order, active depths
  /// coarsest-first — with send/recv payloads filtered to the DOFs on that
  /// depth's cadence and the compute advance scaled to that depth's
  /// interior/boundary octants. Models the halo-cadence change local
  /// timestepping induces (fewer, smaller exchanges for coarse depths).
  bool subcycle = false;

  /// Coordinated checkpoint every K steps (0 disables; negative is
  /// rejected). Required (> 0) when fault injection is enabled: the step-0
  /// state always counts as the first coordinated checkpoint, later ones
  /// refresh it.
  int checkpoint_interval = 0;
  /// Checkpoint destination. Non-empty: solver::save_checkpoint writes
  /// (atomically) to this path and recovery restarts through
  /// load_checkpoint + checkpoint_mesh — the full on-disk restart path.
  /// Empty: the checkpoint is kept in memory.
  std::string checkpoint_path;
  /// Fault injection plan (see fault.hpp); inert unless `enabled`.
  FaultConfig faults;

  /// Psi4 recording (mirrors solver::EvolutionConfig): every
  /// `extract_every` steps the state is gathered (a modeled allgather) and
  /// the (2,2) mode extracted per radius. Empty disables extraction.
  std::vector<Real> extraction_radii;
  int extract_every = 4;
  int lmax = 2;
};

struct RankReport {
  RankStats stats;
  std::size_t owned = 0;          ///< owned octants
  std::size_t ghost_octants = 0;  ///< octant-level halo size
  std::size_t interior = 0;       ///< octants computable during the halo
  std::size_t boundary = 0;       ///< octants gated on the halo
  std::size_t recv_dofs = 0;      ///< ghost DOFs received per exchange
};

struct DistResult {
  /// Net steps advanced (rolled-back steps excluded), so a recovered run
  /// reports the same count as the fault-free run.
  int steps = 0;
  /// Every rk4_step actually executed, including re-execution after
  /// rollbacks; steps_executed - steps is the recovery re-compute bill.
  int steps_executed = 0;
  int regrids = 0;
  int rhs_evals = 0;
  /// Parallel time of the executed schedule: max over per-rank clocks
  /// (continuous across recovery epochs).
  double t_virtual = 0;
  /// Accumulated across epochs (per-epoch maxima summed).
  double t_compute_max = 0;
  double t_comm_exposed_max = 0;
  double t_comm_hidden_max = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  /// Execute mode: the gathered final state (global DOF indexing).
  bssn::BssnState state;
  /// Per-rank reports of the FINAL epoch (survivors after recoveries).
  std::vector<RankReport> ranks;

  // ------------------------------------------------- fault tolerance ----
  int checkpoints = 0;       ///< coordinated checkpoints taken (incl. step 0)
  int failures = 0;          ///< rank fail-stops triggered
  int recoveries = 0;        ///< rollback+rebuild cycles performed
  int lost_steps = 0;        ///< steps discarded by rollbacks (re-executed)
  int final_ranks = 0;       ///< live ranks at the end of the run
  double t_failover_max = 0; ///< max per-rank heartbeat-detection stall
  std::uint64_t retransmits = 0;   ///< dropped message attempts resent
  std::uint64_t msgs_delayed = 0;  ///< messages hit by a delay fault
  /// (2, 2) mode series per extraction radius (cfg.extraction_radii);
  /// rolled back in lockstep with the state, so a recovered run's series
  /// is bitwise identical to the fault-free run's.
  std::vector<gw::ModeTimeSeries> waves22;
};

/// Run the N-rank engine on `mesh` starting from `initial`. Execute mode
/// evolves to cfg.t_end exactly as solver::evolve would (same dt logic,
/// same regrid cadence) and returns the gathered state; schedule-only mode
/// runs cfg.schedule_evals overlapped exchanges.
DistResult evolve_distributed(std::shared_ptr<const mesh::Mesh> mesh,
                              const bssn::BssnState& initial,
                              const solver::SolverConfig& scfg,
                              const DistConfig& cfg);

}  // namespace dgr::dist
