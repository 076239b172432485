/// \file solver_workloads.cpp
/// \brief The three solver workloads (bbh_global, bbh_adaptive, dist_4rank).
///
/// Untraced runs time the library's own drivers (solver::evolve and
/// dist::evolve_distributed) end to end. Traced runs re-compose the same
/// evolution from the public calls of each layer — the exec_space sweeps,
/// the regrid pieces, the Psi4 and sphere calls, the RankCtx exchange and
/// compute calls — and time every call from here, so nothing inside the
/// library is instrumented. The composition is checked to be bitwise equal
/// to the library drivers before its numbers are reported.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bssn/constraints.hpp"
#include "bssn/initial_data.hpp"
#include "comm/partition.hpp"
#include "common/rng.hpp"
#include "dist/engine.hpp"
#include "dist/rank_ctx.hpp"
#include "dist/sim_comm.hpp"
#include "exec/pool.hpp"
#include "exec_space/bssn_sweeps.hpp"
#include "gw/extract.hpp"
#include "gw/psi4.hpp"
#include "mesh/subcycle_index.hpp"
#include "octree/refinement.hpp"
#include "perf/network.hpp"
#include "solver/evolution.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dgr;
using bssn::BssnState;
using bssn::kNumVars;
using exec_space::ExecSpace;
using solver::OctRange;

// ------------------------------------------------------------ workloads --

struct SolverSpec {
  Real half = 16, sep = 2;
  int base = 2, finest = 3;
  Real cascade = 0.75;  ///< build_puncture_octree cascade radius factor
  bool subcycle = false;
  int ranks = 0;  ///< > 0: run through dist::evolve_distributed
  int steps = 8;  ///< global-dt-equivalent steps to t_end
  int regrid_every = 4, extract_every = 4;
  std::vector<Real> radii;
  Real eps = 1e-3, coarsen = 0.05;
  int min_level = 2, max_level = 3;
};

SolverSpec spec_of(const std::string& name) {
  SolverSpec s;
  if (name == "bbh_global" || name == "dist_4rank") {
    s.half = 16;
    s.base = 2;
    s.finest = 3;
    s.steps = 8;
    s.regrid_every = 4;
    s.extract_every = 4;
    s.radii = {6.0};
    s.eps = 1e-3;
    s.min_level = 2;
    s.max_level = 3;
    if (name == "dist_4rank") s.ranks = 4;
  } else if (name == "bbh_adaptive") {
    // Two depths (cycle of 2 fine steps); this eps/coarsen pair makes the
    // mesh alternate between 120 and 176 octants at every regrid.
    s.half = 16;
    s.base = 2;
    s.finest = 3;
    s.subcycle = true;
    s.steps = 6;
    s.regrid_every = 2;
    s.extract_every = 2;
    s.radii = {4.0, 6.0, 8.0};
    s.eps = 3e-4;
    s.coarsen = 0.5;
    s.min_level = 2;
    s.max_level = 3;
  } else {
    throw std::runtime_error("unknown workload " + name);
  }
  return s;
}

/// The seeded inputs of one run: an equal-mass binary whose punctures sit
/// off the grid lines by a seed-dependent jitter.
std::vector<bssn::PunctureData> punctures_for(const SolverSpec& s,
                                              std::uint64_t seed) {
  auto bhs = bssn::make_binary(1.0, s.sep);
  Rng rng(0x5EED0000ULL ^ seed);
  for (auto& b : bhs) {
    b.pos[1] = 0.011 + rng.uniform(-2e-3, 2e-3);
    b.pos[2] = 0.007 + rng.uniform(-2e-3, 2e-3);
  }
  return bhs;
}

struct Setup {
  std::shared_ptr<mesh::Mesh> mesh;
  BssnState initial;
};

/// Mesh build plus initial data; `tr` splits the two when tracing.
Setup make_setup(const SolverSpec& s,
                 const std::vector<bssn::PunctureData>& bhs, Tracer* tr) {
  Setup out;
  traced(tr, "mesh.build", [&] {
    std::vector<oct::Puncture> ps;
    for (const auto& b : bhs) ps.push_back({b.pos, s.finest});
    const oct::Domain dom{s.half};
    out.mesh = std::make_shared<mesh::Mesh>(
        oct::build_puncture_octree(dom, ps, s.base, s.cascade), dom);
  });
  traced(tr, "bssn.initdata", [&] {
    out.initial.resize(out.mesh->num_dofs());
    bssn::set_punctures(*out.mesh, bhs, out.initial);
  });
  return out;
}

solver::EvolutionConfig evolution_config(const SolverSpec& s, Real dt) {
  solver::EvolutionConfig e;
  e.t_end = s.steps * dt;
  e.regrid_every = s.regrid_every;
  e.extract_every = s.extract_every;
  e.regrid.eps = s.eps;
  e.regrid.coarsen_factor = s.coarsen;
  e.regrid.min_level = s.min_level;
  e.regrid.max_level = s.max_level;
  e.subcycle = s.subcycle;
  e.extraction_radii = s.radii;
  e.lmax = 2;
  return e;
}

std::uint64_t digest(const BssnState& u,
                     const std::vector<gw::ModeTimeSeries>& waves) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (int v = 0; v < kNumVars; ++v)
    h = fnv1a(u.field(v), u.num_dofs() * sizeof(Real), h);
  for (const auto& w : waves) {
    h = fnv1a(w.times.data(), w.times.size() * sizeof(Real), h);
    h = fnv1a(w.values.data(), w.values.size() * sizeof(gw::Complex), h);
  }
  return h;
}

bool all_finite(const BssnState& u) {
  for (int v = 0; v < kNumVars; ++v)
    for (std::size_t d = 0; d < u.num_dofs(); ++d)
      if (!std::isfinite(u.field(v)[d])) return false;
  return true;
}

// --------------------------------------------------- untraced evolution --

struct JobOutcome {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t oct_steps = 0;  ///< octants summed over global-dt steps
  std::vector<double> step_s;   ///< wall time between on_step calls
  std::uint64_t digest = 0;
  int steps = 0, regrids = 0;
  bool finite = false;
  bssn::ConstraintNorms norms;
  std::size_t final_octants = 0;
  // dist only
  std::uint64_t messages = 0, bytes = 0;
  double t_comm_exposed = 0;
};

JobOutcome run_single_rank(const SolverSpec& s, const Setup& su,
                           const solver::SolverConfig& scfg,
                           bool want_norms) {
  solver::BssnCtx ctx(su.mesh, scfg);
  ctx.state() = su.initial;
  const auto ecfg = evolution_config(s, ctx.suggested_dt());
  JobOutcome o;
  std::size_t last_steps = 0;
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  double t_prev = t0;
  const auto res = solver::evolve(ctx, ecfg, nullptr,
                                  [&](const solver::BssnCtx& c) {
                                    const double t = now_s();
                                    o.step_s.push_back(t - t_prev);
                                    t_prev = t;
                                    o.oct_steps +=
                                        (c.steps_taken() - last_steps) *
                                        c.mesh().num_octants();
                                    last_steps = c.steps_taken();
                                  });
  o.wall_s = now_s() - t0;
  o.cpu_s = process_cpu_s() - cpu0;
  o.steps = res.steps;
  o.regrids = res.regrids;
  o.digest = digest(ctx.state(), res.waves22);
  o.finite = all_finite(ctx.state());
  o.final_octants = ctx.mesh().num_octants();
  if (want_norms) o.norms = ctx.constraint_norms();
  return o;
}

dist::DistConfig dist_config(const SolverSpec& s, Real dt) {
  const auto e = evolution_config(s, dt);
  dist::DistConfig d;
  d.ranks = s.ranks;
  d.t_end = e.t_end;
  d.regrid_every = e.regrid_every;
  d.regrid = e.regrid;
  d.do_regrid = true;
  d.execute = true;
  d.extraction_radii = e.extraction_radii;
  d.extract_every = e.extract_every;
  d.lmax = e.lmax;
  return d;
}

JobOutcome run_dist(const SolverSpec& s, const Setup& su,
                    const solver::SolverConfig& scfg) {
  const Real dt = scfg.cfl * su.mesh->finest_spacing();
  JobOutcome o;
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  const auto res =
      dist::evolve_distributed(su.mesh, su.initial, scfg, dist_config(s, dt));
  o.wall_s = now_s() - t0;
  o.cpu_s = process_cpu_s() - cpu0;
  o.steps = res.steps;
  o.regrids = res.regrids;
  // No per-step hook: every step of a job is charged its mean.
  for (int i = 0; i < res.steps; ++i)
    o.step_s.push_back(o.wall_s / std::max(1, res.steps));
  o.digest = digest(res.state, res.waves22);
  o.finite = all_finite(res.state);
  o.messages = res.messages;
  o.bytes = res.bytes;
  o.t_comm_exposed = res.t_comm_exposed_max;
  return o;
}

// ------------------------------------------------- composed evolution --

/// solver::evolve re-composed from public calls, every call in a span.
class Composed {
 public:
  Composed(std::shared_ptr<mesh::Mesh> mesh, solver::SolverConfig cfg,
           const BssnState& initial, Tracer* tr)
      : mesh_(std::move(mesh)),
        cfg_(cfg),
        space_(ExecSpace::host()),
        tr_(tr) {
    space_.set_vector_policy({cfg_.simd_width});
    const std::size_t cap = std::size_t(cfg_.chunk_octants) * kNumVars *
                            mesh::kPatchPts;
    patch_in_.resize(cap);
    patch_out_.resize(cap);
    state_ = initial;
    resize_stages();
  }

  const mesh::Mesh& mesh() const { return *mesh_; }
  const BssnState& state() const { return state_; }
  Real suggested_dt() const { return cfg_.cfl * mesh_->finest_spacing(); }
  std::uint64_t cycle_evals = 0, global_evals = 0;
  int regrids_changed = 0;

  void compute(const BssnState& u, BssnState& rhs,
               const std::vector<OctRange>& runs) {
    const auto in = u.cptrs();
    const auto out = rhs.ptrs();
    if (static_cast<int>(ws_.size()) < space_.max_lanes())
      ws_.resize(space_.max_lanes());
    const exec_space::RhsDispatch d{&cfg_.bssn, nullptr, &ws_, &fws_};
    for (const auto& run : runs)
      for (OctIndex b = run.first; b < run.second; b += cfg_.chunk_octants) {
        const OctIndex e = std::min<OctIndex>(b + cfg_.chunk_octants,
                                              run.second);
        traced(tr_, "exec_space.unzip", [&] {
          exec_space::sweep_octant_to_patch(space_, *mesh_, in.data(), b, e,
                                            patch_in_.data(),
                                            cfg_.unzip_method, nullptr);
        });
        traced(tr_, "exec_space.rhs", [&] {
          exec_space::sweep_rhs(space_, *mesh_, d, b, e, patch_in_.data(),
                                patch_out_.data(), nullptr);
        });
        traced(tr_, "exec_space.zip", [&] {
          exec_space::sweep_patch_to_octant(space_, *mesh_, patch_out_.data(),
                                            b, e, out.data(), nullptr);
        });
      }
  }

  void compute_full(const BssnState& u, BssnState& rhs) {
    compute(u, rhs, {{0, static_cast<OctIndex>(mesh_->num_octants())}});
  }

  void axpy(BssnState& y, Real s, const BssnState& x, const BssnState* base) {
    traced(tr_, "exec_space.axpy", [&] {
      exec_space::sweep_rk4_axpy(space_, y, s, x, base, nullptr);
    });
  }

  /// The arithmetic of solver::BssnCtx::rk4_step.
  void rk4_step(Real dt) {
    compute_full(state_, k_[0]);
    axpy(stage_, 0.5 * dt, k_[0], &state_);
    compute_full(stage_, k_[1]);
    axpy(stage_, 0.5 * dt, k_[1], &state_);
    compute_full(stage_, k_[2]);
    axpy(stage_, dt, k_[2], &state_);
    compute_full(stage_, k_[3]);
    axpy(state_, dt / 6.0, k_[0], nullptr);
    axpy(state_, dt / 3.0, k_[1], nullptr);
    axpy(state_, dt / 3.0, k_[2], nullptr);
    axpy(state_, dt / 6.0, k_[3], nullptr);
    time_ += dt;
    dense_ready_ = false;
  }

  const mesh::SubcycleIndex& subcycle_index() {
    if (!subidx_)
      subidx_ = std::make_unique<mesh::SubcycleIndex>(
          mesh::SubcycleIndex::build(*mesh_));
    return *subidx_;
  }

  /// The arithmetic of solver::BssnCtx::subcycle_cycle.
  void subcycle_cycle(Real fine_dt) {
    const mesh::SubcycleIndex& idx = subcycle_index();
    if (!idx.uniform() && !dense_ready_) {
      const std::size_t nd = mesh_->num_dofs();
      dense_u0_.resize(nd);
      dense_k1_.resize(nd);
      dense_t0_.assign(std::size_t(idx.depths()), time_);
      dense_mode_.assign(std::size_t(idx.depths()),
                         exec_space::kDenseModeLinear);
      compute_full(state_, dense_k1_);
      traced(tr_, "solver.subcycle_fill", [&] {
        exec_space::sweep_dense_save_all(space_, state_, dense_u0_, nullptr);
      });
      dense_ready_ = true;
    }
    cycle_evals += idx.cycle_octant_evals();
    global_evals += idx.global_octant_evals();
    const exec_space::SubcycleState st{&state_,    &stage_,    k_,
                                       &dense_u0_, &dense_k1_, &dense_t0_,
                                       &dense_mode_};
    double fill_t0 = 0;
    for (int sub = 0; sub < idx.cycle(); ++sub) {
      for (int d = idx.active_cutoff(sub); d <= idx.dmax; ++d)
        traced(tr_, "solver.subcycle_step", [&] {
          exec_space::subcycle_step_depth(
              space_, idx, d, fine_dt, time_, st,
              [&](const BssnState& u, BssnState& k,
                  const std::vector<OctRange>& runs) {
                traced(tr_, "solver.subcycle_rhs",
                       [&] { compute(u, k, runs); });
              },
              nullptr, [&] { fill_t0 = now_s(); },
              [&] {
                if (tr_) tr_->record("solver.subcycle_fill", now_s() - fill_t0);
              });
        });
      time_ += fine_dt;
    }
  }

  /// regrid_mesh + BssnCtx::remesh, split into estimate / remesh /
  /// transfer. Returns whether the mesh changed.
  bool regrid(const solver::RegridConfig& rcfg) {
    std::vector<oct::RemeshFlag> flags;
    traced(tr_, "solver.regrid_estimate", [&] {
      const auto err = solver::compute_octant_errors(*mesh_, state_, rcfg);
      flags = solver::flags_from_errors(*mesh_, err, rcfg);
    });
    bool any = false;
    for (auto f : flags)
      if (f != oct::RemeshFlag::kKeep) any = true;
    if (!any) return false;
    std::shared_ptr<mesh::Mesh> next;
    traced(tr_, "solver.regrid_remesh", [&] {
      oct::Octree t = mesh_->tree().remesh(flags);
      if (!(t == mesh_->tree()))
        next = std::make_shared<mesh::Mesh>(std::move(t), mesh_->domain());
    });
    if (!next) return false;
    BssnState moved;
    traced(tr_, "solver.transfer",
           [&] { moved = solver::transfer_state(*mesh_, state_, *next); });
    mesh_ = std::move(next);
    state_ = std::move(moved);
    resize_stages();
    subidx_.reset();
    dense_ready_ = false;
    ++regrids_changed;
    return true;
  }

  std::vector<gw::SphereModes> extract(const gw::WaveExtractor& ex) {
    std::vector<Real> re(mesh_->num_dofs()), im(mesh_->num_dofs());
    traced(tr_, "gw.psi4", [&] {
      gw::compute_psi4_field(*mesh_, state_, cfg_.bssn, re.data(), im.data());
    });
    std::vector<gw::SphereModes> modes;
    traced(tr_, "gw.sphere",
           [&] { modes = ex.extract(*mesh_, re.data(), im.data()); });
    return modes;
  }

  /// The control flow of solver::evolve (no tracker, no metrics).
  solver::EvolutionResult evolve(const solver::EvolutionConfig& config,
                                 const std::function<void()>& on_step) {
    solver::EvolutionResult result;
    std::optional<gw::WaveExtractor> extractor;
    if (!config.extraction_radii.empty()) {
      extractor.emplace(config.extraction_radii, config.lmax);
      for (Real r : config.extraction_radii) {
        gw::ModeTimeSeries ts;
        ts.radius = r;
        result.waves22.push_back(ts);
      }
    }
    const auto record = [&] {
      if (extractor && result.steps % config.extract_every == 0) {
        const auto modes = extract(*extractor);
        for (std::size_t r = 0; r < modes.size(); ++r)
          result.waves22[r].append(time_, modes[r].mode(2, 2));
      }
      on_step();
    };
    const auto window_regrid = [&] {
      if (time_ < config.t_end - 1e-12 && regrid(config.regrid))
        ++result.regrids;
    };
    if (!config.subcycle) {
      while (time_ < config.t_end - 1e-12) {
        for (int i = 0; i < config.regrid_every && time_ < config.t_end;
             ++i) {
          const Real dt = std::min(suggested_dt(), config.t_end - time_);
          rk4_step(dt);
          ++result.steps;
          record();
        }
        window_regrid();
      }
      return result;
    }
    while (time_ < config.t_end - 1e-12) {
      const int cycle = subcycle_index().cycle();
      if (config.regrid_every % cycle != 0 ||
          (extractor && config.extract_every % cycle != 0))
        throw std::runtime_error("cadence not a multiple of the cycle");
      for (int i = 0; i < config.regrid_every && time_ < config.t_end - 1e-12;) {
        const Real dt = suggested_dt();
        if (config.t_end - time_ < cycle * dt - 1e-12) {
          rk4_step(std::min(dt, config.t_end - time_));
          ++result.steps;
          ++i;
        } else {
          subcycle_cycle(dt);
          result.steps += cycle;
          i += cycle;
        }
        record();
      }
      window_regrid();
    }
    return result;
  }

 private:
  void resize_stages() {
    for (auto& k : k_) k.resize(mesh_->num_dofs());
    stage_.resize(mesh_->num_dofs());
  }

  std::shared_ptr<mesh::Mesh> mesh_;
  solver::SolverConfig cfg_;
  ExecSpace space_;
  Tracer* tr_;
  BssnState state_, k_[4], stage_;
  std::vector<Real> patch_in_, patch_out_;
  std::vector<bssn::DerivWorkspace> ws_;
  std::vector<codegen::FusedWorkspace> fws_;
  Real time_ = 0;
  std::unique_ptr<mesh::SubcycleIndex> subidx_;
  BssnState dense_u0_, dense_k1_;
  std::vector<Real> dense_t0_;
  std::vector<std::uint8_t> dense_mode_;
  bool dense_ready_ = false;
};

bool bitwise_equal(const BssnState& a, const BssnState& b) {
  if (a.num_dofs() != b.num_dofs()) return false;
  for (int v = 0; v < kNumVars; ++v)
    if (std::memcmp(a.field(v), b.field(v), a.num_dofs() * sizeof(Real)) != 0)
      return false;
  return true;
}

// ------------------------------------------------------------- replays --

/// Serial per-patch replay of the two RHS stages over every octant.
void bssn_replay(const mesh::Mesh& m, const BssnState& u,
                 const bssn::BssnParams& prm, Result& r) {
  const int chunk = 32;
  std::vector<Real> pin(std::size_t(chunk) * kNumVars * mesh::kPatchPts);
  std::vector<Real> pout(pin.size());
  bssn::DerivWorkspace ws;
  OpCounts counts;
  double t_deriv = 0, t_alg = 0;
  const auto fields = u.cptrs();
  const OctIndex n = static_cast<OctIndex>(m.num_octants());
  for (OctIndex b = 0; b < n; b += chunk) {
    const OctIndex e = std::min<OctIndex>(b + chunk, n);
    m.unzip(fields.data(), kNumVars, b, e, pin.data());
    for (OctIndex o = b; o < e; ++o) {
      const Real* in[kNumVars];
      Real* out[kNumVars];
      for (int v = 0; v < kNumVars; ++v) {
        const std::size_t off =
            exec_space::patch_offset(o - b, v, kNumVars, mesh::kPatchPts);
        in[v] = pin.data() + off;
        out[v] = pout.data() + off;
      }
      const auto g = m.patch_geom(o);
      double t0 = now_s();
      bssn::bssn_deriv_stage(in, g.h, ws, &counts);
      const double t1 = now_s();
      bssn::bssn_algebraic_stage(in, out, g, m.domain().half_extent, prm, ws,
                                 &counts);
      t_deriv += t1 - t0;
      t_alg += now_s() - t1;
    }
  }
  const double nocts = double(n);
  r.metrics["bssn.deriv_us_per_oct"] = t_deriv * 1e6 / nocts;
  r.metrics["bssn.algebra_us_per_oct"] = t_alg * 1e6 / nocts;
  r.metrics["bssn.flops_per_oct"] = double(counts.flops) / nocts;
  r.metrics["bssn.bytes_per_oct"] = double(counts.bytes_moved()) / nocts;
  r.metrics["bssn.gflops"] = double(counts.flops) / (t_deriv + t_alg) / 1e9;
}

/// The rank contexts evolve_distributed builds: partition, exchange maps,
/// one RankCtx per rank holding its owned part of the initial state.
std::vector<std::unique_ptr<dist::RankCtx>> make_ranks(
    const SolverSpec& s, const Setup& su, const solver::SolverConfig& scfg) {
  const auto part = comm::partition_mesh(*su.mesh, s.ranks);
  auto maps = comm::build_exchange_maps(*su.mesh, part);
  std::vector<std::unique_ptr<dist::RankCtx>> ranks;
  for (int k = 0; k < s.ranks; ++k) {
    ranks.push_back(std::make_unique<dist::RankCtx>(
        k, su.mesh, part, std::move(maps[k]), scfg, true));
    ranks.back()->adopt_owned(su.initial);
  }
  return ranks;
}

/// Replay of the distributed RHS evaluation from RankCtx's public calls:
/// post -> interior -> finish -> boundary, per rank, `evals` times. Checks
/// the ranks' owned RHS values against the single-rank pipeline.
void dist_replay(const SolverSpec& s, const Setup& su,
                 const solver::SolverConfig& scfg, int evals, Result& r) {
  Tracer tr;
  auto ranks = make_ranks(s, su, scfg);
  dist::SimComm comm(s.ranks, perf::gpu_cluster());
  const double t0 = now_s();
  for (int e = 0; e < evals; ++e) {
    for (auto& rc : ranks)
      tr.span("dist.post_exchange",
              [&] { rc->post_exchange(comm, rc->state(), e); });
    for (auto& rc : ranks)
      tr.span("dist.rhs_interior",
              [&] { rc->compute_rhs_interior(rc->state(), rc->k(0)); });
    for (auto& rc : ranks)
      tr.span("dist.finish_exchange",
              [&] { rc->finish_exchange(comm, rc->state()); });
    for (auto& rc : ranks)
      tr.span("dist.rhs_boundary",
              [&] { rc->compute_rhs_boundary(rc->state(), rc->k(0)); });
  }
  const double wall = now_s() - t0;
  for (const char* l : {"dist.post_exchange", "dist.finish_exchange",
                        "dist.rhs_interior", "dist.rhs_boundary"})
    r.metrics[std::string(l) + "_ms"] = tr.self_s(l) * 1e3 / evals;
  r.metrics["trace.closure"] = tr.total_self_s() / wall;
  r.check(r.metrics["trace.closure"] >= 0.95,
          "layer self times cover under 95% of the traced replay");

  solver::BssnCtx ref(su.mesh, scfg);
  BssnState k(su.mesh->num_dofs());
  ref.compute_rhs(su.initial, k);
  bool same = true;
  for (auto& rc : ranks)
    for (int v = 0; v < kNumVars; ++v)
      for (DofIndex d : rc->owned_dofs())
        same = same && std::memcmp(&rc->k(0).field(v)[d], &k.field(v)[d],
                                   sizeof(Real)) == 0;
  r.check(same, "dist replay RHS differs from the single-rank pipeline");
}

// ---------------------------------------------------------------- runs --

constexpr int kSetupReps = 7;

void report_info(const JobOutcome& o, const Setup& su, Result& r) {
  r.info["octants_initial"] = double(su.mesh->num_octants());
  r.info["dofs_initial"] = double(su.mesh->num_dofs());
  r.info["octants_final"] = double(o.final_octants);
  r.info["steps"] = o.steps;
  r.info["regrids"] = o.regrids;
}

void untraced_run(const SolverSpec& s, const Args& a, Result& r) {
  const auto bhs = punctures_for(s, a.seed);
  const solver::SolverConfig scfg;
  Samples setup;
  Setup su;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    su = make_setup(s, bhs, nullptr);
    // dist::evolve_distributed builds its rank contexts itself, so for
    // dist_4rank that construction is part of the timed job.
    if (s.ranks == 0) {
      solver::BssnCtx ctx(su.mesh, scfg);
      ctx.state() = su.initial;
    }
    setup.add(now_s() - t0);
  }

  Samples job_s, step_ms, unit_us, util;
  std::vector<std::uint64_t> digests;
  JobOutcome last;
  const double t_begin = now_s();
  while (job_s.size() < 2 || now_s() - t_begin < a.seconds) {
    last = s.ranks > 0 ? run_dist(s, su, scfg)
                       : run_single_rank(s, su, scfg, false);
    job_s.add(last.wall_s);
    std::printf("  job %zu: %.4f s\n", job_s.size(), last.wall_s);
    for (double x : last.step_s) step_ms.add(x * 1e3);
    if (last.oct_steps > 0) unit_us.add(last.wall_s * 1e6 / last.oct_steps);
    util.add(last.cpu_s / (last.wall_s * kLanes));
    digests.push_back(last.digest);
    r.check(last.finite, "non-finite final state");
  }
  for (std::size_t i = 1; i < digests.size(); ++i)
    r.check(digests[i] == digests[0], "final digest differs across repeats");

  // One lane, through the single-rank driver: must reproduce the digest
  // bitwise (for dist_4rank this is also the N-rank == 1-rank contract),
  // and yields the constraint norms checked against the references.
  exec::ThreadPool::set_global_threads(1);
  const JobOutcome one = run_single_rank(s, su, scfg, true);
  exec::ThreadPool::set_global_threads(kLanes);
  r.check(one.digest == digests[0],
          "digest differs between 1 lane / 1 rank and the measured run");
  r.check(one.finite, "non-finite final state at 1 lane");
  if (s.ranks > 0) unit_us.add(job_s.median() * 1e6 / one.oct_steps);
  r.checks["ham_l2"] = one.norms.ham_l2;
  r.checks["mom_l2"] = one.norms.mom_l2;
  r.checks["regrids"] = one.regrids;

  r.metrics["setup_s"] = setup.median();
  r.metrics["job_s"] = job_s.median();
  r.metrics["op_ms_p50"] = step_ms.median();
  r.metrics["op_ms_tail"] = step_ms.tail();
  r.metrics["unit_cost_us"] = unit_us.median();
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  r.info["op_tail_beyond"] = step_ms.tail_beyond();
  r.info["op_samples"] = double(step_ms.size());
  r.info["jobs"] = double(job_s.size());
  r.info["exec.cpu_util"] = util.median();
  r.info["digest_low32"] = double(digests[0] & 0xffffffffu);
  report_info(one, su, r);
  if (s.ranks > 0) {
    r.info["comm.messages"] = double(last.messages);
    r.info["comm.bytes"] = double(last.bytes);
  }
}

void traced_run(const SolverSpec& s, const Args& a, Result& r) {
  for (const auto& n : per_layer_names()) r.metrics[n] = 0.0;
  const auto bhs = punctures_for(s, a.seed);
  const solver::SolverConfig scfg;

  Tracer setup_tr;
  Setup su;
  for (int rep = 0; rep < kSetupReps; ++rep)
    su = make_setup(s, bhs, &setup_tr);
  r.metrics["mesh.build_ms"] = setup_tr.self_s("mesh.build") * 1e3 / kSetupReps;
  r.metrics["bssn.initdata_ms"] =
      setup_tr.self_s("bssn.initdata") * 1e3 / kSetupReps;

  if (s.ranks > 0) {
    const JobOutcome ref = run_dist(s, su, scfg);
    r.metrics["exec.cpu_util"] = ref.cpu_s / (ref.wall_s * kLanes);
    const double steps = std::max(1, ref.steps);
    r.metrics["comm.msgs_per_step"] = double(ref.messages) / steps;
    r.metrics["comm.bytes_per_step"] = double(ref.bytes) / steps;
    r.metrics["dist.t_comm_exposed_us"] = ref.t_comm_exposed * 1e6 / steps;
    dist_replay(s, su, scfg, 4, r);
    bssn_replay(*su.mesh, su.initial, scfg.bssn, r);
    return;
  }

  // Faithfulness: one composed RK4 step and one composed regrid from the
  // same state as the library calls.
  {
    solver::BssnCtx ctx(su.mesh, scfg);
    ctx.state() = su.initial;
    Composed c(su.mesh, scfg, su.initial, nullptr);
    const Real dt = ctx.suggested_dt();
    ctx.rk4_step(dt);
    c.rk4_step(dt);
    r.check(bitwise_equal(ctx.state(), c.state()),
            "composed RK4 step differs from BssnCtx::rk4_step");
    solver::RegridConfig rc = evolution_config(s, dt).regrid;
    auto next = solver::regrid_mesh(ctx.mesh(), ctx.state(), rc);
    if (next) ctx.remesh(next);
    const bool changed = c.regrid(rc);
    r.check(changed == (next != nullptr) &&
                ctx.mesh().tree() == c.mesh().tree() &&
                bitwise_equal(ctx.state(), c.state()),
            "composed regrid differs from regrid_mesh + remesh");
  }

  // Untraced reference job (after the warm-up above): the digest and the
  // wall time the traced composition is compared with.
  const JobOutcome ref = run_single_rank(s, su, scfg, false);
  r.metrics["exec.cpu_util"] = ref.cpu_s / (ref.wall_s * kLanes);

  Tracer tr;
  Composed c(su.mesh, scfg, su.initial, &tr);
  const auto ecfg = evolution_config(s, c.suggested_dt());
  const double t0 = now_s();
  const auto res = c.evolve(ecfg, [] {});
  const double wall = now_s() - t0;
  r.check(digest(c.state(), res.waves22) == ref.digest,
          "traced composed evolution differs from solver::evolve");
  const double closure = tr.total_self_s() / wall;
  r.check(closure >= 0.95, "layer self times cover under 95% of traced wall");

  const double steps = std::max(1, res.steps);
  for (const char* l : {"exec_space.unzip", "exec_space.rhs", "exec_space.zip",
                        "exec_space.axpy", "solver.subcycle_fill"})
    r.metrics[std::string(l) + "_ms"] = tr.self_s(l) * 1e3 / steps;
  r.metrics["solver.subcycle_rhs_ms"] =
      tr.incl_s("solver.subcycle_rhs") * 1e3 / steps;
  const auto per_call = [&](const char* l) {
    const long n = tr.calls(l);
    return n ? tr.self_s(l) * 1e3 / double(n) : 0.0;
  };
  r.metrics["solver.regrid_estimate_ms"] = per_call("solver.regrid_estimate");
  r.metrics["solver.regrid_remesh_ms"] = per_call("solver.regrid_remesh");
  r.metrics["solver.transfer_ms"] = per_call("solver.transfer");
  r.metrics["solver.regrids_changed"] = c.regrids_changed;
  r.metrics["solver.subcycle_work_ratio"] =
      c.cycle_evals ? double(c.global_evals) / double(c.cycle_evals) : 1.0;
  r.metrics["gw.psi4_ms"] = per_call("gw.psi4");
  r.metrics["gw.sphere_ms"] = per_call("gw.sphere");
  r.metrics["trace.closure"] = closure;
  r.metrics["trace.overhead_s"] = wall - ref.wall_s;
  bssn_replay(c.mesh(), c.state(), scfg.bssn, r);
  r.info["traced_job_s"] = wall;
  r.info["untraced_job_s"] = ref.wall_s;
}

}  // namespace

bool is_solver_workload(const std::string& name) {
  return name == "bbh_global" || name == "bbh_adaptive" ||
         name == "dist_4rank";
}

void run_solver_workload(const Args& a, Result& r) {
  exec::ThreadPool::set_global_threads(kLanes);
  const SolverSpec s = spec_of(a.workload);
  const double calib = calib_ms();
  if (a.trace) {
    traced_run(s, a, r);
    r.metrics["host.calib_ms"] = calib;
  } else {
    untraced_run(s, a, r);
    r.info["host.calib_ms"] = calib;
  }
}

}  // namespace perfbench
