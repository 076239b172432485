#include "solver/evolution.hpp"

#include "common/error.hpp"
#include "mesh/sampling.hpp"
#include "obs/obs.hpp"

namespace dgr::solver {

void PunctureTracker::step(const mesh::Mesh& mesh,
                           const bssn::BssnState& state, Real dt) {
  // RK2 (explicit midpoint) on dx/dt = -beta(x): a half step locates the
  // midpoint, whose shift advances the full step. Both samples read the
  // same end-of-step field — the tracker is a diagnostic and the shift
  // varies slowly over one dt, so the spatial midpoint correction is what
  // buys the accuracy order, not the temporal one.
  mesh::PointSampler sampler(mesh);
  const Real* fields[3] = {state.field(bssn::kBeta0),
                           state.field(bssn::kBeta1),
                           state.field(bssn::kBeta2)};
  for (auto& pos : positions_) {
    Real beta[3];
    sampler.evaluate_many(fields, 3, pos[0], pos[1], pos[2], beta);
    Real mid[3];
    for (int a = 0; a < 3; ++a) mid[a] = pos[a] - 0.5 * dt * beta[a];
    sampler.evaluate_many(fields, 3, mid[0], mid[1], mid[2], beta);
    for (int a = 0; a < 3; ++a) pos[a] -= dt * beta[a];
  }
}

EvolutionResult evolve(BssnCtx& ctx, const EvolutionConfig& config,
                       PunctureTracker* tracker,
                       const std::function<void(const BssnCtx&)>& on_step) {
  DGR_CHECK(config.regrid_every > 0 && config.extract_every > 0);
  validate_regrid_config(config.regrid);
  obs::ScopedSpan top("solver::evolve", "solver");
  EvolutionResult result;

  // Per-step observability: step/regrid counters, mesh size gauges and
  // cumulative slow-memory traffic. All of it is a no-op when no
  // MetricsRegistry is installed.
  const auto record_step_metrics = [&](const BssnCtx& ctx) {
    obs::MetricsRegistry* m = obs::metrics();
    if (!m) return;
    m->add("solver.steps");
    m->set("solver.time", ctx.time());
    m->set("solver.octants", double(ctx.mesh().num_octants()));
    m->set("solver.dofs", double(ctx.mesh().num_dofs()));
    m->set("solver.bytes_read", double(ctx.op_counts().bytes_read));
    m->set("solver.bytes_written", double(ctx.op_counts().bytes_written));
  };

  std::optional<gw::WaveExtractor> extractor;
  if (!config.extraction_radii.empty()) {
    extractor.emplace(config.extraction_radii, config.lmax);
    for (Real r : config.extraction_radii) {
      gw::ModeTimeSeries ts;
      ts.l = 2;
      ts.m = 2;
      ts.radius = r;
      result.waves22.push_back(ts);
    }
  }

  // Advance in re-grid windows of f_r steps (Algorithm 1 lines 5-10). A
  // sub-cycled run steps in full cycles of 2^(dmax - dmin) fine substeps.
  // Depths are only time-aligned at cycle boundaries, so the tracker, wave
  // extraction and regrid fire there and nowhere else — a cadence that
  // straddles a cycle would sample mid-cycle state and is rejected. The
  // cycle length can change across a regrid, so cadences are re-validated
  // per window. A global-dt run is the cycle-1 case, stepping up to t_end
  // exactly.
  const Real window_tol = config.subcycle ? 1e-12 : 0.0;
  while (ctx.time() < config.t_end - 1e-12) {
    int cycle = 1;
    if (config.subcycle) {
      cycle = ctx.subcycle_index().cycle();
      DGR_CHECK_MSG(config.regrid_every % cycle == 0,
                    "subcycle: regrid_every=" << config.regrid_every
                                              << " must be a multiple of the "
                                                 "cycle length "
                                              << cycle);
      if (extractor)
        DGR_CHECK_MSG(config.extract_every % cycle == 0,
                      "subcycle: extract_every="
                          << config.extract_every
                          << " must be a multiple of the cycle length "
                          << cycle << " (mid-cycle wave sampling)");
    }
    for (int i = 0; i < config.regrid_every &&
                    ctx.time() < config.t_end - window_tol;) {
      const Real dt = ctx.suggested_dt();
      Real step_dt;
      if (!config.subcycle ||
          config.t_end - ctx.time() < cycle * dt - 1e-12) {
        // A global-dt step; in a sub-cycled run, the tail shorter than one
        // full cycle (every depth stays aligned through it).
        step_dt = std::min(dt, config.t_end - ctx.time());
        obs::ScopedSpan step_span("rk4_step", "solver");
        ctx.rk4_step(step_dt);
        ++result.steps;
        ++i;
      } else {
        step_dt = cycle * dt;
        obs::ScopedSpan cycle_span("subcycle", "solver");
        ctx.subcycle_cycle(dt);
        result.steps += cycle;
        i += cycle;
      }
      record_step_metrics(ctx);
      if (tracker) tracker->step(ctx.mesh(), ctx.state(), step_dt);
      if (extractor && result.steps % config.extract_every == 0) {
        obs::ScopedSpan extract_span("wave-extract", "solver");
        const auto modes = extractor->extract_from_state(
            ctx.mesh(), ctx.state(), ctx.config().bssn);
        for (std::size_t r = 0; r < modes.size(); ++r)
          result.waves22[r].append(ctx.time(), modes[r].mode(2, 2));
      }
      if (on_step) on_step(ctx);
    }
    // Re-grid (Algorithm 1 line 3): the host-side synchronization point.
    if (ctx.time() < config.t_end - 1e-12) {
      obs::ScopedSpan regrid_span("regrid", "solver");
      auto next = regrid_mesh(ctx.mesh(), ctx.state(), config.regrid);
      if (next) {
        ctx.remesh(next);
        ++result.regrids;
        obs::count("solver.regrids");
      }
    }
  }
  if (tracker) result.final_punctures = tracker->positions();
  return result;
}

}  // namespace dgr::solver
