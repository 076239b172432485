#pragma once
/// \file evolution.hpp
/// \brief The full evolution driver of Algorithm 1: advance the state in
/// windows of f_r timesteps, re-grid between windows (the only host<->
/// device synchronization point in the paper's design), track the puncture
/// positions through the shift vector, and record gravitational-wave modes
/// at a configurable cadence.

#include <functional>
#include <optional>

#include "gw/extract.hpp"
#include "solver/bssn_ctx.hpp"
#include "solver/regrid.hpp"

namespace dgr::solver {

/// Punctures move opposite the shift: dx/dt = -beta(x) (moving-puncture
/// gauge). The tracker integrates this with RK2 (explicit midpoint): both
/// shift samples are taken on the end-of-step field, so the update stays a
/// pure diagnostic — state and waveform are untouched by the tracker.
class PunctureTracker {
 public:
  explicit PunctureTracker(std::vector<std::array<Real, 3>> positions)
      : positions_(std::move(positions)) {}

  const std::vector<std::array<Real, 3>>& positions() const {
    return positions_;
  }

  /// Advance all puncture positions by dt using the current shift field.
  void step(const mesh::Mesh& mesh, const bssn::BssnState& state, Real dt);

 private:
  std::vector<std::array<Real, 3>> positions_;
};

struct EvolutionConfig {
  Real t_end = 1.0;
  int regrid_every = 16;    ///< f_r of Algorithm 1
  int extract_every = 16;   ///< wave-extraction cadence (paper: every 16)
  RegridConfig regrid;
  /// Depth-local sub-cycled timestepping (BssnCtx::subcycle_cycle): octants
  /// at depth d advance with dt_d = lambda h_min 2^(dmax - d) instead of
  /// every octant paying the finest dt. Off by default — global-dt runs
  /// are bitwise unchanged. When on, regrid_every (and extract_every, if
  /// extraction is enabled) must be multiples of the cycle length
  /// 2^(dmax - dmin): regrid, puncture tracking and wave extraction only
  /// fire on full-cycle boundaries where all depths are time-aligned, and
  /// mid-cycle sampling is rejected.
  bool subcycle = false;
  /// Extraction sphere radii; empty disables extraction.
  std::vector<Real> extraction_radii;
  int lmax = 2;
};

struct EvolutionResult {
  int steps = 0;
  int regrids = 0;
  /// (l=2, m=2) mode series per extraction radius.
  std::vector<gw::ModeTimeSeries> waves22;
  std::vector<std::array<Real, 3>> final_punctures;
};

/// Run Algorithm 1 on an initialized context. `on_step` (optional) is
/// called after every accepted step with (ctx, tracker).
EvolutionResult evolve(
    BssnCtx& ctx, const EvolutionConfig& config, PunctureTracker* tracker,
    const std::function<void(const BssnCtx&)>& on_step = nullptr);

}  // namespace dgr::solver
