#include "solver/regrid.hpp"

#include <cmath>

#include "common/error.hpp"
#include "mesh/interp.hpp"
#include "mesh/patch.hpp"
#include "obs/obs.hpp"

namespace dgr::solver {

using mesh::kOctPts;
using mesh::kR;
using mesh::oct_idx;

namespace {

/// Cubic Lagrange weights of the 4 coarse skeleton nodes {0,2,4,6} at fine
/// position t (grid index units 0..6).
void skeleton_weights(Real t, Real w[4]) {
  const Real nodes[4] = {0, 2, 4, 6};
  for (int m = 0; m < 4; ++m) {
    Real num = 1, den = 1;
    for (int j = 0; j < 4; ++j) {
      if (j == m) continue;
      num *= (t - nodes[j]);
      den *= (nodes[m] - nodes[j]);
    }
    w[m] = num / den;
  }
}

}  // namespace

void validate_regrid_config(const RegridConfig& cfg) {
  for (int v : cfg.vars)
    DGR_CHECK_MSG(v >= 0 && v < bssn::kNumVars,
                  "regrid: var " << v << " is not a BSSN field index");
  const auto finite_nonneg = [](Real x) { return std::isfinite(x) && x >= 0; };
  DGR_CHECK_MSG(finite_nonneg(cfg.eps),
                "regrid: eps must be finite and >= 0, got " << cfg.eps);
  DGR_CHECK_MSG(finite_nonneg(cfg.coarsen_factor),
                "regrid: coarsen_factor must be finite and >= 0, got "
                    << cfg.coarsen_factor);
  DGR_CHECK_MSG(0 <= cfg.min_level && cfg.min_level <= cfg.max_level &&
                    cfg.max_level <= oct::kMaxDepth,
                "regrid: levels must satisfy 0 <= min_level <= max_level <= "
                    << oct::kMaxDepth << ", got " << cfg.min_level << " and "
                    << cfg.max_level);
}

Real octant_detail(const Real* u) {
  // Precompute the 7x4 prolongation rows once.
  static const auto rows = [] {
    std::array<std::array<Real, 4>, kR> r{};
    for (int t = 0; t < kR; ++t) skeleton_weights(Real(t), r[t].data());
    return r;
  }();
  Real detail = 0;
  for (int k = 0; k < kR; ++k)
    for (int j = 0; j < kR; ++j)
      for (int i = 0; i < kR; ++i) {
        if (i % 2 == 0 && j % 2 == 0 && k % 2 == 0) continue;  // skeleton
        Real s = 0;
        for (int kk = 0; kk < 4; ++kk) {
          const Real wz = rows[k][kk];
          if (wz == 0) continue;
          for (int jj = 0; jj < 4; ++jj) {
            const Real wy = rows[j][jj];
            if (wy == 0) continue;
            for (int ii = 0; ii < 4; ++ii) {
              const Real wx = rows[i][ii];
              if (wx == 0) continue;
              s += wx * wy * wz * u[oct_idx(2 * ii, 2 * jj, 2 * kk)];
            }
          }
        }
        detail = std::max(detail, std::abs(u[oct_idx(i, j, k)] - s));
      }
  return detail;
}

std::vector<Real> compute_octant_errors(const mesh::Mesh& mesh,
                                        const bssn::BssnState& state,
                                        const RegridConfig& cfg) {
  const std::size_t n = mesh.num_octants();
  std::vector<Real> err(n, 0.0);
  Real u[kOctPts];
  for (OctIndex e = 0; e < static_cast<OctIndex>(n); ++e) {
    Real m = 0;
    for (int v : cfg.vars) {
      mesh.load_octant(state.field(v), e, u);
      m = std::max(m, octant_detail(u));
    }
    err[e] = m;
  }
  return err;
}

std::vector<oct::RemeshFlag> flags_from_errors(const mesh::Mesh& mesh,
                                               const std::vector<Real>& err,
                                               const RegridConfig& cfg) {
  DGR_CHECK(err.size() == mesh.num_octants());
  std::vector<oct::RemeshFlag> flags(err.size(), oct::RemeshFlag::kKeep);
  for (std::size_t e = 0; e < err.size(); ++e) {
    const int level = mesh.tree().leaf(static_cast<OctIndex>(e)).level;
    if (err[e] > cfg.eps && level < cfg.max_level)
      flags[e] = oct::RemeshFlag::kRefine;
    else if (err[e] < cfg.eps * cfg.coarsen_factor && level > cfg.min_level)
      flags[e] = oct::RemeshFlag::kCoarsen;
  }
  return flags;
}

std::shared_ptr<mesh::Mesh> regrid_mesh(const mesh::Mesh& mesh,
                                        const bssn::BssnState& state,
                                        const RegridConfig& cfg) {
  validate_regrid_config(cfg);
  obs::ScopedSpan span("regrid_mesh", "solver");
  const auto err = compute_octant_errors(mesh, state, cfg);
  const auto flags = flags_from_errors(mesh, err, cfg);
  bool any = false;
  for (auto f : flags)
    if (f != oct::RemeshFlag::kKeep) any = true;
  if (!any) return nullptr;
  oct::Octree next = mesh.tree().remesh(flags);
  if (next == mesh.tree()) return nullptr;
  return std::make_shared<mesh::Mesh>(std::move(next), mesh.domain());
}

}  // namespace dgr::solver
