#pragma once
/// \file regrid.hpp
/// \brief Error-driven regridding (the re-grid step of Algorithm 1): a
/// wavelet-style per-octant error estimator (magnitude of the finest
/// interpolation detail coefficients) marks octants for refinement or
/// coarsening; the octree is remeshed and the state transferred.

#include <memory>
#include <vector>

#include "bssn/state.hpp"
#include "mesh/mesh.hpp"
#include "octree/octree.hpp"

namespace dgr::solver {

struct RegridConfig {
  /// Refinement error tolerance epsilon (the knob of Fig. 19): octants whose
  /// wavelet detail magnitude exceeds it are refined.
  Real eps = 1e-3;
  /// Coarsen when the detail magnitude falls below eps * coarsen_factor.
  Real coarsen_factor = 0.05;
  int max_level = 10;
  int min_level = 2;
  /// Variables driving the estimator; defaults to the conformal factor and
  /// lapse, which track the punctures and the outgoing waves.
  std::vector<int> vars = {bssn::kChi, bssn::kAlpha};
};

/// Throws dgr::Error unless every entry of `vars` names a BSSN field,
/// `eps` and `coarsen_factor` are finite and >= 0, and 0 <= min_level <=
/// max_level <= oct::kMaxDepth. regrid_mesh, solver::evolve and
/// dist::evolve_distributed check their config with it before any work.
void validate_regrid_config(const RegridConfig& cfg);

/// Wavelet-style detail magnitude of one octant for one field: restrict the
/// 7^3 block to its even-index 4^3 coarse skeleton, prolong back with cubic
/// tensor interpolation, and return the max abs difference at odd points.
Real octant_detail(const Real* u /*343*/);

/// Per-octant estimator over the configured variables (state is zipped).
std::vector<Real> compute_octant_errors(const mesh::Mesh& mesh,
                                        const bssn::BssnState& state,
                                        const RegridConfig& cfg);

/// Map errors to remesh flags under the level bounds.
std::vector<oct::RemeshFlag> flags_from_errors(const mesh::Mesh& mesh,
                                               const std::vector<Real>& err,
                                               const RegridConfig& cfg);

/// Regrid the mesh: estimate, remesh the octree (keeping 2:1 balance) and
/// rebuild the mesh. Returns the new mesh, or nullptr if the grid is
/// unchanged (caller keeps the old mesh). The state is not transferred;
/// the caller moves it onto the new mesh (transfer_state).
std::shared_ptr<mesh::Mesh> regrid_mesh(const mesh::Mesh& mesh,
                                        const bssn::BssnState& state,
                                        const RegridConfig& cfg);

}  // namespace dgr::solver
