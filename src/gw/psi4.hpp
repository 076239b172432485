#pragma once
/// \file psi4.hpp
/// \brief The Penrose scalar Psi4 used for gravitational-wave extraction
/// (paper §III-A): computed from the evolved BSSN variables via the
/// electric/magnetic parts of the Weyl tensor,
///   E_ij = R_ij + K K_ij - K_ik K^k_j,
///   B_ij = eps_i^{kl} D_k K_{lj},
/// projected onto a quasi-Kinnersley null tetrad built by Gram–Schmidt
/// orthonormalization of the spherical coordinate triad:
///   Psi4 = (E_jk - i B_jk) mbar^j mbar^k,  mbar = (e_theta - i e_phi)/sqrt2.

#include <complex>

#include "bssn/rhs.hpp"
#include "bssn/state.hpp"
#include "exec_space/exec_space.hpp"
#include "mesh/mesh.hpp"

namespace dgr::gw {

using Complex = std::complex<Real>;

/// Default radius below which psi4_patch zeroes Psi4.
inline constexpr Real kPsi4RMin = 1e-8;

/// The Psi4 point algebra on the interior x-rows in `rows` of one patch
/// (outputs are 13^3 buffers; the points of those rows are written, all
/// others left untouched), reading the metric derivative set `d` of `in`
/// (bssn::MetricDerivs) and only the kMetricVars entries of `in`. Points
/// too close to the coordinate origin (within `r_min`) are set to zero —
/// the tetrad is radial and extraction happens on far spheres anyway.
void psi4_patch(const Real* const in[bssn::kNumVars],
                const mesh::PatchGeom& geom, const bssn::BssnParams& params,
                const bssn::MetricDerivs& d, Real* out_re, Real* out_im,
                Real r_min = kPsi4RMin,
                mesh::RowMask rows = mesh::kAllRows);

/// Octants per compute_psi4_field chunk: the chunk's 17-variable patch
/// block is 2.4 MB, next to 1.65 MB of derivative scratch per lane.
inline constexpr OctIndex kPsi4ChunkOctants = 8;

/// Compute Psi4 as a pair of zipped scalar fields over the whole mesh, as
/// chunked sweeps on `space`. Per chunk of kPsi4ChunkOctants octants: one
/// loop-over-octants unzip of the 17 kMetricVars (kernel "psi4-unzip"),
/// then per octant, on per-lane scratch, bssn_metric_deriv_stage,
/// psi4_patch on the octant's owned rows, and a zip of Re and Im through
/// the owner write sets (kernel "psi4"). Bitwise identical on every
/// backend and thread count, and to a per-octant unzip + full
/// bssn_deriv_stage + psi4_patch + zip. Safe to call from inside a sweep
/// or a pool worker.
void compute_psi4_field(
    const mesh::Mesh& mesh, const bssn::BssnState& state,
    const bssn::BssnParams& params, Real* re, Real* im,
    exec_space::ExecSpace space = exec_space::ExecSpace::host());

}  // namespace dgr::gw
