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

#include "bssn/algebra.hpp"
#include "bssn/rhs.hpp"
#include "bssn/state.hpp"
#include "exec_space/exec_space.hpp"
#include "mesh/mesh.hpp"

namespace dgr::gw {

using Complex = std::complex<Real>;

/// Radius below which Psi4 is set to zero.
inline constexpr Real kPsi4RMin = 1e-8;

/// The Psi4 point algebra at `pos` (S = Real, or a dgr::simd pack of W
/// x-consecutive points gathered by bssn::bssn_gather_pack_metric), from
/// the metric inputs of q only. Points too close to the coordinate origin
/// (r < kPsi4RMin) give zero — the tetrad is radial and extraction happens
/// on far spheres anyway; on the z axis the tetrad takes phi^ = y^. Both
/// are lanewise selects, so every lane has the bits of the Real
/// instantiation, the one exported here (compute_psi4_field runs the
/// pack instantiations).
template <class S>
void psi4_point(const bssn::AlgebraInputs<S>& q, const S pos[3], S& re,
                S& im);

/// Psi4 of one metric patch block (inputs as bssn::metric_patch_inputs
/// lays them out), W = 1 or 4 points at a time, on the x-rows `rows` of
/// the 7^3 blocks re and im (bssn/rhs.hpp's output contract); `inner` is
/// the lane's scratch.
template <int W>
void psi4_patch(const Real* const in[bssn::kNumVars],
                const mesh::PatchGeom& geom, Real chi_floor,
                mesh::RowMask rows, bssn::MixedInnerSweeps& inner, Real* re,
                Real* im);

/// Octants per compute_psi4_field chunk: the chunk's 17-variable patch
/// block is 2.4 MB, next to 0.39 MB of inner sweeps per lane.
inline constexpr OctIndex kPsi4ChunkOctants = 8;

/// Compute Psi4 as a pair of zipped scalar fields over the whole mesh, as
/// chunked sweeps on `space`. Per chunk of kPsi4ChunkOctants octants: one
/// loop-over-octants unzip of the 17 kMetricVars (kernel "psi4-unzip"),
/// then per octant, on per-lane scratch, the metric pack gather and
/// psi4_point at the space's vector width on the octant's owned rows, and
/// a zip of Re and Im through the owner write sets (kernel "psi4").
/// Bitwise identical on every backend, thread count and width, and to a
/// per-octant unzip + bssn_deriv_stage + bssn_gather_point + psi4_point
/// at Real + zip. Safe to call from inside a sweep or a pool worker.
void compute_psi4_field(
    const mesh::Mesh& mesh, const bssn::BssnState& state,
    const bssn::BssnParams& params, Real* re, Real* im,
    exec_space::ExecSpace space = exec_space::ExecSpace::host());

}  // namespace dgr::gw
