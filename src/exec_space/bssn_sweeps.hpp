#pragma once
/// \file bssn_sweeps.hpp
/// \brief The BSSN sweep kernels, written once against dgr::exec_space.
///
/// Each sweep family of the BSSN step has exactly one kernel body here,
/// parameterized on the ExecSpace it runs in (solver::BssnCtx runs them on
/// the host backends and, for simgpu::GpuBssnSolver, on a simgpu space):
///
///   octant-to-patch (unzip)   sweep_octant_to_patch
///   patch RHS dispatch        sweep_rhs
///   patch-to-octant (zip)     sweep_patch_to_octant
///   RK4 AXPY                  sweep_rk4_axpy
///   subcycle stage fill/save/update
///                             subcycle_step_depth + sweep_dense_save_all
///
/// Every body charges its OpCounts slot the way the simgpu launches always
/// did; host callers that historically did not accumulate counts for a
/// sweep simply pass counts == nullptr (the merged counts are dropped, the
/// simgpu backend still records them into the kernel's record). The
/// LaunchSpec of each sweep carries the pinned simgpu kernel-record name
/// AND the pinned span label, so kernel records, modeled times, and ledger
/// rows are all unchanged from the pre-exec_space tree.
///
/// Split axes (bitwise-determinism rationale, unchanged): octant-to-patch
/// splits by VARIABLE (per-var unzip work is independent; an octant split
/// would re-count shared prolonged sources), RHS and patch-to-octant split
/// by octant (disjoint patches / owner-DOF writes), the state-wide AXPY
/// and subcycle sweeps split by variable (whole fields per chunk keep
/// writes disjoint and per-element arithmetic identical to a serial
/// sweep).

#include <cstdint>
#include <functional>
#include <vector>

#include "bssn/rhs.hpp"
#include "bssn/state.hpp"
#include "codegen/fused_rhs.hpp"
#include "common/counters.hpp"
#include "exec_space/exec_space.hpp"
#include "fd/dense_output.hpp"
#include "mesh/mesh.hpp"
#include "mesh/subcycle_index.hpp"

namespace dgr::exec_space {

/// One contiguous run of octant indices [first, second) — the element type
/// of mesh::SubcycleIndex::runs and solver::OctRange.
using OctRange = std::pair<OctIndex, OctIndex>;

// ----------------------------------------------------- RHS sweep family --

/// Octant-to-patch gather (unzip) of octants [begin, end) into `patches`,
/// split by variable. Kernel "octant-to-patch", host label "unzip".
void sweep_octant_to_patch(const ExecSpace& es, const mesh::Mesh& mesh,
                           const Real* const* fields, OctIndex begin,
                           OctIndex end, Real* patches,
                           mesh::UnzipMethod method, OpCounts* counts);

/// The same gather over `nvar` fields (fields[0..nvar), any subset of the
/// state) into patches of stride nvar, launched as `spec` — the entry for
/// sweeps that unzip fewer than the 24 BSSN variables under their own
/// kernel name (gw::compute_psi4_field).
void sweep_octant_to_patch(const ExecSpace& es, const LaunchSpec& spec,
                           const mesh::Mesh& mesh, const Real* const* fields,
                           int nvar, OctIndex begin, OctIndex end,
                           Real* patches, mesh::UnzipMethod method,
                           OpCounts* counts);

/// The parameters of sweep_rhs's patch RHS plus the per-lane workspaces it
/// indexes by TeamMember::lane(); the pack kernel reads only their
/// `inner` sweeps, so a default-constructed DerivWorkspace is all a lane
/// needs. `fused` and `fws` are not read: the register-machine kernel is no
/// longer a solver path, and sweep_rhs rejects a non-null `fused`. They
/// stay only so that existing aggregate initializers keep compiling.
struct RhsDispatch {
  const bssn::BssnParams* params = nullptr;
  const codegen::CompiledKernel* fused = nullptr;
  std::vector<bssn::DerivWorkspace>* ws = nullptr;
  std::vector<codegen::FusedWorkspace>* fws = nullptr;
};

/// Patch RHS of octants [begin, end) from the 13^3 patches `patch_in`
/// (unzip layout) into the 7^3 output blocks `patch_out` (layout
/// [octant][var][kOctPts], mesh::oct_idx), split by octant. One body,
/// bssn_rhs_patch_packed, runs at the space's resolved vector width (1 or
/// 4), with bitwise identical results and OpCounts at both; the staged
/// kernel is only its test oracle. Each octant evaluates only its
/// mesh.owned_rows(e): the x-rows holding a DOF it owns, the only ones
/// sweep_patch_to_octant reads. The other rows of its blocks are left
/// unwritten (zero in a fresh buffer, else an earlier chunk's values);
/// read patch_out through the zip only. The OpCounts still model all 7^3
/// points per octant (the paper's GPU kernel). Kernel "bssn-rhs", host
/// label "rhs".
void sweep_rhs(const ExecSpace& es, const mesh::Mesh& mesh,
               const RhsDispatch& d, OctIndex begin, OctIndex end,
               const Real* patch_in, Real* patch_out, OpCounts* counts);

/// Patch-to-octant scatter (zip) of octants [begin, end) from their 7^3
/// output blocks (sweep_rhs's layout), split by octant (owner-DOF writes
/// are disjoint). Kernel "patch-to-octant", host label "zip".
void sweep_patch_to_octant(const ExecSpace& es, const mesh::Mesh& mesh,
                           const Real* blocks, OctIndex begin, OctIndex end,
                           Real* const* fields, OpCounts* counts);

// ------------------------------------------------------ RK4 AXPY family --

/// State-wide AXPY, split by variable: y = *base + s * x when `base` is
/// non-null (RK stage construction), else y += s * x (solution update).
/// Per-element arithmetic identical to the serial state-level axpy at any
/// thread count. Kernel "axpy", host label "update".
void sweep_rk4_axpy(const ExecSpace& es, bssn::BssnState& y, Real s,
                    const bssn::BssnState& x, const bssn::BssnState* base,
                    OpCounts* counts);

// ----------------------------------------------- sub-cycled RK4 family --

/// Dense-output mode per depth: linear right after a (re)bootstrap,
/// quadratic once the depth has taken its first sub-cycled step.
inline constexpr std::uint8_t kDenseModeLinear = 0;
inline constexpr std::uint8_t kDenseModeQuad = 1;

/// Bootstrap save: dense_u0 = u over all variables. Kernel
/// "subcycle-save", host label "update".
void sweep_dense_save_all(const ExecSpace& es, const bssn::BssnState& u,
                          bssn::BssnState& dense_u0, OpCounts* counts);

/// Everything one depth-local sub-cycled RK4 step reads and writes; the
/// caller (solver::BssnCtx) owns the storage.
struct SubcycleState {
  bssn::BssnState* state = nullptr;     ///< the evolved solution u
  bssn::BssnState* stage = nullptr;     ///< RK stage input buffer
  bssn::BssnState* k = nullptr;         ///< k[4]: per-stage RHS
  bssn::BssnState* dense_u0 = nullptr;  ///< retained step-start state
  bssn::BssnState* dense_k1 = nullptr;  ///< retained first RHS
  std::vector<Real>* dense_t0 = nullptr;          ///< per-depth step start
  std::vector<std::uint8_t>* dense_mode = nullptr;  ///< per-depth kDenseMode*
};

/// RHS evaluation callback: rhs(u, out, runs) evaluates the BSSN RHS of
/// `u` into `out` restricted to the octant runs — solver::RhsPipeline on
/// every backend.
using SubcycleRhsFn = std::function<void(
    const bssn::BssnState&, bssn::BssnState&, const std::vector<OctRange>&)>;

/// Full RK4 step of depth `depth` against dense-output ghost data,
/// advancing only depth-owned DOFs — the body behind
/// solver::BssnCtx::subcycle_step_depth on every backend (see
/// solver/subcycle.cpp for the scheme).
/// Runs the "subcycle-fill" / "subcycle-save" / "subcycle-update" sweeps
/// (host label "update") on `es` with the pinned OpCounts charges, calling
/// `rhs` once per stage. `update_begin` / `update_end` (nullable) bracket
/// each update-class sweep; BssnCtx passes none, as each sweep already
/// times itself in its `update` span. `counts` feeds the sweeps' merged
/// OpCounts (nullable).
void subcycle_step_depth(const ExecSpace& es, const mesh::SubcycleIndex& idx,
                         int depth, Real fine_dt, Real time,
                         const SubcycleState& st, const SubcycleRhsFn& rhs,
                         OpCounts* counts,
                         const std::function<void()>& update_begin,
                         const std::function<void()>& update_end);

}  // namespace dgr::exec_space
