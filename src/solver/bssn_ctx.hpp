#pragma once
/// \file bssn_ctx.hpp
/// \brief The BSSN evolution context — the CPU analogue of the paper's
/// `bssnSolverCtx` and the host side of Algorithm 1. Drives the
/// halo-consistent unzip -> RHS -> zip -> AXPY pipeline with RK4 time
/// stepping and error-driven regridding. Each layer of the pipeline is an
/// exec_space sweep whose span (unzip, rhs, zip, update) is the per-layer
/// cost of the paper's Fig. 20 (obs/obs.hpp).

#include <functional>
#include <memory>

#include "bssn/constraints.hpp"
#include "bssn/rhs.hpp"
#include "bssn/state.hpp"
#include "common/counters.hpp"
#include "common/page_array.hpp"
#include "exec_space/exec_space.hpp"
#include "mesh/mesh.hpp"
#include "mesh/subcycle_index.hpp"

namespace dgr::solver {

struct SolverConfig {
  bssn::BssnParams bssn;
  Real cfl = 0.25;  ///< Courant factor lambda (paper §III-A)
  /// Octants processed per pipeline chunk (bounds patch-buffer memory; the
  /// GPU analogue launches one block per octant).
  int chunk_octants = 64;
  mesh::UnzipMethod unzip_method = mesh::UnzipMethod::kLoopOverOctants;
  /// SIMD pack width of the patch RHS pack kernel: 0 = the runtime width
  /// selected by DGR_SIMD (see simd_active_width), 1 = scalar packs, 4 =
  /// 4-wide packs; RhsPipeline rejects any other value. Results are
  /// bitwise identical at every width and thread count.
  int simd_width = 0;
};

/// One contiguous run of octant indices [first, second).
using OctRange = std::pair<OctIndex, OctIndex>;

/// The chunked unzip -> patch-RHS -> zip pipeline over arbitrary contiguous
/// octant runs, factored out of BssnCtx so per-rank mesh views (src/dist)
/// run the exact same arithmetic over octant subsets. Restricting the runs
/// is bitwise-safe: unzip scatters into each target patch in a fixed order
/// (self, then adjacency order) independent of chunk composition, and zip
/// writes each DOF only from its owner octant. DOFs owned by octants
/// outside the runs are left untouched in the output state.
class RhsPipeline {
 public:
  /// `space` is where the unzip/RHS/zip sweeps execute (default: the
  /// host pool). The pipeline arithmetic
  /// is bitwise identical on every backend; only instrumentation differs.
  /// On a simgpu space each compute() first records the (empty)
  /// "halo-exchange" kernel of Algorithm 1.
  RhsPipeline(std::shared_ptr<const mesh::Mesh> mesh, SolverConfig config,
              exec_space::ExecSpace space = exec_space::ExecSpace::host());

  const SolverConfig& config() const { return config_; }
  const exec_space::ExecSpace& space() const { return space_; }

  /// Swap the mesh (after a regrid); buffers are reused.
  void set_mesh(std::shared_ptr<const mesh::Mesh> mesh);

  /// Evaluate the BSSN RHS of `u` into `rhs` over the given runs.
  void compute(const bssn::BssnState& u, bssn::BssnState& rhs,
               const std::vector<OctRange>& runs, OpCounts* counts);

 private:
  std::shared_ptr<const mesh::Mesh> mesh_;
  SolverConfig config_;
  exec_space::ExecSpace space_;
  /// One derivative workspace per execution lane: the RHS sweep body
  /// indexes this by TeamMember::lane().
  std::vector<bssn::DerivWorkspace> ws_;
  /// A chunk's input patches (13^3 per variable) and output blocks (7^3
  /// per variable, mesh::oct_idx). Page-mapped: a page becomes resident
  /// only when a chunk writes it, so a dist rank holds only the pages of
  /// the octants it runs.
  PageArray<Real> patch_in_, patch_out_;
};

class BssnCtx {
 public:
  /// `space` is the execution space every sweep of the context (RHS
  /// pipeline, RK4 AXPYs, sub-cycled fills) runs in; the default is the
  /// host pool.
  BssnCtx(std::shared_ptr<mesh::Mesh> mesh, SolverConfig config,
          exec_space::ExecSpace space = exec_space::ExecSpace::host());

  const mesh::Mesh& mesh() const { return *mesh_; }
  const SolverConfig& config() const { return config_; }
  bssn::BssnState& state() { return state_; }
  const bssn::BssnState& state() const { return state_; }
  Real time() const { return time_; }
  std::size_t steps_taken() const { return steps_; }

  /// Global timestep from the finest spacing (lambda * h_min).
  Real suggested_dt() const;

  /// Evaluate the BSSN RHS of `u` into `rhs` over the whole mesh (chunked
  /// unzip -> patch RHS -> zip).
  void compute_rhs(const bssn::BssnState& u, bssn::BssnState& rhs);

  /// One explicit RK4 step with global timestepping (paper §III-A).
  void rk4_step(Real dt);
  void rk4_step() { rk4_step(suggested_dt()); }

  /// Depth-local sub-cycled stepping (solver/subcycle.cpp). One call
  /// advances every octant by one coarse step = subcycle_index().cycle()
  /// fine substeps of `fine_dt`: at each substep the due depth suffix
  /// steps coarsest-first, each depth running a full RK4 restricted to its
  /// octant runs, with every other depth's DOFs dense-output-interpolated
  /// to the stage times (fd/dense_output.hpp). Bitwise deterministic at
  /// any thread count and SIMD width; on a uniform mesh the arithmetic
  /// degenerates to exactly rk4_step(fine_dt).
  void subcycle_cycle(Real fine_dt);

  /// The per-depth octant/DOF decomposition of the current mesh (built
  /// lazily, invalidated by remesh()).
  const mesh::SubcycleIndex& subcycle_index();

  /// Advance n steps.
  void evolve_steps(int n);

  /// Constraint norms of the current state.
  bssn::ConstraintNorms constraint_norms(
      const std::vector<std::array<Real, 3>>& excise = {},
      Real excise_radius = 0.0) const;

  const OpCounts& op_counts() const { return counts_; }
  void reset_instrumentation() { counts_ = OpCounts{}; }

  /// Replace the mesh (after a regrid): moves the current state onto the
  /// new mesh with transfer_state.
  void remesh(std::shared_ptr<mesh::Mesh> new_mesh);

  /// Restart support: overwrite the clock and step counter when resuming
  /// from a checkpoint (the state itself is restored through state(), on a
  /// context built over solver::checkpoint_mesh). Evolution resumed this
  /// way is bitwise identical to the uninterrupted run — the round-trip
  /// determinism contract of the checkpoint tests. The retained dense
  /// stages belong to the replaced history, so the next sub-cycled cycle
  /// re-bootstraps.
  void restore(Real time, std::size_t steps) {
    time_ = time;
    steps_ = steps;
    dense_ready_ = false;
  }

 private:
  /// Full RK4 step of the depth-d octant runs against dense-output ghost
  /// data, advancing only depth-d DOFs (defined in subcycle.cpp).
  void subcycle_step_depth(int depth, Real fine_dt);
  /// First-order dense bootstrap: one full-mesh RHS at the current time.
  void subcycle_bootstrap();

  std::shared_ptr<mesh::Mesh> mesh_;
  SolverConfig config_;
  exec_space::ExecSpace space_;
  bssn::BssnState state_;
  bssn::BssnState k_[4], stage_;
  Real time_ = 0;
  std::size_t steps_ = 0;
  OpCounts counts_;
  RhsPipeline pipeline_;

  // Depth-local sub-cycling state (allocated on first subcycle_cycle; a
  // global-dt step or a remesh invalidates the retained dense stages).
  std::unique_ptr<mesh::SubcycleIndex> subidx_;
  bssn::BssnState dense_u0_, dense_k1_;
  std::vector<Real> dense_t0_;            // per depth, absolute step start
  std::vector<std::uint8_t> dense_mode_;  // per depth: linear or quadratic
  bool dense_ready_ = false;
};

/// Transfer all 24 fields of `src` (on `src_mesh`) to a state on
/// `dst_mesh` by octree relation, per destination octant: a leaf of the
/// source tree (kept) copies its values; a child of a source leaf
/// (refined) takes its box of the parent's prolongation (mesh::
/// prolong_region); the parent of eight source leaves (coarsened) injects
/// their even-index points. Every destination DOF that was a source DOF
/// keeps its value (refined ones up to the sign of a zero), so a same-mesh
/// transfer is the identity. An octant with none of these relations, which
/// regrid_mesh never produces, falls back to degree-6 interpolation
/// (mesh::PointSampler) at its DOFs. Each DOF is written once, by its
/// owner, so the result is the same at any thread count and backend.
/// Throws dgr::Error unless `src` has src_mesh's DOF count and both meshes
/// cover the same domain.
bssn::BssnState transfer_state(const mesh::Mesh& src_mesh,
                               const bssn::BssnState& src,
                               const mesh::Mesh& dst_mesh);

}  // namespace dgr::solver
