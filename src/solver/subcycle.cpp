/// \file subcycle.cpp
/// \brief Depth-local sub-cycled RK4 (Berger–Oliger power-of-two cadence).
///
/// One subcycle_cycle(fine_dt) advances the whole mesh by one coarse step
/// = cycle() fine substeps. At each substep the due depth suffix steps
/// coarsest-first; each depth runs a full RK4 step of size
/// fine_dt * 2^(dmax - d) with the unzip/RHS/zip sweeps restricted to its
/// own octant runs. Ghost data at refinement boundaries comes from the
/// dense-output time interpolation of fd/dense_output.hpp: every depth
/// retains its step-start state u0 and first RHS k1 so neighbors can
/// evaluate it at intermediate stage times to second order.
///
/// The per-depth step itself — stage fill, restricted RHS, dense save,
/// depth-restricted update — is the kernel body of
/// exec_space/bssn_sweeps.cpp, run on the context's ExecSpace (a simgpu
/// space prices each sweep as a kernel). Determinism contract: every sweep
/// is a fixed-grain run with disjoint writes and per-element arithmetic
/// independent of chunk boundaries — results are bitwise identical at any
/// DGR_THREADS, any DGR_SIMD width, and any backend. On a uniform mesh
/// (cycle() == 1) the stage fill reduces to the exact stage-AXPY
/// arithmetic of rk4_step and the restricted update to its four sequential
/// AXPY roundings, so the sub-cycled step is bitwise identical to the
/// global step — the degeneracy pin of test_subcycle.

#include <memory>
#include <vector>

#include "common/error.hpp"
#include "exec_space/bssn_sweeps.hpp"
#include "solver/bssn_ctx.hpp"

namespace dgr::solver {

using bssn::BssnState;

const mesh::SubcycleIndex& BssnCtx::subcycle_index() {
  if (!subidx_)
    subidx_ = std::make_unique<mesh::SubcycleIndex>(
        mesh::SubcycleIndex::build(*mesh_));
  return *subidx_;
}

void BssnCtx::subcycle_bootstrap() {
  const mesh::SubcycleIndex& idx = *subidx_;
  const std::size_t nd = mesh_->num_dofs();
  dense_u0_.resize(nd);
  dense_k1_.resize(nd);
  dense_t0_.assign(static_cast<std::size_t>(idx.depths()), time_);
  dense_mode_.assign(static_cast<std::size_t>(idx.depths()),
                     exec_space::kDenseModeLinear);
  // One full-mesh RHS at the aligned start time seeds the first-order
  // dense output u0 + (t - t0) k1 for every depth. Substep 0 activates
  // every depth (all strides divide 0), so each switches to the quadratic
  // form after its first step — linear fills are only ever read while
  // stepping through substep 0 right after (re)initialization.
  compute_rhs(state_, dense_k1_);
  exec_space::sweep_dense_save_all(space_, state_, dense_u0_, nullptr);
  dense_ready_ = true;
}

void BssnCtx::subcycle_step_depth(int depth, Real fine_dt) {
  const exec_space::SubcycleState st{&state_,    &stage_,     k_,
                                     &dense_u0_, &dense_k1_,  &dense_t0_,
                                     &dense_mode_};
  // The update-class sweeps pass counts == nullptr (the host context has
  // never accumulated them into counts_); the restricted RHS accumulates
  // into counts_ through the pipeline, exactly as the global-dt path.
  exec_space::subcycle_step_depth(
      space_, *subidx_, depth, fine_dt, time_, st,
      [&](const BssnState& u, BssnState& k,
          const std::vector<OctRange>& runs) {
        pipeline_.compute(u, k, runs, &counts_);
      },
      nullptr, nullptr, nullptr);
}

void BssnCtx::subcycle_cycle(Real fine_dt) {
  DGR_CHECK(fine_dt > 0);
  const mesh::SubcycleIndex& idx = subcycle_index();
  if (!idx.uniform() && !dense_ready_) subcycle_bootstrap();
  const int cycle = idx.cycle();
  for (int s = 0; s < cycle; ++s) {
    for (int d = idx.active_cutoff(s); d <= idx.dmax; ++d)
      subcycle_step_depth(d, fine_dt);
    time_ += fine_dt;
    ++steps_;
  }
}

}  // namespace dgr::solver
