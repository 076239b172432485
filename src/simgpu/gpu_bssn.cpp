#include "simgpu/gpu_bssn.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "exec_space/bssn_sweeps.hpp"
#include "gw/psi4.hpp"

namespace dgr::simgpu {

using bssn::BssnState;
using bssn::kNumVars;
using mesh::kPatchPts;

namespace {
std::uint64_t state_bytes(const mesh::Mesh& m) {
  return std::uint64_t(m.num_dofs()) * kNumVars * sizeof(Real);
}

/// The host pipeline configuration equivalent to a GpuSolverConfig: same
/// params, chunking and SIMD width; the device kernels always unzip by
/// looping over octants (one block per octant).
solver::SolverConfig pipeline_config(const GpuSolverConfig& c) {
  solver::SolverConfig s;
  s.bssn = c.bssn;
  s.cfl = c.cfl;
  s.chunk_octants = c.chunk_octants;
  s.unzip_method = mesh::UnzipMethod::kLoopOverOctants;
  s.simd_width = c.simd_width;
  return s;
}
}  // namespace

GpuBssnSolver::GpuBssnSolver(std::shared_ptr<mesh::Mesh> mesh,
                             GpuSolverConfig config, perf::MachineModel model)
    : mesh_(std::move(mesh)),
      config_(config),
      runtime_(std::move(model)),
      space_(exec_space::ExecSpace::simgpu(runtime_)),
      pipeline_(mesh_, pipeline_config(config), space_) {
  DGR_CHECK(mesh_ != nullptr);
  state_.resize(mesh_->num_dofs());
  stage_.resize(mesh_->num_dofs());
  for (auto& k : k_) k.resize(mesh_->num_dofs());
  // Device allocations: 6 state-sized vectors + the chunked patch buffers
  // (owned by the pipeline, priced here).
  runtime_.device_alloc(6 * state_bytes(*mesh_));
  const std::size_t cap =
      std::size_t(config_.chunk_octants) * kNumVars * kPatchPts;
  runtime_.device_alloc(2 * cap * sizeof(Real));
}

void GpuBssnSolver::upload(const bssn::BssnState& state) {
  DGR_CHECK(state.num_dofs() == mesh_->num_dofs());
  state_ = state;
  runtime_.h2d(state_bytes(*mesh_));
  // The uploaded state replaces the evolution history; retained dense
  // stages no longer bracket it.
  dense_ready_ = false;
}

BssnState GpuBssnSolver::download() {
  runtime_.d2h(state_bytes(*mesh_));
  return state_;
}

void GpuBssnSolver::compute_rhs(const BssnState& u, BssnState& rhs) {
  compute_rhs(u, rhs,
              {{0, static_cast<OctIndex>(mesh_->num_octants())}});
}

void GpuBssnSolver::compute_rhs(
    const BssnState& u, BssnState& rhs,
    const std::vector<std::pair<OctIndex, OctIndex>>& runs) {
  // Halo exchange (Algorithm 1 line 6): on a single simulated device the
  // partition is whole, so only the (empty) kernel is recorded. The
  // pipeline then runs the shared octant-to-patch / bssn-rhs /
  // patch-to-octant sweep bodies on the simgpu space — each a recorded
  // kernel launch, restricted runs keeping launches, op counts and modeled
  // time proportional to live work.
  runtime_.launch("halo-exchange", 1, 0, [&](OpCounts&) {});
  pipeline_.compute(u, rhs, runs, nullptr, nullptr);
}

void GpuBssnSolver::rk4_step(Real dt) {
  compute_rhs(state_, k_[0]);
  exec_space::sweep_rk4_axpy(space_, stage_, 0.5 * dt, k_[0], &state_,
                             nullptr);
  compute_rhs(stage_, k_[1]);
  exec_space::sweep_rk4_axpy(space_, stage_, 0.5 * dt, k_[1], &state_,
                             nullptr);
  compute_rhs(stage_, k_[2]);
  exec_space::sweep_rk4_axpy(space_, stage_, dt, k_[2], &state_, nullptr);
  compute_rhs(stage_, k_[3]);
  exec_space::sweep_rk4_axpy(space_, state_, dt / 6.0, k_[0], nullptr,
                             nullptr);
  exec_space::sweep_rk4_axpy(space_, state_, dt / 3.0, k_[1], nullptr,
                             nullptr);
  exec_space::sweep_rk4_axpy(space_, state_, dt / 3.0, k_[2], nullptr,
                             nullptr);
  exec_space::sweep_rk4_axpy(space_, state_, dt / 6.0, k_[3], nullptr,
                             nullptr);
  time_ += dt;
  dense_ready_ = false;
}

const mesh::SubcycleIndex& GpuBssnSolver::subcycle_index() {
  if (!subidx_)
    subidx_ = std::make_unique<mesh::SubcycleIndex>(
        mesh::SubcycleIndex::build(*mesh_));
  return *subidx_;
}

void GpuBssnSolver::subcycle_bootstrap() {
  const mesh::SubcycleIndex& idx = *subidx_;
  const std::size_t nd = mesh_->num_dofs();
  if (!dense_alloc_) {
    // Two more device-resident state-sized arrays for the retained dense
    // stages (u0, k1), priced into the memory model.
    runtime_.device_alloc(2 * state_bytes(*mesh_));
    dense_alloc_ = true;
  }
  dense_u0_.resize(nd);
  dense_k1_.resize(nd);
  dense_t0_.assign(static_cast<std::size_t>(idx.depths()), time_);
  dense_mode_.assign(static_cast<std::size_t>(idx.depths()),
                     exec_space::kDenseModeLinear);
  compute_rhs(state_, dense_k1_);
  exec_space::sweep_dense_save_all(space_, state_, dense_u0_, nullptr);
  dense_ready_ = true;
}

void GpuBssnSolver::subcycle_step_depth(int depth, Real fine_dt) {
  // The shared depth-local RK4 body (exec_space/bssn_sweeps.cpp) on the
  // simgpu space: the fill/save/update sweeps record as the
  // "subcycle-fill"/"subcycle-save"/"subcycle-update" kernels, the
  // restricted RHS goes through compute_rhs (halo-exchange + pipeline).
  const exec_space::SubcycleState st{&state_,    &stage_,     k_,
                                     &dense_u0_, &dense_k1_,  &dense_t0_,
                                     &dense_mode_};
  exec_space::subcycle_step_depth(
      space_, *subidx_, depth, fine_dt, time_, st,
      [&](const BssnState& u, BssnState& k,
          const std::vector<exec_space::OctRange>& runs) {
        compute_rhs(u, k, runs);
      },
      nullptr, nullptr, nullptr);
}

void GpuBssnSolver::subcycle_cycle(Real fine_dt) {
  DGR_CHECK(fine_dt > 0);
  const mesh::SubcycleIndex& idx = subcycle_index();
  if (!idx.uniform() && !dense_ready_) subcycle_bootstrap();
  const int cycle = idx.cycle();
  for (int s = 0; s < cycle; ++s) {
    for (int d = idx.active_cutoff(s); d <= idx.dmax; ++d)
      subcycle_step_depth(d, fine_dt);
    time_ += fine_dt;
  }
}

std::vector<gw::SphereModes> GpuBssnSolver::extract_waves(
    const gw::WaveExtractor& ex) {
  std::vector<gw::SphereModes> modes;
  runtime_.launch("psi4-extract", mesh_->num_octants(), /*stream=*/1,
                  [&](OpCounts& c) {
                    modes = ex.extract_from_state(*mesh_, state_,
                                                  config_.bssn);
                    // Rough accounting: one Ricci-scale pass per octant.
                    c.flops += std::uint64_t(mesh_->num_octants()) *
                               mesh::kOctPts * 600;
                    c.bytes_read += std::uint64_t(mesh_->num_octants()) *
                                    kNumVars * kPatchPts * sizeof(Real);
                  });
  return modes;
}

}  // namespace dgr::simgpu
