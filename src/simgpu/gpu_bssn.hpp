#pragma once
/// \file gpu_bssn.hpp
/// \brief The device-resident BSSN evolution of Algorithm 1: state lives on
/// the (simulated) GPU between regrids; each RK stage runs the
/// halo-exchange -> octant-to-patch -> RHS -> patch-to-octant -> AXPY
/// kernel pipeline; gravitational waves are extracted on an asynchronous
/// stream. The runtime records every kernel's op counts, from which the
/// A100 model produces the device timings used in Figs. 14-18 and Table
/// III.

#include <memory>
#include <vector>

#include "bssn/rhs.hpp"
#include "bssn/state.hpp"
#include "exec_space/exec_space.hpp"
#include "gw/extract.hpp"
#include "mesh/mesh.hpp"
#include "mesh/subcycle_index.hpp"
#include "simgpu/runtime.hpp"
#include "solver/bssn_ctx.hpp"

namespace dgr::simgpu {

struct GpuSolverConfig {
  bssn::BssnParams bssn;
  Real cfl = 0.25;
  int chunk_octants = 64;
  /// SIMD pack width of the "bssn-rhs" kernel body, as
  /// solver::SolverConfig::simd_width (0 = runtime DGR_SIMD width, 1 or 4;
  /// anything else is rejected). Kernel records do not depend on it.
  int simd_width = 0;
};

class GpuBssnSolver {
 public:
  GpuBssnSolver(std::shared_ptr<mesh::Mesh> mesh, GpuSolverConfig config,
                perf::MachineModel model = perf::a100());

  GpuRuntime& runtime() { return runtime_; }
  const mesh::Mesh& mesh() const { return *mesh_; }
  Real time() const { return time_; }

  /// Host -> device upload of the initial/regridded state (Algorithm 1
  /// line 4).
  void upload(const bssn::BssnState& state);
  /// Device -> host download (line 11).
  bssn::BssnState download();

  Real suggested_dt() const { return config_.cfl * mesh_->finest_spacing(); }

  /// One RK4 step, entirely "on device".
  void rk4_step(Real dt);
  void rk4_step() { rk4_step(suggested_dt()); }

  /// One depth-local sub-cycled coarse step (= subcycle_index().cycle()
  /// fine substeps), entirely "on device" — the device mirror of
  /// solver::BssnCtx::subcycle_cycle, bitwise identical state evolution
  /// with each sweep recorded as a kernel ("subcycle-fill"/"subcycle-save"/
  /// "subcycle-update" plus the restricted RHS pipeline), so the machine
  /// model prices the reduced work of local timestepping.
  void subcycle_cycle(Real fine_dt);

  /// Per-depth octant/DOF decomposition of the mesh (built lazily; the
  /// mesh of a GpuBssnSolver is immutable, so it is built at most once).
  const mesh::SubcycleIndex& subcycle_index();

  /// Wave extraction on the asynchronous stream (Algorithm 1: "the host
  /// uses asynchronous streams to extract the gravitational waves").
  std::vector<gw::SphereModes> extract_waves(const gw::WaveExtractor& ex);

  /// Direct access for verification against the CPU solver.
  const bssn::BssnState& device_state() const { return state_; }

 private:
  void compute_rhs(const bssn::BssnState& u, bssn::BssnState& rhs);
  void compute_rhs(const bssn::BssnState& u, bssn::BssnState& rhs,
                   const std::vector<std::pair<OctIndex, OctIndex>>& runs);
  void subcycle_step_depth(int depth, Real fine_dt);
  void subcycle_bootstrap();

  std::shared_ptr<mesh::Mesh> mesh_;
  GpuSolverConfig config_;
  GpuRuntime runtime_;
  /// The device execution space (every sweep records into runtime_) and
  /// the SAME chunked unzip -> RHS -> zip pipeline the host solver runs —
  /// one kernel body per sweep family, instantiated here on the simgpu
  /// backend.
  exec_space::ExecSpace space_;
  solver::RhsPipeline pipeline_;
  bssn::BssnState state_, stage_, k_[4];
  Real time_ = 0;

  // Depth-local sub-cycling state, mirroring solver::BssnCtx: the retained
  // step-start state / first RHS per depth for dense-output ghost fill.
  // Allocated (and accounted as device memory) on first sub-cycled use; an
  // upload() or a global-dt step invalidates the retained stages.
  std::unique_ptr<mesh::SubcycleIndex> subidx_;
  bssn::BssnState dense_u0_, dense_k1_;
  std::vector<Real> dense_t0_;
  std::vector<std::uint8_t> dense_mode_;
  bool dense_ready_ = false;
  bool dense_alloc_ = false;
};

}  // namespace dgr::simgpu
