#pragma once
/// \file gpu_bssn.hpp
/// \brief The device-resident BSSN evolution of Algorithm 1: state lives on
/// the (simulated) GPU between regrids; each RK stage runs the
/// halo-exchange -> octant-to-patch -> RHS -> patch-to-octant -> AXPY
/// kernel pipeline; gravitational waves are extracted on an asynchronous
/// stream. The runtime records every kernel's op counts, from which the
/// A100 model produces the device timings used in Figs. 14-18 and Table
/// III.
///
/// The stepping is solver::BssnCtx's, run on a simgpu execution space
/// over this solver's runtime; what this class adds is the device model:
/// the device allocations, the host<->device transfers and the
/// asynchronous wave extraction.

#include <memory>
#include <vector>

#include "bssn/state.hpp"
#include "gw/extract.hpp"
#include "mesh/mesh.hpp"
#include "simgpu/runtime.hpp"
#include "solver/bssn_ctx.hpp"

namespace dgr::simgpu {

class GpuBssnSolver {
 public:
  GpuBssnSolver(std::shared_ptr<mesh::Mesh> mesh, solver::SolverConfig config,
                perf::MachineModel model = perf::a100());

  GpuRuntime& runtime() { return runtime_; }

  /// Host -> device upload of the initial/regridded state (Algorithm 1
  /// line 4).
  void upload(const bssn::BssnState& state);
  /// Device -> host download (line 11).
  bssn::BssnState download();

  Real suggested_dt() const { return ctx_.suggested_dt(); }

  /// One RK4 step, entirely "on device".
  void rk4_step(Real dt) { ctx_.rk4_step(dt); }
  void rk4_step() { ctx_.rk4_step(); }

  /// Wave extraction on the asynchronous stream (Algorithm 1: "the host
  /// uses asynchronous streams to extract the gravitational waves").
  std::vector<gw::SphereModes> extract_waves(const gw::WaveExtractor& ex);

 private:
  GpuRuntime runtime_;
  /// The evolution context, every sweep of which records into runtime_.
  solver::BssnCtx ctx_;
};

}  // namespace dgr::simgpu
