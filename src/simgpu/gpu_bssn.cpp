#include "simgpu/gpu_bssn.hpp"

#include "common/error.hpp"
#include "exec_space/exec_space.hpp"

namespace dgr::simgpu {

using bssn::BssnState;
using bssn::kNumVars;
using mesh::kPatchPts;

namespace {
std::uint64_t state_bytes(const mesh::Mesh& m) {
  return std::uint64_t(m.num_dofs()) * kNumVars * sizeof(Real);
}
}  // namespace

GpuBssnSolver::GpuBssnSolver(std::shared_ptr<mesh::Mesh> mesh,
                             solver::SolverConfig config,
                             perf::MachineModel model)
    : runtime_(std::move(model)),
      ctx_(std::move(mesh), config, exec_space::ExecSpace::simgpu(runtime_)) {
  // Device allocations: 6 state-sized vectors + the chunk's input patches
  // and output blocks (owned by the context and its pipeline, priced here).
  runtime_.device_alloc(6 * state_bytes(ctx_.mesh()));
  const std::size_t slots = std::size_t(config.chunk_octants) * kNumVars;
  runtime_.device_alloc(slots * (kPatchPts + mesh::kOctPts) * sizeof(Real));
}

void GpuBssnSolver::upload(const BssnState& state) {
  DGR_CHECK(state.num_dofs() == ctx_.mesh().num_dofs());
  ctx_.state() = state;
  runtime_.h2d(state_bytes(ctx_.mesh()));
}

BssnState GpuBssnSolver::download() {
  runtime_.d2h(state_bytes(ctx_.mesh()));
  return ctx_.state();
}

std::vector<gw::SphereModes> GpuBssnSolver::extract_waves(
    const gw::WaveExtractor& ex) {
  const mesh::Mesh& m = ctx_.mesh();
  std::vector<gw::SphereModes> modes;
  runtime_.launch("psi4-extract", m.num_octants(), /*stream=*/1,
                  [&](OpCounts& c) {
                    modes = ex.extract_from_state(m, ctx_.state(),
                                                  ctx_.config().bssn);
                    // Rough accounting: one Ricci-scale pass per octant.
                    c.flops += std::uint64_t(m.num_octants()) *
                               mesh::kOctPts * 600;
                    c.bytes_read += std::uint64_t(m.num_octants()) *
                                    kNumVars * kPatchPts * sizeof(Real);
                  });
  return modes;
}

}  // namespace dgr::simgpu
