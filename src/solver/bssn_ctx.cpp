#include "solver/bssn_ctx.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "exec_space/bssn_sweeps.hpp"
#include "mesh/interp.hpp"
#include "mesh/sampling.hpp"

namespace dgr::solver {

using bssn::BssnState;
using bssn::kNumVars;
using exec_space::ExecSpace;
using mesh::kFine;
using mesh::kOctPts;
using mesh::kPatchPts;
using mesh::kR;

RhsPipeline::RhsPipeline(std::shared_ptr<const mesh::Mesh> mesh,
                         SolverConfig config, ExecSpace space)
    : mesh_(std::move(mesh)), config_(config), space_(space) {
  DGR_CHECK(mesh_ != nullptr);
  DGR_CHECK(config_.chunk_octants > 0);
  space_.set_vector_policy({config_.simd_width});  // throws unless 0, 1, 4
  const std::size_t slots =
      static_cast<std::size_t>(config_.chunk_octants) * kNumVars;
  patch_in_.resize(slots * kPatchPts);
  patch_out_.resize(slots * kOctPts);
}

void RhsPipeline::set_mesh(std::shared_ptr<const mesh::Mesh> mesh) {
  DGR_CHECK(mesh != nullptr);
  mesh_ = std::move(mesh);
}

void RhsPipeline::compute(const BssnState& u, BssnState& rhs,
                          const std::vector<OctRange>& runs,
                          OpCounts* counts) {
  const auto in = u.cptrs();
  const auto out = rhs.ptrs();
  if (static_cast<int>(ws_.size()) < space_.max_lanes())
    ws_.resize(space_.max_lanes());
  const exec_space::RhsDispatch dispatch{&config_.bssn, nullptr, &ws_};

  // Halo exchange (Algorithm 1 line 6): on a single simulated device the
  // partition is whole, so only the (empty) kernel is recorded, ahead of
  // the sweeps, to keep the device's launch sequence.
  if (simgpu::GpuRuntime* rt = space_.runtime())
    rt->launch("halo-exchange", 1, 0, [](OpCounts&) {});

  // Each phase of a chunk is one sweep on space_ (exec_space/bssn_sweeps:
  // one kernel body per sweep for every backend; see there for the
  // split-axis / determinism rationale).
  for (const auto& run : runs) {
    DGR_CHECK(run.first >= 0 &&
              run.second <= static_cast<OctIndex>(mesh_->num_octants()));
    for (OctIndex begin = run.first; begin < run.second;
         begin += config_.chunk_octants) {
      const OctIndex end =
          std::min<OctIndex>(begin + config_.chunk_octants, run.second);
      exec_space::sweep_octant_to_patch(space_, *mesh_, in.data(), begin, end,
                                        patch_in_.data(), config_.unzip_method,
                                        counts);
      exec_space::sweep_rhs(space_, *mesh_, dispatch, begin, end,
                            patch_in_.data(), patch_out_.data(), counts);
      exec_space::sweep_patch_to_octant(space_, *mesh_, patch_out_.data(),
                                        begin, end, out.data(), counts);
    }
  }
}

BssnCtx::BssnCtx(std::shared_ptr<mesh::Mesh> mesh, SolverConfig config,
                 ExecSpace space)
    : mesh_(std::move(mesh)),
      config_(config),
      space_(space),
      pipeline_(mesh_, config, space) {
  DGR_CHECK(mesh_ != nullptr);
  state_.resize(mesh_->num_dofs());
  for (auto& k : k_) k.resize(mesh_->num_dofs());
  stage_.resize(mesh_->num_dofs());
}

Real BssnCtx::suggested_dt() const {
  return config_.cfl * mesh_->finest_spacing();
}

void BssnCtx::compute_rhs(const BssnState& u, BssnState& rhs) {
  pipeline_.compute(u, rhs,
                    {{0, static_cast<OctIndex>(mesh_->num_octants())}},
                    &counts_);
}

void BssnCtx::rk4_step(Real dt) {
  // Classical RK4: k1 = F(u), k2 = F(u + dt/2 k1), k3 = F(u + dt/2 k2),
  // k4 = F(u + dt k3), u += dt/6 (k1 + 2 k2 + 2 k3 + k4). The AXPY sweeps
  // pass counts == nullptr: the context has never accumulated update flops
  // into counts_ (a simgpu space still records them per kernel).
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
  ++steps_;
  // A global-dt step desynchronizes the retained dense stages (they cover
  // the interval before it); the next sub-cycled cycle re-bootstraps.
  dense_ready_ = false;
}

void BssnCtx::evolve_steps(int n) {
  for (int i = 0; i < n; ++i) rk4_step();
}

bssn::ConstraintNorms BssnCtx::constraint_norms(
    const std::vector<std::array<Real, 3>>& excise, Real excise_radius) const {
  return bssn::compute_constraint_norms(*mesh_, state_, config_.bssn, excise,
                                        excise_radius);
}

void BssnCtx::remesh(std::shared_ptr<mesh::Mesh> new_mesh) {
  DGR_CHECK(new_mesh != nullptr);
  BssnState next = transfer_state(*mesh_, state_, *new_mesh);
  mesh_ = std::move(new_mesh);
  pipeline_.set_mesh(mesh_);
  state_ = std::move(next);
  for (auto& k : k_) k.resize(mesh_->num_dofs());
  stage_.resize(mesh_->num_dofs());
  subidx_.reset();
  dense_ready_ = false;
}

namespace {

/// (local point, DOF) pairs of the DOFs a destination octant owns.
using OwnedDofs = std::vector<std::pair<int, DofIndex>>;

/// Fill vals[v * kOctPts + local] with the values of every field at the 7^3
/// points of destination octant t, by t's relation to the source tree. The
/// fallback fills only the `owned` points.
void fill_octant(const mesh::Mesh& src_mesh, const Real* const* in,
                 const mesh::Mesh& dst_mesh, const oct::TreeNode& t,
                 const OwnedDofs& owned, Real* vals) {
  const oct::Octree& tree = src_mesh.tree();
  // Kept: DOFs are copied; points hanging in the source take their rule
  // values.
  if (const OctIndex s = tree.find(t); s != kInvalidOct) {
    for (int v = 0; v < kNumVars; ++v)
      src_mesh.load_octant(in[v], s, vals + v * kOctPts);
    return;
  }
  // Refined: t's 7^3 box of the parent's 13^3 fine covering. The
  // prolongation's even rows are deltas, so the parent's points are copied.
  if (t.level > 0) {
    if (const OctIndex s = tree.find(t.parent()); s != kInvalidOct) {
      const int c = t.child_id();
      mesh::FineBox box;
      for (int a = 0; a < 3; ++a) {
        box.lo[a] = (kR - 1) * ((c >> a) & 1);
        box.hi[a] = box.lo[a] + kR;
      }
      Real coarse[kOctPts], fine[kFine * kFine * kFine];
      for (int v = 0; v < kNumVars; ++v) {
        src_mesh.load_octant(in[v], s, coarse);
        mesh::prolong_region(coarse, box, fine);
        for (int k = 0; k < kR; ++k)
          for (int j = 0; j < kR; ++j)
            for (int i = 0; i < kR; ++i)
              vals[v * kOctPts + mesh::oct_idx(i, j, k)] =
                  fine[((box.lo[2] + k) * kFine + box.lo[1] + j) * kFine +
                       box.lo[0] + i];
      }
      return;
    }
  }
  // Coarsened: injection. Point (i, j, k) is point (2i - 6cx, 2j - 6cy,
  // 2k - 6cz) of child cx + 2cy + 4cz, with c = [2 index >= 6] per axis.
  // Under 2:1 balance these points are never hanging: they are source DOFs.
  std::array<OctIndex, 8> kids{};
  bool coarsened = t.level < oct::kMaxDepth;
  for (int c = 0; c < 8 && coarsened; ++c)
    coarsened = (kids[c] = tree.find(t.child(c))) != kInvalidOct;
  if (coarsened) {
    for (int k = 0; k < kR; ++k)
      for (int j = 0; j < kR; ++j)
        for (int i = 0; i < kR; ++i) {
          const int cx = 2 * i >= kR - 1, cy = 2 * j >= kR - 1,
                    cz = 2 * k >= kR - 1;
          const std::int64_t d = src_mesh.o2n(kids[cx + 2 * cy + 4 * cz])
              [mesh::oct_idx(2 * i - (kR - 1) * cx, 2 * j - (kR - 1) * cy,
                             2 * k - (kR - 1) * cz)];
          DGR_CHECK(d >= 0);
          for (int v = 0; v < kNumVars; ++v)
            vals[v * kOctPts + mesh::oct_idx(i, j, k)] = in[v][d];
        }
    return;
  }
  // No relation (the meshes differ by more than one level here): degree-6
  // interpolation at each owned DOF.
  mesh::PointSampler sampler(src_mesh);
  std::array<Real, kNumVars> at;
  for (const auto& [i, d] : owned) {
    const auto x = dst_mesh.dof_position(d);
    sampler.evaluate_many(in, kNumVars, x[0], x[1], x[2], at.data());
    for (int v = 0; v < kNumVars; ++v) vals[v * kOctPts + i] = at[v];
  }
}

}  // namespace

BssnState transfer_state(const mesh::Mesh& src_mesh, const BssnState& src,
                         const mesh::Mesh& dst_mesh) {
  DGR_CHECK_MSG(src.num_dofs() == src_mesh.num_dofs(),
                "transfer_state: the state has " << src.num_dofs()
                                                 << " DOFs, its mesh "
                                                 << src_mesh.num_dofs());
  DGR_CHECK_MSG(
      src_mesh.domain().half_extent == dst_mesh.domain().half_extent,
      "transfer_state: the meshes cover different domains");
  BssnState out(dst_mesh.num_dofs());
  const auto in = src.cptrs();
  const auto dst = out.ptrs();
  // Parallel over destination octants. Each writes only the DOFs it owns,
  // so every DOF is written once, whatever the chunking.
  const std::int64_t n = static_cast<std::int64_t>(dst_mesh.num_octants());
  ExecSpace::host().range_for(
      {"transfer", "transfer", static_cast<std::uint64_t>(n), 0}, n,
      /*grain=*/4, nullptr, [&](std::int64_t eb, std::int64_t ee, OpCounts&) {
        std::vector<Real> vals(std::size_t(kNumVars) * kOctPts);
        OwnedDofs owned;
        for (OctIndex e = static_cast<OctIndex>(eb);
             e < static_cast<OctIndex>(ee); ++e) {
          owned.clear();
          const std::int64_t* map = dst_mesh.o2n(e);
          for (int i = 0; i < kOctPts; ++i)
            if (map[i] >= 0 && dst_mesh.dof_owner(map[i]) == e)
              owned.emplace_back(i, map[i]);
          fill_octant(src_mesh, in.data(), dst_mesh, dst_mesh.tree().leaf(e),
                      owned, vals.data());
          for (int v = 0; v < kNumVars; ++v)
            for (const auto& [i, d] : owned) dst[v][d] = vals[v * kOctPts + i];
        }
      });
  return out;
}

}  // namespace dgr::solver
