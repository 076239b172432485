#include "dist/rank_ctx.hpp"

#include <limits>

#include "common/error.hpp"

namespace dgr::dist {

using bssn::kNumVars;

std::vector<solver::OctRange> runs_of(const std::vector<OctIndex>& octs) {
  std::vector<solver::OctRange> runs;
  for (OctIndex e : octs) {
    if (!runs.empty() && runs.back().second == e)
      runs.back().second = e + 1;
    else
      runs.push_back({e, e + 1});
  }
  return runs;
}

RankCtx::RankCtx(int rank, std::shared_ptr<const mesh::Mesh> mesh,
                 const comm::RankPartition& part, comm::ExchangeMaps maps,
                 const solver::SolverConfig& scfg, bool alloc_stages)
    : rank_(rank),
      mesh_(std::move(mesh)),
      maps_(std::move(maps)),
      owned_begin_(part.owned_begin(rank)),
      owned_end_(part.owned_end(rank)) {
  DGR_CHECK(maps_.rank == rank_);
  interior_runs_ = runs_of(maps_.interior);
  boundary_runs_ = runs_of(maps_.boundary);
  for (DofIndex d = 0; d < static_cast<DofIndex>(mesh_->num_dofs()); ++d)
    if (part.rank_of(mesh_->dof_owner(d)) == rank_) owned_dofs_.push_back(d);
  u_.resize(mesh_->num_dofs());
  if (alloc_stages) {
    pipeline_.emplace(mesh_, scfg);
    for (auto& k : k_) k.resize(mesh_->num_dofs());
    stage_.resize(mesh_->num_dofs());
  }
  recv_buf_.resize(part.ranks);
}

double RankCtx::local_finest_spacing() const {
  double h = std::numeric_limits<double>::infinity();
  for (std::size_t e = owned_begin_; e < owned_end_; ++e)
    h = std::min(h, mesh_->octant_spacing(static_cast<OctIndex>(e)));
  return h;
}

void RankCtx::adopt_owned(const bssn::BssnState& global) {
  DGR_CHECK(global.num_dofs() == mesh_->num_dofs());
  u_.resize(mesh_->num_dofs());  // zero everything, then copy owned
  for (int v = 0; v < kNumVars; ++v) {
    Real* dst = u_.field(v);
    const Real* src = global.field(v);
    for (DofIndex d : owned_dofs_) dst[d] = src[d];
  }
}

SimComm::Payload RankCtx::pack_owned() const {
  SimComm::Payload out;
  out.reserve(owned_dofs_.size() * kNumVars);
  for (int v = 0; v < kNumVars; ++v) {
    const Real* f = u_.field(v);
    for (DofIndex d : owned_dofs_) out.push_back(f[d]);
  }
  return out;
}

void RankCtx::post_exchange_lists(
    SimComm& comm, const bssn::BssnState& u, int tag,
    const std::vector<std::vector<DofIndex>>& send_to,
    const std::vector<std::vector<DofIndex>>& recv_from) {
  DGR_CHECK_MSG(pending_.empty(), "exchange already in flight");
  // Post receives first (as a real code would), then pack and send.
  for (int p : maps_.peers)
    if (!recv_from[p].empty())
      pending_.push_back(comm.irecv(rank_, p, tag, &recv_buf_[p]));
  for (int p : maps_.peers) {
    const auto& dofs = send_to[p];
    if (dofs.empty()) continue;
    SimComm::Payload payload;
    payload.reserve(dofs.size() * kNumVars);
    for (int v = 0; v < kNumVars; ++v) {
      const Real* f = u.field(v);
      for (DofIndex d : dofs) payload.push_back(f[d]);
    }
    pending_.push_back(comm.isend(rank_, p, tag, std::move(payload)));
  }
}

void RankCtx::finish_exchange_lists(
    SimComm& comm, bssn::BssnState& u,
    const std::vector<std::vector<DofIndex>>& recv_from) {
  comm.wait_all(rank_, pending_);
  pending_.clear();
  for (int p : maps_.peers) {
    const auto& dofs = recv_from[p];
    if (dofs.empty()) continue;
    SimComm::Payload& buf = recv_buf_[p];
    DGR_CHECK(buf.size() == dofs.size() * kNumVars);
    std::size_t off = 0;
    for (int v = 0; v < kNumVars; ++v) {
      Real* f = u.field(v);
      for (DofIndex d : dofs) f[d] = buf[off++];
    }
    buf.clear();
  }
}

void RankCtx::post_exchange(SimComm& comm, const bssn::BssnState& u,
                            int tag) {
  post_exchange_lists(comm, u, tag, maps_.send_to, maps_.recv_from);
}

void RankCtx::finish_exchange(SimComm& comm, bssn::BssnState& u) {
  finish_exchange_lists(comm, u, maps_.recv_from);
}

void RankCtx::build_depth_maps(const mesh::SubcycleIndex& idx) {
  const int nslots = idx.depths();
  const int nranks = static_cast<int>(recv_buf_.size());
  depth_send_.assign(
      static_cast<std::size_t>(nslots),
      std::vector<std::vector<DofIndex>>(static_cast<std::size_t>(nranks)));
  depth_recv_.assign(
      static_cast<std::size_t>(nslots),
      std::vector<std::vector<DofIndex>>(static_cast<std::size_t>(nranks)));
  // A DOF's cadence is its owner-octant depth on BOTH sides of an
  // exchange (sender and receiver agree on dof_depth — it is mesh
  // geometry), so the filtered lists stay pairwise consistent: a peer's
  // depth-d send list is exactly this rank's depth-d recv list.
  for (int p : maps_.peers) {
    for (DofIndex d : maps_.send_to[p])
      depth_send_[static_cast<std::size_t>(
                      static_cast<int>(idx.dof_depth[d]) - idx.dmin)][p]
          .push_back(d);
    for (DofIndex d : maps_.recv_from[p])
      depth_recv_[static_cast<std::size_t>(
                      static_cast<int>(idx.dof_depth[d]) - idx.dmin)][p]
          .push_back(d);
  }
  depth_interior_.assign(static_cast<std::size_t>(nslots), 0);
  depth_boundary_.assign(static_cast<std::size_t>(nslots), 0);
  const auto& leaves = mesh_->tree().leaves();
  for (OctIndex e : maps_.interior)
    ++depth_interior_[static_cast<std::size_t>(
        leaves[static_cast<std::size_t>(e)].level - idx.dmin)];
  for (OctIndex e : maps_.boundary)
    ++depth_boundary_[static_cast<std::size_t>(
        leaves[static_cast<std::size_t>(e)].level - idx.dmin)];
}

void RankCtx::post_exchange_depth(SimComm& comm, const bssn::BssnState& u,
                                  int tag, int slot) {
  DGR_CHECK(slot >= 0 && slot < static_cast<int>(depth_send_.size()));
  post_exchange_lists(comm, u, tag, depth_send_[static_cast<std::size_t>(slot)],
                      depth_recv_[static_cast<std::size_t>(slot)]);
}

void RankCtx::finish_exchange_depth(SimComm& comm, bssn::BssnState& u,
                                    int slot) {
  finish_exchange_lists(comm, u,
                        depth_recv_[static_cast<std::size_t>(slot)]);
}

solver::RhsPipeline& RankCtx::pipeline() {
  DGR_CHECK_MSG(pipeline_, "rank " << rank_
                                   << " was built schedule-only (no "
                                      "alloc_stages): it has no RHS pipeline");
  return *pipeline_;
}

void RankCtx::compute_rhs_interior(const bssn::BssnState& u,
                                   bssn::BssnState& rhs) {
  pipeline().compute(u, rhs, interior_runs_, nullptr);
}

void RankCtx::compute_rhs_boundary(const bssn::BssnState& u,
                                   bssn::BssnState& rhs) {
  pipeline().compute(u, rhs, boundary_runs_, nullptr);
}

}  // namespace dgr::dist
