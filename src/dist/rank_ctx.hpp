#pragma once
/// \file rank_ctx.hpp
/// \brief Per-rank view of the mesh for the simulated distributed engine:
/// the rank's contiguous SFC range from comm::RankPartition, its ghost
/// octants and DOF-granularity send/recv maps (comm::ExchangeMaps), the
/// interior/boundary octant split that enables overlap, and the rank-local
/// zipped state. State vectors are globally indexed (full length) for
/// simplicity — the rank only ever reads its owned + ghost entries and
/// only ever writes its owned entries, which is what makes the N-rank
/// result bitwise-identical to the single-rank pipeline.

#include <memory>
#include <optional>
#include <vector>

#include "bssn/state.hpp"
#include "comm/partition.hpp"
#include "dist/sim_comm.hpp"
#include "mesh/subcycle_index.hpp"
#include "solver/bssn_ctx.hpp"

namespace dgr::dist {

class RankCtx {
 public:
  /// `alloc_stages` builds what executing the RK steps needs: the RHS
  /// pipeline (with its patch buffers) and the RK scratch states (k1..k4
  /// and the stage vector). Schedule-only runs skip them all.
  RankCtx(int rank, std::shared_ptr<const mesh::Mesh> mesh,
          const comm::RankPartition& part, comm::ExchangeMaps maps,
          const solver::SolverConfig& scfg, bool alloc_stages);

  int rank() const { return rank_; }
  const comm::ExchangeMaps& maps() const { return maps_; }
  const std::vector<DofIndex>& owned_dofs() const { return owned_dofs_; }
  std::size_t owned_octants() const { return owned_end_ - owned_begin_; }
  std::size_t interior_octants() const { return maps_.interior.size(); }
  std::size_t boundary_octants() const { return maps_.boundary.size(); }

  bssn::BssnState& state() { return u_; }
  bssn::BssnState& k(int s) { return k_[s]; }
  bssn::BssnState& stage() { return stage_; }

  /// Smallest octant spacing this rank owns (+inf when it owns nothing);
  /// allreduce_min over ranks reproduces mesh.finest_spacing() exactly.
  double local_finest_spacing() const;

  /// Copy the rank's owned DOF values out of a global state (initial
  /// scatter and post-regrid redistribution); all other entries are zero.
  void adopt_owned(const bssn::BssnState& global);

  /// Serialize the owned DOF values (var-major, DOFs ascending) — the
  /// allgather payload for regrid and result collection.
  SimComm::Payload pack_owned() const;

  /// Post the ghost exchange for state `u`: one irecv per sending peer and
  /// one packed isend per receiving peer. `tag` disambiguates RK stages.
  void post_exchange(SimComm& comm, const bssn::BssnState& u, int tag);

  /// Complete the posted exchange and unpack the peers' payloads into the
  /// ghost DOF entries of `u`.
  void finish_exchange(SimComm& comm, bssn::BssnState& u);

  /// RHS over the interior octants only (safe while the halo is in
  /// flight) / over the boundary octants only (requires finished halo).
  /// Both throw dgr::Error on a rank built without `alloc_stages`.
  void compute_rhs_interior(const bssn::BssnState& u, bssn::BssnState& rhs);
  void compute_rhs_boundary(const bssn::BssnState& u, bssn::BssnState& rhs);

  /// Depth-local sub-cycling support (schedule-only engine mode): split
  /// the send/recv DOF lists and interior/boundary octant counts by
  /// refinement depth, so each depth's halo exchange carries only the DOFs
  /// advancing on its cadence and each depth's compute advance reflects
  /// only its own octants. Depth slots index as depth - idx.dmin.
  void build_depth_maps(const mesh::SubcycleIndex& idx);
  std::size_t interior_octants_depth(int slot) const {
    return depth_interior_[static_cast<std::size_t>(slot)];
  }
  std::size_t boundary_octants_depth(int slot) const {
    return depth_boundary_[static_cast<std::size_t>(slot)];
  }
  void post_exchange_depth(SimComm& comm, const bssn::BssnState& u, int tag,
                           int slot);
  void finish_exchange_depth(SimComm& comm, bssn::BssnState& u, int slot);

 private:
  solver::RhsPipeline& pipeline();
  void post_exchange_lists(SimComm& comm, const bssn::BssnState& u, int tag,
                           const std::vector<std::vector<DofIndex>>& send_to,
                           const std::vector<std::vector<DofIndex>>& recv_from);
  void finish_exchange_lists(
      SimComm& comm, bssn::BssnState& u,
      const std::vector<std::vector<DofIndex>>& recv_from);

  int rank_;
  std::shared_ptr<const mesh::Mesh> mesh_;
  comm::ExchangeMaps maps_;
  std::size_t owned_begin_ = 0, owned_end_ = 0;
  std::vector<DofIndex> owned_dofs_;
  std::vector<solver::OctRange> interior_runs_, boundary_runs_;
  std::optional<solver::RhsPipeline> pipeline_;  // only with alloc_stages
  bssn::BssnState u_, k_[4], stage_;
  // In-flight exchange bookkeeping.
  std::vector<SimComm::Request> pending_;
  std::vector<SimComm::Payload> recv_buf_;  // per peer rank
  // Per-depth filtered exchange lists [slot][peer] and octant counts
  // [slot] (populated by build_depth_maps).
  std::vector<std::vector<std::vector<DofIndex>>> depth_send_, depth_recv_;
  std::vector<std::size_t> depth_interior_, depth_boundary_;
};

/// Collapse a sorted octant list into maximal contiguous [begin, end) runs.
std::vector<solver::OctRange> runs_of(const std::vector<OctIndex>& octs);

}  // namespace dgr::dist
