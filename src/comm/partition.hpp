#pragma once
/// \file partition.hpp
/// \brief SFC-based mesh partitioning across simulated ranks and the
/// DOF-level ghost exchange maps — the distributed substrate behind the
/// strong/weak scaling studies (Figs. 17, 18, 20). The partitioner is real
/// (contiguous SFC ranges with work weights, as in Dendro); src/dist moves
/// the exchange through SimComm, where only the network is modeled.

#include <vector>

#include "common/types.hpp"
#include "mesh/mesh.hpp"

namespace dgr::comm {

/// A partition of the mesh's octants into contiguous SFC ranges.
struct RankPartition {
  int ranks = 1;
  std::vector<std::size_t> splits;        ///< size ranks+1, octant indices
  std::vector<double> work;               ///< per-rank work weight

  int rank_of(OctIndex e) const;
  std::size_t owned_begin(int r) const { return splits[r]; }
  std::size_t owned_end(int r) const { return splits[r + 1]; }
};

/// Partition with per-octant weight = 1 (octants carry equal kernel cost;
/// the RHS does not depend on level once patches are built, §V-A).
RankPartition partition_mesh(const mesh::Mesh& mesh, int ranks);

/// Rank-local ghost exchange maps at DOF granularity (Dendro-style ghost
/// nodes): exactly the deduplicated grid points a rank's unzip reads but
/// does not own, attributed to the owning peer. Both sides list the same
/// DOFs in ascending order, so the sender's pack order is the receiver's
/// unpack order and no index data travels with the payload.
struct ExchangeMaps {
  int rank = 0;
  std::vector<int> peers;  ///< distinct ranks exchanged with, ascending
  /// Per peer rank (size `ranks`): DOFs this rank needs that the peer owns.
  std::vector<std::vector<DofIndex>> recv_from;
  /// Per peer rank: DOFs this rank owns that the peer needs.
  std::vector<std::vector<DofIndex>> send_to;
  /// Remote octants adjacent to an owned octant (the octant-level halo).
  std::vector<OctIndex> ghost_octants;
  /// Owned octants whose full unzip read set (own points, adjacent sources,
  /// hanging-rule terms) is rank-local: safe to compute while the halo is
  /// in flight.
  std::vector<OctIndex> interior;
  /// Owned octants that read at least one remote DOF: must wait for the
  /// exchange to complete.
  std::vector<OctIndex> boundary;

  std::size_t recv_dofs() const {
    std::size_t n = 0;
    for (const auto& v : recv_from) n += v.size();
    return n;
  }
  std::size_t send_dofs() const {
    std::size_t n = 0;
    for (const auto& v : send_to) n += v.size();
    return n;
  }
};

/// Build the exchange maps of every rank at once (send lists are the
/// transpose of the peers' recv lists, so they need the global view).
/// A DOF is owned by the rank owning its owner octant (`mesh.dof_owner`);
/// ownership is disjoint and covers all DOFs.
std::vector<ExchangeMaps> build_exchange_maps(const mesh::Mesh& mesh,
                                              const RankPartition& part);

}  // namespace dgr::comm
