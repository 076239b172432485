#include "comm/partition.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "octree/octree.hpp"

namespace dgr::comm {

int RankPartition::rank_of(OctIndex e) const {
  const auto it = std::upper_bound(splits.begin(), splits.end(),
                                   static_cast<std::size_t>(e));
  return static_cast<int>(it - splits.begin()) - 1;
}

RankPartition partition_mesh(const mesh::Mesh& mesh, int ranks) {
  DGR_CHECK(ranks >= 1);
  RankPartition part;
  part.ranks = ranks;
  std::vector<double> weights(mesh.num_octants(), 1.0);
  part.splits = oct::sfc_partition(weights, ranks);
  part.work.assign(ranks, 0.0);
  for (int r = 0; r < ranks; ++r)
    part.work[r] =
        static_cast<double>(part.splits[r + 1] - part.splits[r]);
  return part;
}

std::vector<ExchangeMaps> build_exchange_maps(const mesh::Mesh& mesh,
                                              const RankPartition& part) {
  const int ranks = part.ranks;
  std::vector<ExchangeMaps> maps(ranks);

  // DOFs a source octant contributes when loaded: its non-hanging points
  // plus every term of its hanging-point interpolation rules (the rules are
  // resolved transitively at mesh build time, so terms are true DOFs).
  std::vector<DofIndex> buf;
  const auto append_octant_dofs = [&](OctIndex e) {
    const std::int64_t* map = mesh.o2n(e);
    for (int i = 0; i < mesh::kOctPts; ++i) {
      const std::int64_t v = map[i];
      if (v >= 0) {
        buf.push_back(v);
      } else {
        for (const auto& [dof, w] : mesh.hanging_rules()[-(v + 1)].terms) {
          (void)w;
          buf.push_back(dof);
        }
      }
    }
  };

  for (int r = 0; r < ranks; ++r) {
    ExchangeMaps& m = maps[r];
    m.rank = r;
    m.recv_from.assign(ranks, {});
    m.send_to.assign(ranks, {});
    std::set<OctIndex> ghosts;
    std::vector<std::set<DofIndex>> need(ranks);
    for (std::size_t b = part.owned_begin(r); b < part.owned_end(r); ++b) {
      const OctIndex ob = static_cast<OctIndex>(b);
      buf.clear();
      append_octant_dofs(ob);
      for (OctIndex e : mesh.adjacency(ob)) {
        append_octant_dofs(e);
        if (part.rank_of(e) != r) ghosts.insert(e);
      }
      bool local = true;
      for (DofIndex d : buf) {
        const int owner = part.rank_of(mesh.dof_owner(d));
        if (owner != r) {
          local = false;
          need[owner].insert(d);
        }
      }
      (local ? m.interior : m.boundary).push_back(ob);
    }
    m.ghost_octants.assign(ghosts.begin(), ghosts.end());
    for (int p = 0; p < ranks; ++p)
      m.recv_from[p].assign(need[p].begin(), need[p].end());
  }

  // Send lists are the transpose of the recv lists; peers follow.
  for (int r = 0; r < ranks; ++r)
    for (int p = 0; p < ranks; ++p) maps[p].send_to[r] = maps[r].recv_from[p];
  for (int r = 0; r < ranks; ++r)
    for (int p = 0; p < ranks; ++p)
      if (p != r &&
          (!maps[r].recv_from[p].empty() || !maps[r].send_to[p].empty()))
        maps[r].peers.push_back(p);
  return maps;
}

}  // namespace dgr::comm
