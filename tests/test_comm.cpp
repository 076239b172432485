/// \file test_comm.cpp
/// \brief SFC partitioning and the DOF-level ghost exchange maps.

#include <gtest/gtest.h>

#include <memory>

#include "comm/partition.hpp"
#include "octree/refinement.hpp"

namespace dgr::comm {
namespace {

using mesh::Mesh;
using oct::Domain;
using oct::Octree;

Mesh make_mesh(int level = 2) { return Mesh(Octree::uniform(level), Domain{1.0}); }

Mesh make_adaptive() {
  Domain dom{8.0};
  return Mesh(oct::build_puncture_octree(dom, {{{0.05, 0.03, 0.01}, 5}}, 2),
              dom);
}

TEST(Partition, SplitsCoverAllOctants) {
  Mesh m = make_mesh();
  for (int ranks : {1, 2, 4, 7}) {
    const auto part = partition_mesh(m, ranks);
    ASSERT_EQ(part.splits.size(), std::size_t(ranks + 1));
    EXPECT_EQ(part.splits.front(), 0u);
    EXPECT_EQ(part.splits.back(), m.num_octants());
    double total_work = 0;
    for (double w : part.work) total_work += w;
    EXPECT_DOUBLE_EQ(total_work, double(m.num_octants()));
  }
}

TEST(Partition, RankOfIsConsistentWithSplits) {
  Mesh m = make_mesh();
  const auto part = partition_mesh(m, 4);
  for (OctIndex e = 0; e < OctIndex(m.num_octants()); ++e) {
    const int r = part.rank_of(e);
    EXPECT_GE(std::size_t(e), part.owned_begin(r));
    EXPECT_LT(std::size_t(e), part.owned_end(r));
  }
}

TEST(Partition, UniformMeshBalanced) {
  Mesh m = make_mesh(2);  // 64 octants
  const auto part = partition_mesh(m, 4);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(part.work[r], 16.0);
}

TEST(Partition, SingleRankHasNoGhosts) {
  Mesh m = make_mesh();
  const auto maps = build_exchange_maps(m, partition_mesh(m, 1));
  EXPECT_TRUE(maps[0].ghost_octants.empty());
  EXPECT_EQ(maps[0].send_dofs(), 0u);
  EXPECT_EQ(maps[0].recv_dofs(), 0u);
  EXPECT_TRUE(maps[0].peers.empty());
}

TEST(Partition, GhostLayerGrowsSublinearly) {
  // Surface-to-volume: per-rank ghost fraction grows with ranks, but the
  // ghost layer stays well below the owned octant count for few ranks.
  Mesh m = make_adaptive();
  const auto p2 = build_exchange_maps(m, partition_mesh(m, 2));
  const auto p8 = build_exchange_maps(m, partition_mesh(m, 8));
  for (int r = 0; r < 2; ++r) {
    EXPECT_GT(p2[r].ghost_octants.size(), 0u);
    EXPECT_LT(p2[r].ghost_octants.size(), m.num_octants() / 2);
  }
  std::size_t g2 = 0, g8 = 0;
  for (const auto& x : p2) g2 += x.ghost_octants.size();
  for (const auto& x : p8) g8 += x.ghost_octants.size();
  EXPECT_GT(g8, g2);  // more ranks -> more total halo
}

TEST(ExchangeMaps, InteriorOctantsReadOnlyLocalDofs) {
  // The overlap schedule computes interior octants while the halo is in
  // flight — their full unzip read set (own points, adjacent sources,
  // hanging-rule terms) must be rank-local.
  Mesh m = make_adaptive();
  const auto part = partition_mesh(m, 4);
  const auto maps = build_exchange_maps(m, part);
  for (int r = 0; r < 4; ++r) {
    for (OctIndex b : maps[r].interior) {
      std::vector<OctIndex> sources = {b};
      for (OctIndex e : m.adjacency(b)) sources.push_back(e);
      for (OctIndex e : sources) {
        const std::int64_t* o2n = m.o2n(e);
        for (int i = 0; i < mesh::kOctPts; ++i) {
          if (o2n[i] >= 0) {
            EXPECT_EQ(part.rank_of(m.dof_owner(o2n[i])), r);
          } else {
            for (const auto& [dof, w] :
                 m.hanging_rules()[-(o2n[i] + 1)].terms) {
              (void)w;
              EXPECT_EQ(part.rank_of(m.dof_owner(dof)), r);
            }
          }
        }
      }
    }
    // Boundary octants exist wherever the rank has peers.
    if (!maps[r].peers.empty()) {
      EXPECT_FALSE(maps[r].boundary.empty());
    }
  }
}

}  // namespace
}  // namespace dgr::comm
