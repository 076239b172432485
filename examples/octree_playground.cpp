/// \file octree_playground.cpp
/// \brief The AMR substrate on its own: build, balance, remesh and
/// partition linear octrees; inspect the mesh maps the solver runs on.
///
///   ./build/examples/octree_playground

#include <cstdio>
#include <memory>

#include "comm/partition.hpp"
#include "mesh/mesh.hpp"
#include "octree/refinement.hpp"

int main() {
  using namespace dgr;

  // Build: refine toward a point until level 5 — intentionally unbalanced.
  const oct::Coord c = oct::kDomainSize / 2 - 1;
  oct::Octree raw = oct::Octree::build(
      [&](const oct::TreeNode& t) {
        return t.contains_point(c, c, c) ? oct::Refine::kSplit
                                         : oct::Refine::kKeep;
      },
      5);
  std::printf("raw tree:      %4zu leaves, levels %d..%d, balanced: %s\n",
              raw.size(), raw.min_level(), raw.max_level(),
              raw.is_balanced() ? "yes" : "no");

  // 2:1 balance (the Algorithm 2 precondition).
  oct::Octree balanced = raw.balanced();
  std::printf("balanced tree: %4zu leaves, levels %d..%d, balanced: %s\n",
              balanced.size(), balanced.min_level(), balanced.max_level(),
              balanced.is_balanced() ? "yes" : "no");

  // Remesh: coarsen everything one notch (complete sibling octets only).
  std::vector<oct::RemeshFlag> flags(balanced.size(),
                                     oct::RemeshFlag::kCoarsen);
  oct::Octree coarser = balanced.remesh(flags);
  std::printf("after coarsen: %4zu leaves\n", coarser.size());

  // The grid layer: deduplicated points, hanging nodes, patch maps.
  oct::Domain dom{32.0};
  mesh::Mesh mesh(balanced, dom);
  std::printf(
      "mesh: %zu octants -> %zu unique points (%zu hanging), finest h = "
      "%.4f\n",
      mesh.num_octants(), mesh.num_dofs(), mesh.num_hanging(),
      mesh.finest_spacing());
  std::size_t adj = 0;
  for (OctIndex e = 0; e < OctIndex(mesh.num_octants()); ++e)
    adj += mesh.adjacency(e).size();
  std::printf("average O2P adjacency: %.1f neighbors per octant\n",
              double(adj) / mesh.num_octants());

  // Space-filling-curve partition across 4 simulated ranks with the
  // DOF-level ghost exchange each rank runs per RHS evaluation.
  const auto part = comm::partition_mesh(mesh, 4);
  const auto maps = comm::build_exchange_maps(mesh, part);
  for (int r = 0; r < 4; ++r)
    std::printf(
        "rank %d: %4.0f octants, ghost layer %3zu octants, sends %6zu DOFs "
        "to %zu peer(s)\n",
        r, part.work[r], maps[r].ghost_octants.size(), maps[r].send_dofs(),
        maps[r].peers.size());
  return 0;
}
