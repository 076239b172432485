#pragma once
/// \file mesh_fixtures.hpp
/// \brief Small meshes shared by the grid-layer and patch-kernel tests:
/// uniform, two-level, an irregular adaptive one and one whose coarse-fine
/// jump runs into the outer boundary.

#include "mesh/mesh.hpp"

namespace dgr::mesh {

inline Mesh make_uniform_mesh(int level, Real half = 1.0) {
  return Mesh(oct::Octree::uniform(level), oct::Domain{half});
}

/// Two-level mesh: root split once, child 0 split again (balanced).
inline Mesh make_two_level_mesh(Real half = 1.0) {
  std::vector<oct::TreeNode> leaves;
  for (int c = 1; c < 8; ++c) leaves.push_back(oct::TreeNode{}.child(c));
  for (int c = 0; c < 8; ++c)
    leaves.push_back(oct::TreeNode{}.child(0).child(c));
  return Mesh(oct::Octree{leaves}, oct::Domain{half});
}

inline Mesh make_adaptive_mesh(Real half = 1.0) {
  oct::Octree t = oct::Octree::build(
      [&](const oct::TreeNode& n) {
        // Refine around an off-center point for an irregular structure.
        const oct::Coord c = oct::kDomainSize / 4;
        return n.contains_point(c, c / 2, c / 4) && n.level < 4
                   ? oct::Refine::kSplit
                   : oct::Refine::kKeep;
      },
      4);
  return Mesh(t.balanced(), oct::Domain{half});
}

/// Level-2 mesh whose octants on the x = -1 face with y < 0 are split once
/// more: the coarse-fine jump at y = 0 runs into the outer boundary.
inline Mesh make_boundary_jump_mesh(Real half = 1.0) {
  oct::Octree t = oct::Octree::build(
      [](const oct::TreeNode& n) {
        const bool fine_zone = n.x == 0 && n.y < oct::kDomainSize / 2;
        return n.level < 2 || (n.level < 3 && fine_zone)
                   ? oct::Refine::kSplit
                   : oct::Refine::kKeep;
      },
      3);
  return Mesh(t.balanced(), oct::Domain{half});
}

}  // namespace dgr::mesh
