#pragma once
/// \file patch.hpp
/// \brief Grid-point and patch geometry constants (paper §III-C): each leaf
/// octant carries r^3 = 7^3 vertex-centered grid points; padded with k = 3
/// ghost points per side it becomes a 13^3 "patch" on which the 6th-order
/// stencils are applied.

#include <array>

#include "common/types.hpp"
#include "octree/treenode.hpp"

namespace dgr::mesh {

inline constexpr int kR = 7;                ///< grid points per octant per axis
inline constexpr int kPad = 3;              ///< padding points per side
inline constexpr int kPatch = kR + 2 * kPad;///< patch extent per axis (13)
inline constexpr int kOctPts = kR * kR * kR;        ///< 343
inline constexpr int kPatchPts = kPatch * kPatch * kPatch;  ///< 2197
/// Extent of an octant prolonged to half spacing (its fine covering).
inline constexpr int kFine = 2 * kR - 1;    ///< 13 (same as kPatch by design)

/// Linear index into a 7^3 octant block (x fastest).
constexpr int oct_idx(int ix, int iy, int iz) {
  return (iz * kR + iy) * kR + ix;
}

/// Linear index into a 13^3 patch (x fastest).
constexpr int patch_idx(int ix, int iy, int iz) {
  return (iz * kPatch + iy) * kPatch + ix;
}

/// A set of interior x-rows of a patch: bit k * kR + j stands for the kR
/// interior points at octant-local (y, z) = (j, k).
using RowMask = std::uint64_t;
inline constexpr RowMask kAllRows = (RowMask(1) << (kR * kR)) - 1;

/// Whether interior row (j, k) (octant-local, 0..kR-1) is in `rows`.
constexpr bool has_row(RowMask rows, int j, int k) {
  return (rows >> (k * kR + j)) & 1;
}

/// Point-unit coordinate system: dyadic octree coordinates scaled by
/// (kR - 1) = 6, so that every octant grid point has exact integer
/// coordinates. An octant at level l has point spacing
/// 2^(kMaxDepth - l) point units, and fine/coarse points coincide exactly.
using Pu = std::int32_t;

inline constexpr Pu kPuPerDyadic = kR - 1;  // 6
inline constexpr Pu kPuDomain =
    static_cast<Pu>(kPuPerDyadic) * static_cast<Pu>(oct::kDomainSize);

/// Point spacing (in point units) of a level-l octant.
constexpr Pu spacing_pu(int level) {
  return static_cast<Pu>(oct::kDomainSize >> level);
}

/// Anchor of an octant in point units.
inline std::array<Pu, 3> anchor_pu(const oct::TreeNode& t) {
  return {static_cast<Pu>(kPuPerDyadic * t.x),
          static_cast<Pu>(kPuPerDyadic * t.y),
          static_cast<Pu>(kPuPerDyadic * t.z)};
}

/// Packed 64-bit key of a point-unit coordinate (21 bits per axis).
constexpr std::uint64_t point_key(Pu x, Pu y, Pu z) {
  return (static_cast<std::uint64_t>(x) << 42) |
         (static_cast<std::uint64_t>(y) << 21) | static_cast<std::uint64_t>(z);
}

}  // namespace dgr::mesh
