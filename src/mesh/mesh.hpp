#pragma once
/// \file mesh.hpp
/// \brief The AMR grid layer (paper §III-C, §IV-A): deduplicated
/// vertex-centered grid points over a balanced linear octree, hanging-point
/// interpolation rules, the O2N map, the O2P scatter plan and the zip runs
/// with their owned-row masks (all built once per mesh), and the
/// octant-to-patch / patch-to-octant operations in both the
/// loop-over-patches (baseline) and loop-over-octants (proposed) variants.
///
/// Grid layout. Each leaf octant carries a 7^3 vertex-centered block whose
/// boundary points are shared with neighbors ("duplicate points removed").
/// Points of a fine octant that lie on an interface to a coarser neighbor
/// but not on the coarse grid are "hanging": they are not degrees of
/// freedom; their values are obtained by degree-6 tensor-product Lagrange
/// interpolation of the coarse host octant's points (resolved transitively
/// to true DOFs at mesh build time).

#include <array>
#include <cstdint>
#include <vector>

#include "common/counters.hpp"
#include "common/types.hpp"
#include "mesh/patch.hpp"
#include "octree/octree.hpp"
#include "octree/refinement.hpp"

namespace dgr::mesh {

namespace detail {
/// Record kept per unique grid point during mesh construction.
struct PointRecord {
  bool hanging = false;
  std::int64_t dof = -1;   // assigned for non-hanging points
  std::int64_t hidx = -1;  // assigned for hanging points
  int owner_level = -1;    // finest octant level seeing this point
  OctIndex owner = kInvalidOct;
  oct::TreeNode host;      // coarse host octant (hanging points only)
};

/// One planned copy of source octant `src`'s values into a target's patch:
/// an n[0] x n[1] x n[2] box starting at patch index `dst`, read from the
/// source buffer at index `from` with step `stride` per axis. A same-level
/// source is read from its 7^3 block (stride 1), a finer one from its 7^3
/// block by injection (stride 2), a coarser one from its 13^3 fine covering
/// (stride 1).
struct ScatterBox {
  OctIndex src;
  std::array<std::int8_t, 3> dst;
  std::array<std::int8_t, 3> n;
  std::array<std::int8_t, 3> from;
  std::int8_t stride;
  bool fine;  ///< reads the source's fine covering (coarser source)
};

/// `n` owned DOFs dof, dof + 1, ... that an octant's zip copies from the
/// consecutive block indices block, block + 1, ... (oct_idx order, so a
/// run may continue across x-rows).
struct ZipRun {
  DofIndex dof;
  std::int32_t block;
  std::int32_t n;
};
}  // namespace detail

/// Strategy for computing padding zones (paper §IV-A, Fig. 7).
enum class UnzipMethod {
  kLoopOverOctants,  ///< proposed: each source scatters, one interpolation
  kLoopOverPatches,  ///< baseline: each patch gathers, redundant interpolation
};

/// One resolved hanging-point rule: value = sum_i weight_i * field[dof_i].
struct HangingRule {
  std::vector<std::pair<DofIndex, Real>> terms;
};

/// Physical geometry of an octant's 13^3 patch.
struct PatchGeom {
  std::array<Real, 3> origin;  ///< physical position of patch index (0,0,0)
  Real h;                      ///< physical grid spacing
};

class Mesh {
 public:
  /// Builds all maps for the given 2:1-balanced tree. Throws if the tree is
  /// not balanced (the precondition of the octant-to-patch cases).
  Mesh(oct::Octree tree, oct::Domain domain);

  const oct::Octree& tree() const { return tree_; }
  const oct::Domain& domain() const { return domain_; }

  std::size_t num_octants() const { return tree_.size(); }
  std::size_t num_dofs() const { return dof_pu_.size(); }
  std::size_t num_hanging() const { return hanging_rules_.size(); }

  /// Physical coordinates of a DOF.
  std::array<Real, 3> dof_position(DofIndex d) const;
  /// True if the DOF lies on the outer domain boundary.
  bool dof_on_boundary(DofIndex d) const;
  /// Point-unit coordinates of a DOF.
  const std::array<Pu, 3>& dof_pu(DofIndex d) const { return dof_pu_[d]; }

  /// Physical grid spacing of octant e.
  Real octant_spacing(OctIndex e) const;
  /// Smallest spacing on the mesh (sets the global timestep).
  Real finest_spacing() const;
  /// Patch geometry (origin/h) of octant e.
  PatchGeom patch_geom(OctIndex e) const;

  /// O2N map entry encoding: value >= 0 is a DOF index; value < 0 encodes
  /// hanging-rule index -(value+1).
  const std::int64_t* o2n(OctIndex e) const { return &o2n_[e * kOctPts]; }

  /// Unique neighbor octants over all 26 directions (the O2P adjacency).
  const std::vector<OctIndex>& adjacency(OctIndex e) const {
    return adjacency_[e];
  }

  /// Sample a scalar functor f(x,y,z) into a zipped field (size num_dofs()).
  void sample(const std::function<Real(Real, Real, Real)>& f,
              Real* field) const;

  /// Load the 7^3 values of octant e from a zipped field, resolving hanging
  /// points via their interpolation rules.
  void load_octant(const Real* field, OctIndex e, Real* out /*343*/) const;

  /// Octant-to-patch for octants [begin, end) and nvar fields.
  /// fields[v] points at the zipped data of variable v (num_dofs() reals);
  /// patches is laid out [(e - begin) * nvar + v] * kPatchPts, x fastest.
  /// Out-of-domain padding is filled by degree-4 extrapolation.
  void unzip(const Real* const* fields, int nvar, OctIndex begin, OctIndex end,
             Real* patches, UnzipMethod method = UnzipMethod::kLoopOverOctants,
             OpCounts* counts = nullptr) const;

  /// Variable slice of unzip: computes only variables [vbegin, vend) into
  /// the *same* patches layout (full nvar stride, relative to `begin`).
  /// Per-variable work is independent, so slices over a partition of
  /// [0, nvar) write disjoint patch regions and their OpCounts sum exactly
  /// to the full unzip's counts — the property the parallel host pipeline
  /// (src/exec) relies on for bitwise-stable modeled kernel times.
  void unzip_slice(const Real* const* fields, int nvar, int vbegin, int vend,
                   OctIndex begin, OctIndex end, Real* patches,
                   UnzipMethod method = UnzipMethod::kLoopOverOctants,
                   OpCounts* counts = nullptr) const;

  /// Patch-to-octant for octants [begin, end): copy each octant's 7^3
  /// output blocks back to the zipped fields. `blocks` is laid out
  /// [(e - begin) * nvar + v] * kOctPts, x fastest (oct_idx): the patch
  /// kernels write only the 7^3 interior of a patch, so that is all a
  /// block holds. Each DOF is written only by its owner octant (finest
  /// touching octant, SFC-first tie-break), so the result is
  /// deterministic. The write set of an octant is stored as runs of
  /// consecutive block indices onto consecutive DOFs, and each run is one
  /// copy; only points in owned_rows(b) are read.
  void zip(const Real* blocks, int nvar, OctIndex begin, OctIndex end,
           Real* const* fields, OpCounts* counts = nullptr) const;

  /// Convenience: full-mesh unzip/zip roundtrip helpers used by tests.
  void unzip_all(const Real* const* fields, int nvar, Real* patches,
                 UnzipMethod method = UnzipMethod::kLoopOverOctants,
                 OpCounts* counts = nullptr) const;

  /// The resolved hanging rules (exposed for tests).
  const std::vector<HangingRule>& hanging_rules() const {
    return hanging_rules_;
  }

  /// Owner octant of each DOF (exposed for partitioning / comm layers).
  OctIndex dof_owner(DofIndex d) const { return dof_owner_[d]; }

  /// The interior x-rows of octant e that hold at least one DOF e owns:
  /// the only patch rows zip(e) reads, so the only rows a patch kernel
  /// whose output is zipped needs to evaluate.
  RowMask owned_rows(OctIndex e) const { return owned_rows_[e]; }

 private:
  void build_points();
  void build_hanging_rules();
  void build_adjacency();
  /// The O2P scatter plan: per target octant, one box per source octant —
  /// the target itself first, then its neighbors in adjacency order. The
  /// order is the write order, so points on shared faces keep the value of
  /// their last writer.
  void build_scatter_plan();
  /// The box copying source e into target b's patch, derived point by point
  /// with exact integer arithmetic.
  detail::ScatterBox plan_box(OctIndex b, OctIndex e) const;

  /// Gather variant for one target patch (loop-over-patches baseline).
  void gather_patch(const Real* field, OctIndex b, Real* patch,
                    OpCounts* counts) const;

  /// Degree-4 extrapolation into out-of-domain patch planes.
  void fill_domain_boundary(OctIndex b, Real* patch, OpCounts* counts) const;

  oct::Octree tree_;
  oct::Domain domain_;

  std::vector<std::int64_t> o2n_;              // num_octants * 343
  std::vector<std::array<Pu, 3>> dof_pu_;      // per DOF
  std::vector<OctIndex> dof_owner_;            // per DOF
  std::vector<HangingRule> hanging_rules_;     // per hanging point
  std::vector<std::array<Pu, 3>> hanging_pu_;  // per hanging point
  // Raw hanging info needed to build rules (host octant per hanging point).
  std::vector<oct::TreeNode> hanging_host_;
  std::vector<std::vector<OctIndex>> adjacency_;  // per octant
  // Scatter plan: boxes of target b are plan_[plan_begin_[b], plan_begin_[b+1]).
  std::vector<detail::ScatterBox> plan_;
  std::vector<std::size_t> plan_begin_;
  // Zip write sets as runs: octant e's are
  // zip_runs_[zip_begin_[e], zip_begin_[e+1]), in local point order.
  std::vector<detail::ZipRun> zip_runs_;
  std::vector<std::size_t> zip_begin_;
  std::vector<RowMask> owned_rows_;  // per octant
  // Flops spent resolving hanging points when loading octant e (2 per
  // interpolation-rule term), charged to the octant-to-patch counters.
  std::vector<std::uint64_t> hanging_flops_;  // per octant
  // Transient point map, alive between build_points() and
  // build_hanging_rules() only.
  std::unordered_map<std::uint64_t, detail::PointRecord> pmap_for_rules_;
};

}  // namespace dgr::mesh
