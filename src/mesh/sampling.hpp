#pragma once
/// \file sampling.hpp
/// \brief Evaluation of zipped fields at arbitrary physical points via
/// degree-6 tensor-product Lagrange interpolation inside the containing
/// octant. Used by the gravitational-wave extraction spheres (paper §III-A,
/// Fig. 4), the puncture tracker, and solver::transfer_state's fallback for
/// octants with no octree relation to the source mesh.

#include <array>
#include <vector>

#include "common/types.hpp"
#include "mesh/mesh.hpp"

namespace dgr::mesh {

/// Evaluates one or more zipped fields at arbitrary points, caching the
/// values of the most recently loaded octant for every field of the last
/// query (consecutive queries tend to cluster).
class PointSampler {
 public:
  explicit PointSampler(const Mesh& mesh) : mesh_(mesh) {}

  /// Value of `field` at physical (x, y, z). Points outside the domain are
  /// clamped to it. Exact (to roundoff) when the point lies on the grid of
  /// its containing octant; degree-6 interpolation otherwise.
  Real evaluate(const Real* field, Real x, Real y, Real z);

  /// Evaluate several fields at once: one octant lookup, and each field's
  /// octant values loaded once while queries stay in the same octant with
  /// the same field list. Each out[v] is bitwise what evaluate(fields[v],
  /// x, y, z) returns.
  void evaluate_many(const Real* const* fields, int nvar, Real x, Real y,
                     Real z, Real* out);

 private:
  /// Locate the octant and the local normalized coordinates t in [0, 6]^3.
  OctIndex locate(Real x, Real y, Real z, std::array<Real, 3>& t) const;

  const Mesh& mesh_;
  // Cache key (octant, field list) and the 343 values per cached field.
  OctIndex cached_oct_ = kInvalidOct;
  std::vector<const Real*> cached_fields_;
  std::vector<Real> cached_vals_;
};

}  // namespace dgr::mesh
