#include "mesh/sampling.hpp"

#include <algorithm>
#include <cmath>

#include "mesh/interp.hpp"

namespace dgr::mesh {

OctIndex PointSampler::locate(Real x, Real y, Real z,
                              std::array<Real, 3>& t) const {
  const oct::Domain& dom = mesh_.domain();
  const Real H = dom.half_extent;
  // Map to the dyadic coordinate system and clamp inside.
  const Real scale = oct::kDomainSize / (2.0 * H);
  Real c[3] = {(x + H) * scale, (y + H) * scale, (z + H) * scale};
  for (int a = 0; a < 3; ++a)
    c[a] = std::clamp(c[a], 0.0, oct::kDomainSize - 1e-9);
  const OctIndex e = mesh_.tree().find_leaf(
      static_cast<oct::Coord>(c[0]), static_cast<oct::Coord>(c[1]),
      static_cast<oct::Coord>(c[2]));
  const oct::TreeNode& leaf = mesh_.tree().leaf(e);
  const Real edge = leaf.edge();
  const Real anchor[3] = {Real(leaf.x), Real(leaf.y), Real(leaf.z)};
  for (int a = 0; a < 3; ++a) {
    t[a] = (c[a] - anchor[a]) / edge * (kR - 1);
    t[a] = std::clamp(t[a], 0.0, Real(kR - 1));
  }
  return e;
}

Real PointSampler::evaluate(const Real* field, Real x, Real y, Real z) {
  Real out;
  evaluate_many(&field, 1, x, y, z, &out);
  return out;
}

void PointSampler::evaluate_many(const Real* const* fields, int nvar, Real x,
                                 Real y, Real z, Real* out) {
  std::array<Real, 3> t;
  const OctIndex e = locate(x, y, z, t);
  Real w[3][kR];
  for (int a = 0; a < 3; ++a)
    for (int m = 0; m < kR; ++m)
      w[a][m] = Prolongation::lagrange(m, t[a]);
  if (cached_oct_ != e ||
      !std::equal(fields, fields + nvar, cached_fields_.begin(),
                  cached_fields_.end())) {
    cached_oct_ = e;
    cached_fields_.assign(fields, fields + nvar);
    cached_vals_.resize(static_cast<std::size_t>(nvar) * kOctPts);
    for (int v = 0; v < nvar; ++v)
      mesh_.load_octant(fields[v], e, &cached_vals_[v * kOctPts]);
  }
  for (int v = 0; v < nvar; ++v) {
    const Real* vals = &cached_vals_[v * kOctPts];
    Real s = 0;
    for (int k = 0; k < kR; ++k) {
      Real sk = 0;
      for (int j = 0; j < kR; ++j) {
        Real sj = 0;
        for (int i = 0; i < kR; ++i)
          sj += w[0][i] * vals[oct_idx(i, j, k)];
        sk += w[1][j] * sj;
      }
      s += w[2][k] * sk;
    }
    out[v] = s;
  }
}

}  // namespace dgr::mesh
