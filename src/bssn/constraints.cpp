#include "bssn/constraints.hpp"

#include <cmath>

#include "bssn/gather_pack.hpp"
#include "bssn/state.hpp"
#include "simd/simd.hpp"

namespace dgr::bssn {

using mesh::kPad;
using mesh::kPatchPts;
using mesh::kR;
using mesh::patch_idx;

template <class S>
void bssn_constraints_point(const AlgebraInputs<S>& q, S& ham, S mom[3]) {
  const S zero = splat<S>(0.0);
  const S& ch = q.ch;
  const S& Kt = q.Kt;
  MetricRicci<S> g;
  metric_ricci(q, g);
  auto GTU = [&](int i, int j) { return g.gtu[sym_idx(i, j)]; };
  auto ATl = [&](int i, int j) { return q.At[sym_idx(i, j)]; };
  auto DGT = [&](int i, int j, int k) { return q.d_gt[sym_idx(i, j)][k]; };
  auto DAT = [&](int i, int j, int k) { return q.d_At[sym_idx(i, j)][k]; };
  auto C1R = [&](int k, int i, int j) { return g.C1[k][sym_idx(i, j)]; };

  // At^i_j, At^ij, At_ij At^ij.
  S AtUD[3][3];
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      S s = zero;
      for (int l = 0; l < 3; ++l) s = s + GTU(i, l) * ATl(l, j);
      AtUD[i][j] = s;
    }
  S AtUU[6];
  for (int i = 0; i < 3; ++i)
    for (int j = i; j < 3; ++j) {
      S s = zero;
      for (int l = 0; l < 3; ++l) s = s + AtUD[i][l] * GTU(l, j);
      AtUU[sym_idx(i, j)] = s;
    }
  auto ATU = [&](int i, int j) { return AtUU[sym_idx(i, j)]; };
  S aTa = zero;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) aTa = aTa + ATl(i, j) * ATU(i, j);

  S Rscal = zero;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      Rscal = Rscal + GTU(i, j) * g.Ric[sym_idx(i, j)];
  Rscal = Rscal * ch;  // physical gamma^ij = chi gtu^ij

  ham = Rscal + (2.0 / 3.0) * Kt * Kt - aTa;

  // Momentum: M^i = dj At^ij + C1^i_jk At^jk - 3/(2chi) At^ij dj chi
  //                 - 2/3 gtu^ij dj K,  with
  // dj At^ij = gtu^ik gtu^jl dj At_kl - (gtu^ia gtu^kb dj gt_ab) gtu^jl
  //            At_kl - gtu^ik (gtu^ja gtu^lb dj gt_ab) At_kl.
  for (int i = 0; i < 3; ++i) {
    S s = zero;
    for (int j = 0; j < 3; ++j)
      for (int k = 0; k < 3; ++k)
        for (int l = 0; l < 3; ++l) {
          s = s + GTU(i, k) * GTU(j, l) * DAT(k, l, j);
          // derivative of the inverse metrics
          S dgtu_ik = zero, dgtu_jl = zero;
          for (int a = 0; a < 3; ++a)
            for (int b = 0; b < 3; ++b) {
              dgtu_ik = dgtu_ik - GTU(i, a) * GTU(k, b) * DGT(a, b, j);
              dgtu_jl = dgtu_jl - GTU(j, a) * GTU(l, b) * DGT(a, b, j);
            }
          s = s + dgtu_ik * GTU(j, l) * ATl(k, l);
          s = s + GTU(i, k) * dgtu_jl * ATl(k, l);
        }
    for (int j = 0; j < 3; ++j)
      for (int k = 0; k < 3; ++k) s = s + C1R(i, j, k) * ATU(j, k);
    for (int j = 0; j < 3; ++j) {
      s = s - (3.0 / (2.0 * ch)) * ATU(i, j) * q.d_ch[j];
      s = s - (2.0 / 3.0) * GTU(i, j) * q.d_K[j];
    }
    mom[i] = s;
  }
}

template void bssn_constraints_point(const AlgebraInputs<Real>&, Real&,
                                     Real[3]);

template <int W>
void bssn_constraints_patch(const Real* const in[kNumVars], Real h,
                            Real chi_floor, MixedInnerSweeps& inner,
                            Real* ham, Real* mom) {
  using P = simd<Real, W>;
  inner.compute(in, h);
  const Real inv_h = 1.0 / h;
  const Real inv_h2 = 1.0 / (h * h);
  AlgebraInputs<P> q;
  P H, M[3];
  for_each_row_pack<W>(mesh::kAllRows,
                       [&](int p, int, int, int, int, int live) {
    bssn_gather_pack_metric(in, inner, p, inv_h, inv_h2, chi_floor, q);
    bssn_constraints_point(q, H, M);
    H.store_partial(ham + p, live);
    for (int i = 0; i < 3; ++i)
      M[i].store_partial(mom + i * kPatchPts + p, live);
  });
}

template void bssn_constraints_patch<1>(const Real* const[kNumVars], Real,
                                        Real, MixedInnerSweeps&, Real*,
                                        Real*);
template void bssn_constraints_patch<4>(const Real* const[kNumVars], Real,
                                        Real, MixedInnerSweeps&, Real*,
                                        Real*);

ConstraintNorms compute_constraint_norms(
    const mesh::Mesh& mesh, const BssnState& state, const BssnParams& params,
    const std::vector<std::array<Real, 3>>& excise_centers,
    Real excise_radius) {
  constexpr int nv = static_cast<int>(kMetricVars.size());
  const Real* fields[nv];
  for (int s = 0; s < nv; ++s) fields[s] = state.field(kMetricVars[s]);
  const std::size_t noct = mesh.num_octants();
  std::vector<Real> patches(nv * kPatchPts);
  const Real* pin[kNumVars];
  metric_patch_inputs(patches.data(), pin);
  std::vector<Real> ham(kPatchPts), mom(3 * kPatchPts);
  MixedInnerSweeps inner;
  const auto patch = simd_active_width() == 4 ? bssn_constraints_patch<4>
                                              : bssn_constraints_patch<1>;
  ConstraintNorms norms;
  Real ham_sq = 0, mom_sq = 0;
  std::size_t npts = 0;

  // Serial, octant-order accumulation: the norms' bits depend on it.
  for (OctIndex e = 0; e < static_cast<OctIndex>(noct); ++e) {
    mesh.unzip(fields, nv, e, e + 1, patches.data());
    const mesh::PatchGeom geom = mesh.patch_geom(e);
    patch(pin, geom.h, params.chi_floor, inner, ham.data(), mom.data());
    for (int kk = kPad; kk < kPad + kR; ++kk)
      for (int jj = kPad; jj < kPad + kR; ++jj)
        for (int ii = kPad; ii < kPad + kR; ++ii) {
          const Real x = geom.origin[0] + ii * geom.h;
          const Real y = geom.origin[1] + jj * geom.h;
          const Real z = geom.origin[2] + kk * geom.h;
          bool excised = false;
          for (const auto& c : excise_centers) {
            const Real dx = x - c[0], dy = y - c[1], dz = z - c[2];
            if (dx * dx + dy * dy + dz * dz < excise_radius * excise_radius)
              excised = true;
          }
          if (excised) continue;
          const int p = patch_idx(ii, jj, kk);
          const Real h2 = ham[p] * ham[p];
          Real m2 = 0;
          for (int i = 0; i < 3; ++i)
            m2 += mom[i * kPatchPts + p] * mom[i * kPatchPts + p];
          ham_sq += h2;
          mom_sq += m2;
          norms.ham_linf = std::max(norms.ham_linf, std::abs(ham[p]));
          norms.mom_linf = std::max(norms.mom_linf, std::sqrt(m2));
          ++npts;
        }
  }
  if (npts > 0) {
    norms.ham_l2 = std::sqrt(ham_sq / npts);
    norms.mom_l2 = std::sqrt(mom_sq / npts);
  }
  return norms;
}

}  // namespace dgr::bssn
