#include "bssn/constraints.hpp"

#include <cmath>

#include "bssn/state.hpp"
#include "common/error.hpp"

namespace dgr::bssn {

using mesh::kPad;
using mesh::kPatchPts;
using mesh::kR;
using mesh::patch_idx;

namespace {

void sym_inverse(const Real g[6], Real inv[6]) {
  const Real a = g[0], b = g[1], c = g[2], d = g[3], e = g[4], f = g[5];
  const Real det =
      a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c);
  const Real idet = 1.0 / det;
  inv[0] = (d * f - e * e) * idet;
  inv[1] = (c * e - b * f) * idet;
  inv[2] = (b * e - c * d) * idet;
  inv[3] = (a * f - c * c) * idet;
  inv[4] = (b * c - a * e) * idet;
  inv[5] = (a * d - b * b) * idet;
}

}  // namespace

void bssn_constraints_patch(const Real* const in[kNumVars],
                            const BssnParams& prm, const MetricDerivs& d,
                            Real* ham, Real* mom) {
  for (int kk = kPad; kk < kPad + kR; ++kk)
    for (int jj = kPad; jj < kPad + kR; ++jj)
      for (int ii = kPad; ii < kPad + kR; ++ii) {
        const int p = patch_idx(ii, jj, kk);
        const Real ch = std::max(in[kChi][p], prm.chi_floor);
        const Real Kt = in[kK][p];
        Real gt[6], At[6], gtu[6];
        for (int s = 0; s < 6; ++s) {
          gt[s] = in[kGtxx + s][p];
          At[s] = in[kAtxx + s][p];
        }
        sym_inverse(gt, gtu);
        auto GTU = [&](int i, int j) { return gtu[sym_idx(i, j)]; };
        auto GT = [&](int i, int j) { return gt[sym_idx(i, j)]; };
        auto ATl = [&](int i, int j) { return At[sym_idx(i, j)]; };

        Real d_ch[3], d_K[3], Gt[3];
        for (int a = 0; a < 3; ++a) {
          d_ch[a] = d.grad_of(kChi, a)[p];
          d_K[a] = d.grad_of(kK, a)[p];
          Gt[a] = in[kGt0 + a][p];
        }
        auto DGT = [&](int i, int j, int k) {
          return d.grad_of(kGtxx + sym_idx(i, j), k)[p];
        };
        auto DAT = [&](int i, int j, int k) {
          return d.grad_of(kAtxx + sym_idx(i, j), k)[p];
        };
        auto DDCH = [&](int i, int j) {
          return d.hess_of(kChi, sym_idx(i, j))[p];
        };
        auto DDGT = [&](int i, int j, int l, int m) {
          return d.hess_of(kGtxx + sym_idx(i, j), sym_idx(l, m))[p];
        };
        auto DGTV = [&](int i, int j) {  // d Gt^i / dx^j
          return d.grad_of(kGt0 + i, j)[p];
        };

        auto C1LOW = [&](int i, int j, int k) {
          return 0.5 * (DGT(i, j, k) + DGT(i, k, j) - DGT(j, k, i));
        };
        Real C1[3][6];
        for (int k = 0; k < 3; ++k)
          for (int i = 0; i < 3; ++i)
            for (int j = i; j < 3; ++j) {
              Real s = 0;
              for (int l = 0; l < 3; ++l) s += GTU(k, l) * C1LOW(l, i, j);
              C1[k][sym_idx(i, j)] = s;
            }
        auto C1R = [&](int k, int i, int j) { return C1[k][sym_idx(i, j)]; };

        // At^i_j, At^ij, At_ij At^ij.
        Real AtUD[3][3];
        for (int i = 0; i < 3; ++i)
          for (int j = 0; j < 3; ++j) {
            Real s = 0;
            for (int l = 0; l < 3; ++l) s += GTU(i, l) * ATl(l, j);
            AtUD[i][j] = s;
          }
        Real AtUU[6];
        for (int i = 0; i < 3; ++i)
          for (int j = i; j < 3; ++j) {
            Real s = 0;
            for (int l = 0; l < 3; ++l) s += AtUD[i][l] * GTU(l, j);
            AtUU[sym_idx(i, j)] = s;
          }
        auto ATU = [&](int i, int j) { return AtUU[sym_idx(i, j)]; };
        Real aTa = 0;
        for (int i = 0; i < 3; ++i)
          for (int j = 0; j < 3; ++j) aTa += ATl(i, j) * ATU(i, j);

        // Ricci (same algebra as the RHS kernel).
        Real Ric[6];
        {
          Real tr = 0;
          for (int k = 0; k < 3; ++k)
            for (int l = 0; l < 3; ++l)
              tr += GTU(k, l) *
                    (DDCH(k, l) - (3.0 / (2.0 * ch)) * d_ch[k] * d_ch[l]);
          for (int m = 0; m < 3; ++m) tr -= Gt[m] * d_ch[m];
          for (int i = 0; i < 3; ++i)
            for (int j = i; j < 3; ++j) {
              Real t1 = 0;
              for (int l = 0; l < 3; ++l)
                for (int m = 0; m < 3; ++m) t1 += GTU(l, m) * DDGT(i, j, l, m);
              t1 *= -0.5;
              Real t2 = 0;
              for (int k = 0; k < 3; ++k)
                t2 += GT(k, i) * DGTV(k, j) + GT(k, j) * DGTV(k, i);
              t2 *= 0.5;
              Real t3 = 0;
              for (int k = 0; k < 3; ++k)
                t3 += Gt[k] * (C1LOW(i, j, k) + C1LOW(j, i, k));
              t3 *= 0.5;
              Real t4 = 0;
              for (int l = 0; l < 3; ++l)
                for (int m = 0; m < 3; ++m) {
                  const Real g = GTU(l, m);
                  Real s = 0;
                  for (int k = 0; k < 3; ++k)
                    s += C1R(k, l, i) * C1LOW(j, k, m) +
                         C1R(k, l, j) * C1LOW(i, k, m) +
                         C1R(k, i, m) * C1LOW(k, l, j);
                  t4 += g * s;
                }
              Real Qij = DDCH(i, j);
              for (int k = 0; k < 3; ++k) Qij -= C1R(k, i, j) * d_ch[k];
              const Real Mij =
                  Qij / (2.0 * ch) - d_ch[i] * d_ch[j] / (4.0 * ch * ch);
              Ric[sym_idx(i, j)] =
                  t1 + t2 + t3 + t4 + Mij + GT(i, j) * tr / (2.0 * ch);
            }
        }
        Real Rscal = 0;
        for (int i = 0; i < 3; ++i)
          for (int j = 0; j < 3; ++j) Rscal += GTU(i, j) * Ric[sym_idx(i, j)];
        Rscal *= ch;  // physical gamma^ij = chi gtu^ij

        ham[p] = Rscal + (2.0 / 3.0) * Kt * Kt - aTa;

        // Momentum: M^i = dj At^ij + C1^i_jk At^jk - 3/(2chi) At^ij dj chi
        //                 - 2/3 gtu^ij dj K,  with
        // dj At^ij = gtu^ik gtu^jl dj At_kl - (gtu^ia gtu^kb dj gt_ab) gtu^jl
        //            At_kl - gtu^ik (gtu^ja gtu^lb dj gt_ab) At_kl.
        for (int i = 0; i < 3; ++i) {
          Real s = 0;
          for (int j = 0; j < 3; ++j)
            for (int k = 0; k < 3; ++k)
              for (int l = 0; l < 3; ++l) {
                s += GTU(i, k) * GTU(j, l) * DAT(k, l, j);
                // derivative of the inverse metrics
                Real dgtu_ik = 0, dgtu_jl = 0;
                for (int a = 0; a < 3; ++a)
                  for (int b = 0; b < 3; ++b) {
                    dgtu_ik -= GTU(i, a) * GTU(k, b) * DGT(a, b, j);
                    dgtu_jl -= GTU(j, a) * GTU(l, b) * DGT(a, b, j);
                  }
                s += dgtu_ik * GTU(j, l) * ATl(k, l);
                s += GTU(i, k) * dgtu_jl * ATl(k, l);
              }
          for (int j = 0; j < 3; ++j)
            for (int k = 0; k < 3; ++k) s += C1R(i, j, k) * ATU(j, k);
          for (int j = 0; j < 3; ++j) {
            s -= (3.0 / (2.0 * ch)) * ATU(i, j) * d_ch[j];
            s -= (2.0 / 3.0) * GTU(i, j) * d_K[j];
          }
          mom[i * kPatchPts + p] = s;
        }
      }
}

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
  MetricDerivWorkspace ws;
  ConstraintNorms norms;
  Real ham_sq = 0, mom_sq = 0;
  std::size_t npts = 0;

  // Serial, octant-order accumulation: the norms' bits depend on it.
  for (OctIndex e = 0; e < static_cast<OctIndex>(noct); ++e) {
    mesh.unzip(fields, nv, e, e + 1, patches.data());
    const mesh::PatchGeom geom = mesh.patch_geom(e);
    bssn_metric_deriv_stage(pin, geom.h, ws);
    bssn_constraints_patch(pin, params, MetricDerivs(ws), ham.data(),
                           mom.data());
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
