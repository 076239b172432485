#include "gw/psi4.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "exec_space/bssn_sweeps.hpp"

namespace dgr::gw {

using namespace dgr::bssn;
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

constexpr Real eps_sym(int i, int j, int k) {
  return Real(((i - j) * (j - k) * (k - i))) / 2.0;  // Levi-Civita symbol
}

}  // namespace

void psi4_patch(const Real* const in[kNumVars], const mesh::PatchGeom& geom,
                const BssnParams& prm, const MetricDerivs& d, Real* out_re,
                Real* out_im, Real r_min, mesh::RowMask rows) {
  for (int kk = kPad; kk < kPad + kR; ++kk)
    for (int jj = kPad; jj < kPad + kR; ++jj) {
      if (!mesh::has_row(rows, jj - kPad, kk - kPad)) continue;
      for (int ii = kPad; ii < kPad + kR; ++ii) {
        const int p = patch_idx(ii, jj, kk);
        const Real px = geom.origin[0] + ii * geom.h;
        const Real py = geom.origin[1] + jj * geom.h;
        const Real pz = geom.origin[2] + kk * geom.h;
        const Real r = std::sqrt(px * px + py * py + pz * pz);
        if (r < r_min) {
          out_re[p] = 0;
          out_im[p] = 0;
          continue;
        }

        const Real ch = std::max(in[kChi][p], prm.chi_floor);
        const Real Kt = in[kK][p];
        Real gt[6], At[6], gtu[6], Gt[3];
        for (int s = 0; s < 6; ++s) {
          gt[s] = in[kGtxx + s][p];
          At[s] = in[kAtxx + s][p];
        }
        for (int i = 0; i < 3; ++i) Gt[i] = in[kGt0 + i][p];
        sym_inverse(gt, gtu);
        auto GTU = [&](int i, int j) { return gtu[sym_idx(i, j)]; };
        auto GT = [&](int i, int j) { return gt[sym_idx(i, j)]; };
        auto ATl = [&](int i, int j) { return At[sym_idx(i, j)]; };

        Real d_ch[3], d_K[3];
        for (int a = 0; a < 3; ++a) {
          d_ch[a] = d.grad_of(kChi, a)[p];
          d_K[a] = d.grad_of(kK, a)[p];
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
        auto DGTV = [&](int i, int j) { return d.grad_of(kGt0 + i, j)[p]; };

        Real C1low[3][6];
        for (int i = 0; i < 3; ++i)
          for (int j = 0; j < 3; ++j)
            for (int k = j; k < 3; ++k)
              C1low[i][sym_idx(j, k)] =
                  0.5 * (DGT(i, j, k) + DGT(i, k, j) - DGT(j, k, i));
        auto C1LOW = [&](int i, int j, int k) {
          return C1low[i][sym_idx(j, k)];
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

        // Physical Ricci (conformal + chi parts, as in the RHS kernel).
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
        auto RIC = [&](int i, int j) { return Ric[sym_idx(i, j)]; };

        // Physical metric / extrinsic curvature.
        auto GAM = [&](int i, int j) { return GT(i, j) / ch; };
        auto GAMU = [&](int i, int j) { return ch * GTU(i, j); };
        Real Kdd[6];
        for (int i = 0; i < 3; ++i)
          for (int j = i; j < 3; ++j)
            Kdd[sym_idx(i, j)] =
                (ATl(i, j) + GT(i, j) * Kt / 3.0) / ch;
        auto KDD = [&](int i, int j) { return Kdd[sym_idx(i, j)]; };

        // Electric Weyl part: E_ij = R_ij + K K_ij - K_ik K^k_j.
        Real KUD[3][3];  // K^k_j
        for (int k = 0; k < 3; ++k)
          for (int j = 0; j < 3; ++j) {
            Real s = 0;
            for (int l = 0; l < 3; ++l) s += GAMU(k, l) * KDD(l, j);
            KUD[k][j] = s;
          }
        Real E[6];
        for (int i = 0; i < 3; ++i)
          for (int j = i; j < 3; ++j) {
            Real s = RIC(i, j) + Kt * KDD(i, j);
            for (int k = 0; k < 3; ++k) s -= KDD(i, k) * KUD[k][j];
            E[sym_idx(i, j)] = s;
          }

        // Physical Christoffel (Eq. 13).
        Real Cf[3][6];
        for (int k = 0; k < 3; ++k)
          for (int i = 0; i < 3; ++i)
            for (int j = i; j < 3; ++j) {
              Real corr = 0;
              if (k == i) corr += d_ch[j];
              if (k == j) corr += d_ch[i];
              Real up = 0;
              for (int l = 0; l < 3; ++l) up += GTU(k, l) * d_ch[l];
              corr -= GT(i, j) * up;
              Cf[k][sym_idx(i, j)] = C1R(k, i, j) - corr / (2.0 * ch);
            }
        auto CF = [&](int k, int i, int j) { return Cf[k][sym_idx(i, j)]; };

        // D_k K_lj = partial_k K_lj - Cf^m_kl K_mj - Cf^m_kj K_lm, with
        // partial_k K_lj from the product rule on (At + gt K/3)/chi.
        Real DK[3][3][3];  // [k][l][j]
        for (int k = 0; k < 3; ++k)
          for (int l = 0; l < 3; ++l)
            for (int j = l; j < 3; ++j) {
              Real dk = (DAT(l, j, k) + DGT(l, j, k) * Kt / 3.0 +
                         GT(l, j) * d_K[k] / 3.0) /
                            ch -
                        KDD(l, j) * d_ch[k] / ch;
              for (int m = 0; m < 3; ++m)
                dk -= CF(m, k, l) * KDD(m, j) + CF(m, k, j) * KDD(l, m);
              DK[k][l][j] = dk;
              DK[k][j][l] = dk;
            }

        // Magnetic Weyl: B_ij = eps_i^{kl} D_k K_lj (symmetrized), with
        // eps_i^{kl} = sqrt(gamma) gamma^{ka} gamma^{lb} eps_{iab} and
        // sqrt(gamma) = chi^{-3/2} (det gt = 1).
        const Real sqrtg = std::pow(ch, -1.5);
        Real B[3][3];
        for (int i = 0; i < 3; ++i)
          for (int j = 0; j < 3; ++j) {
            Real s = 0;
            for (int k = 0; k < 3; ++k)
              for (int l = 0; l < 3; ++l) {
                Real e_ikl = 0;
                for (int a = 0; a < 3; ++a)
                  for (int b = 0; b < 3; ++b)
                    e_ikl += GAMU(k, a) * GAMU(l, b) * eps_sym(i, a, b);
                s += sqrtg * e_ikl * DK[k][l][j];
              }
            B[i][j] = s;
          }
        Real Bs[6];
        for (int i = 0; i < 3; ++i)
          for (int j = i; j < 3; ++j)
            Bs[sym_idx(i, j)] = 0.5 * (B[i][j] + B[j][i]);

        // Quasi-Kinnersley tetrad: Gram–Schmidt of (r^, theta^, phi^) in the
        // physical metric.
        Real vr[3] = {px / r, py / r, pz / r};
        const Real rho = std::sqrt(px * px + py * py);
        Real vphi[3], vth[3];
        if (rho > 1e-12 * r) {
          vphi[0] = -py / rho;
          vphi[1] = px / rho;
          vphi[2] = 0;
        } else {  // on the z axis: any transverse direction works
          vphi[0] = 0;
          vphi[1] = 1;
          vphi[2] = 0;
        }
        // theta^ = phi^ x r^ completes the right-handed triad.
        vth[0] = vphi[1] * vr[2] - vphi[2] * vr[1];
        vth[1] = vphi[2] * vr[0] - vphi[0] * vr[2];
        vth[2] = vphi[0] * vr[1] - vphi[1] * vr[0];

        auto dot = [&](const Real* u, const Real* v) {
          Real s = 0;
          for (int i = 0; i < 3; ++i)
            for (int j = 0; j < 3; ++j) s += GAM(i, j) * u[i] * v[j];
          return s;
        };
        auto normalize = [&](Real* u) {
          const Real n = std::sqrt(dot(u, u));
          for (int i = 0; i < 3; ++i) u[i] /= n;
        };
        normalize(vr);
        // theta^ orthogonal to r^.
        {
          const Real pr = dot(vth, vr);
          for (int i = 0; i < 3; ++i) vth[i] -= pr * vr[i];
          normalize(vth);
        }
        // phi^ orthogonal to both.
        {
          const Real pr = dot(vphi, vr), pt = dot(vphi, vth);
          for (int i = 0; i < 3; ++i) vphi[i] -= pr * vr[i] + pt * vth[i];
          normalize(vphi);
        }

        // mbar = (theta^ - i phi^)/sqrt(2); Psi4 = (E - iB)_jk mbar^j mbar^k.
        Real re = 0, im = 0;
        for (int i = 0; i < 3; ++i)
          for (int j = 0; j < 3; ++j) {
            const Real Eij = E[sym_idx(i, j)];
            const Real Bij = Bs[sym_idx(i, j)];
            // mbar^i mbar^j = 0.5 [(th th - ph ph) - i (th ph + ph th)]
            const Real mm_re = 0.5 * (vth[i] * vth[j] - vphi[i] * vphi[j]);
            const Real mm_im = -0.5 * (vth[i] * vphi[j] + vphi[i] * vth[j]);
            // (E - iB)(mm_re + i mm_im)
            re += Eij * mm_re + Bij * mm_im;
            im += Eij * mm_im - Bij * mm_re;
          }
        out_re[p] = re;
        out_im[p] = im;
      }
    }
}

void compute_psi4_field(const mesh::Mesh& mesh, const BssnState& state,
                        const BssnParams& params, Real* re, Real* im,
                        exec_space::ExecSpace space) {
  constexpr int nv = static_cast<int>(kMetricVars.size());
  const Real* fields[nv];
  for (int s = 0; s < nv; ++s) fields[s] = state.field(kMetricVars[s]);
  Real* const outs[2] = {re, im};
  // Per-lane scratch: the metric derivative stage and one Re/Im patch pair.
  struct Lane {
    MetricDerivWorkspace ws;
    std::vector<Real> out = std::vector<Real>(2 * kPatchPts);
  };
  std::vector<Lane> lanes(static_cast<std::size_t>(space.max_lanes()));
  std::vector<Real> patches(std::size_t(kPsi4ChunkOctants) * nv * kPatchPts);

  const auto noct = static_cast<OctIndex>(mesh.num_octants());
  for (OctIndex begin = 0; begin < noct; begin += kPsi4ChunkOctants) {
    const OctIndex end = std::min(begin + kPsi4ChunkOctants, noct);
    const auto n = static_cast<std::uint64_t>(end - begin);
    exec_space::sweep_octant_to_patch(
        space, {"psi4-unzip", "psi4-unzip", n * nv, 0}, mesh, fields, nv,
        begin, end, patches.data(), mesh::UnzipMethod::kLoopOverOctants,
        nullptr);
    // Split by octant: owner write sets are disjoint, so each octant zips
    // its own Re/Im right after computing them.
    space.team_for(
        {"psi4", "psi4", n, 0}, end - begin, /*grain=*/1, nullptr,
        [&](const exec_space::TeamMember& tm, std::int64_t ob,
            std::int64_t oe, OpCounts& c) {
          Lane& lane = lanes[static_cast<std::size_t>(tm.lane())];
          for (std::int64_t o = ob; o < oe; ++o) {
            const Real* pin[kNumVars];
            metric_patch_inputs(
                patches.data() + exec_space::patch_offset(o, 0, nv, kPatchPts),
                pin);
            const OctIndex e = begin + static_cast<OctIndex>(o);
            const mesh::PatchGeom geom = mesh.patch_geom(e);
            bssn_metric_deriv_stage(pin, geom.h, lane.ws);
            psi4_patch(pin, geom, params, MetricDerivs(lane.ws),
                       lane.out.data(), lane.out.data() + kPatchPts,
                       kPsi4RMin, mesh.owned_rows(e));
            mesh.zip(lane.out.data(), 2, e, e + 1, outs, &c);
          }
        });
  }
}

}  // namespace dgr::gw
