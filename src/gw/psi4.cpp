#include "gw/psi4.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "bssn/gather_pack.hpp"
#include "exec_space/bssn_sweeps.hpp"
#include "simd/simd.hpp"

namespace dgr::gw {

using namespace dgr::bssn;
using mesh::kPatchPts;

namespace {

constexpr Real eps_sym(int i, int j, int k) {
  return Real(((i - j) * (j - k) * (k - i))) / 2.0;  // Levi-Civita symbol
}

}  // namespace

template <class S>
void psi4_point(const AlgebraInputs<S>& q, const S pos[3], S& out_re,
                S& out_im) {
  using std::pow;
  using std::sqrt;
  const S zero = splat<S>(0.0);
  const S& px = pos[0];
  const S& py = pos[1];
  const S& pz = pos[2];
  const S r = sqrt(px * px + py * py + pz * pz);
  const S& ch = q.ch;
  const S& Kt = q.Kt;
  const S* d_ch = q.d_ch;
  const S* d_K = q.d_K;
  MetricRicci<S> g;
  metric_ricci(q, g);
  auto GTU = [&](int i, int j) { return g.gtu[sym_idx(i, j)]; };
  auto GT = [&](int i, int j) { return q.gt[sym_idx(i, j)]; };
  auto ATl = [&](int i, int j) { return q.At[sym_idx(i, j)]; };
  auto DGT = [&](int i, int j, int k) { return q.d_gt[sym_idx(i, j)][k]; };
  auto DAT = [&](int i, int j, int k) { return q.d_At[sym_idx(i, j)][k]; };
  auto C1R = [&](int k, int i, int j) { return g.C1[k][sym_idx(i, j)]; };
  auto RIC = [&](int i, int j) { return g.Ric[sym_idx(i, j)]; };

  // Physical metric / extrinsic curvature.
  auto GAM = [&](int i, int j) { return GT(i, j) / ch; };
  auto GAMU = [&](int i, int j) { return ch * GTU(i, j); };
  S Kdd[6];
  for (int i = 0; i < 3; ++i)
    for (int j = i; j < 3; ++j)
      Kdd[sym_idx(i, j)] = (ATl(i, j) + GT(i, j) * Kt / 3.0) / ch;
  auto KDD = [&](int i, int j) { return Kdd[sym_idx(i, j)]; };

  // Electric Weyl part: E_ij = R_ij + K K_ij - K_ik K^k_j.
  S KUD[3][3];  // K^k_j
  for (int k = 0; k < 3; ++k)
    for (int j = 0; j < 3; ++j) {
      S s = zero;
      for (int l = 0; l < 3; ++l) s = s + GAMU(k, l) * KDD(l, j);
      KUD[k][j] = s;
    }
  S E[6];
  for (int i = 0; i < 3; ++i)
    for (int j = i; j < 3; ++j) {
      S s = RIC(i, j) + Kt * KDD(i, j);
      for (int k = 0; k < 3; ++k) s = s - KDD(i, k) * KUD[k][j];
      E[sym_idx(i, j)] = s;
    }

  // Physical Christoffel (Eq. 13).
  S Cf[3][6];
  for (int k = 0; k < 3; ++k)
    for (int i = 0; i < 3; ++i)
      for (int j = i; j < 3; ++j) {
        S corr = zero;
        if (k == i) corr = corr + d_ch[j];
        if (k == j) corr = corr + d_ch[i];
        S up = zero;
        for (int l = 0; l < 3; ++l) up = up + GTU(k, l) * d_ch[l];
        corr = corr - GT(i, j) * up;
        Cf[k][sym_idx(i, j)] = C1R(k, i, j) - corr / (2.0 * ch);
      }
  auto CF = [&](int k, int i, int j) { return Cf[k][sym_idx(i, j)]; };

  // D_k K_lj = partial_k K_lj - Cf^m_kl K_mj - Cf^m_kj K_lm, with
  // partial_k K_lj from the product rule on (At + gt K/3)/chi.
  S DK[3][3][3];  // [k][l][j]
  for (int k = 0; k < 3; ++k)
    for (int l = 0; l < 3; ++l)
      for (int j = l; j < 3; ++j) {
        S dk = (DAT(l, j, k) + DGT(l, j, k) * Kt / 3.0 +
                GT(l, j) * d_K[k] / 3.0) /
                   ch -
               KDD(l, j) * d_ch[k] / ch;
        for (int m = 0; m < 3; ++m)
          dk = dk - (CF(m, k, l) * KDD(m, j) + CF(m, k, j) * KDD(l, m));
        DK[k][l][j] = dk;
        DK[k][j][l] = dk;
      }

  // Magnetic Weyl: B_ij = eps_i^{kl} D_k K_lj (symmetrized), with
  // eps_i^{kl} = sqrt(gamma) gamma^{ka} gamma^{lb} eps_{iab} and
  // sqrt(gamma) = chi^{-3/2} (det gt = 1).
  const S sqrtg = pow(ch, -1.5);
  S B[3][3];
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      S s = zero;
      for (int k = 0; k < 3; ++k)
        for (int l = 0; l < 3; ++l) {
          S e_ikl = zero;
          for (int a = 0; a < 3; ++a)
            for (int b = 0; b < 3; ++b)
              e_ikl = e_ikl + GAMU(k, a) * GAMU(l, b) * eps_sym(i, a, b);
          s = s + sqrtg * e_ikl * DK[k][l][j];
        }
      B[i][j] = s;
    }
  S Bs[6];
  for (int i = 0; i < 3; ++i)
    for (int j = i; j < 3; ++j)
      Bs[sym_idx(i, j)] = 0.5 * (B[i][j] + B[j][i]);

  // Quasi-Kinnersley tetrad: Gram–Schmidt of (r^, theta^, phi^) in the
  // physical metric.
  S vr[3] = {px / r, py / r, pz / r};
  const S rho = sqrt(px * px + py * py);
  // phi^ = (-y, x, 0)/rho off the z axis (rho > 1e-12 r); on it any
  // transverse direction works: (0, 1, 0).
  const S axis_tol = 1e-12 * r;
  S vphi[3] = {select_lt(axis_tol, rho, -py / rho, zero),
               select_lt(axis_tol, rho, px / rho, splat<S>(1.0)), zero};
  // theta^ = phi^ x r^ completes the right-handed triad.
  S vth[3] = {vphi[1] * vr[2] - vphi[2] * vr[1],
              vphi[2] * vr[0] - vphi[0] * vr[2],
              vphi[0] * vr[1] - vphi[1] * vr[0]};

  auto dot = [&](const S* u, const S* v) {
    S s = zero;
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j) s = s + GAM(i, j) * u[i] * v[j];
    return s;
  };
  auto normalize = [&](S* u) {
    const S n = sqrt(dot(u, u));
    for (int i = 0; i < 3; ++i) u[i] = u[i] / n;
  };
  normalize(vr);
  // theta^ orthogonal to r^.
  {
    const S pr = dot(vth, vr);
    for (int i = 0; i < 3; ++i) vth[i] = vth[i] - pr * vr[i];
    normalize(vth);
  }
  // phi^ orthogonal to both.
  {
    const S pr = dot(vphi, vr), pt = dot(vphi, vth);
    for (int i = 0; i < 3; ++i) vphi[i] = vphi[i] - (pr * vr[i] + pt * vth[i]);
    normalize(vphi);
  }

  // mbar = (theta^ - i phi^)/sqrt(2); Psi4 = (E - iB)_jk mbar^j mbar^k.
  S re = zero, im = zero;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      const S& Eij = E[sym_idx(i, j)];
      const S& Bij = Bs[sym_idx(i, j)];
      // mbar^i mbar^j = 0.5 [(th th - ph ph) - i (th ph + ph th)]
      const S mm_re = 0.5 * (vth[i] * vth[j] - vphi[i] * vphi[j]);
      const S mm_im = -0.5 * (vth[i] * vphi[j] + vphi[i] * vth[j]);
      // (E - iB)(mm_re + i mm_im)
      re = re + (Eij * mm_re + Bij * mm_im);
      im = im + (Eij * mm_im - Bij * mm_re);
    }
  const S r_min = splat<S>(kPsi4RMin);
  out_re = select_lt(r, r_min, zero, re);
  out_im = select_lt(r, r_min, zero, im);
}

template void psi4_point(const AlgebraInputs<Real>&, const Real[3], Real&,
                         Real&);

template <int W>
void psi4_patch(const Real* const in[kNumVars], const mesh::PatchGeom& geom,
                Real chi_floor, mesh::RowMask rows, MixedInnerSweeps& inner,
                Real* re, Real* im) {
  using P = simd<Real, W>;
  inner.compute(in, geom.h);
  const Real inv_h = 1.0 / geom.h;
  const Real inv_h2 = 1.0 / (geom.h * geom.h);
  AlgebraInputs<P> q;
  for_each_row_pack<W>(rows, [&](int p, int o, int ii, int jj, int kk,
                                 int live) {
    bssn_gather_pack_metric(in, inner, p, inv_h, inv_h2, chi_floor, q);
    Real x[W];
    for (int l = 0; l < W; ++l) x[l] = geom.origin[0] + (ii + l) * geom.h;
    const P pos[3] = {P::load(x),
                      P::broadcast(geom.origin[1] + jj * geom.h),
                      P::broadcast(geom.origin[2] + kk * geom.h)};
    P pre, pim;
    psi4_point(q, pos, pre, pim);
    pre.store_partial(re + o, live);
    pim.store_partial(im + o, live);
  });
}

template void psi4_patch<1>(const Real* const[kNumVars],
                            const mesh::PatchGeom&, Real, mesh::RowMask,
                            MixedInnerSweeps&, Real*, Real*);
template void psi4_patch<4>(const Real* const[kNumVars],
                            const mesh::PatchGeom&, Real, mesh::RowMask,
                            MixedInnerSweeps&, Real*, Real*);

void compute_psi4_field(const mesh::Mesh& mesh, const BssnState& state,
                        const BssnParams& params, Real* re, Real* im,
                        exec_space::ExecSpace space) {
  constexpr int nv = static_cast<int>(kMetricVars.size());
  const Real* fields[nv];
  for (int s = 0; s < nv; ++s) fields[s] = state.field(kMetricVars[s]);
  Real* const outs[2] = {re, im};
  // Per-lane scratch: the inner sweeps and one Re/Im block pair.
  struct Lane {
    MixedInnerSweeps inner;
    std::vector<Real> out = std::vector<Real>(2 * mesh::kOctPts);
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
          const auto patch =
              tm.vector_width() == 4 ? psi4_patch<4> : psi4_patch<1>;
          for (std::int64_t o = ob; o < oe; ++o) {
            const Real* pin[kNumVars];
            metric_patch_inputs(
                patches.data() + exec_space::patch_offset(o, 0, nv, kPatchPts),
                pin);
            const OctIndex e = begin + static_cast<OctIndex>(o);
            const mesh::PatchGeom geom = mesh.patch_geom(e);
            patch(pin, geom, params.chi_floor, mesh.owned_rows(e),
                  lane.inner, lane.out.data(),
                  lane.out.data() + mesh::kOctPts);
            mesh.zip(lane.out.data(), 2, e, e + 1, outs, &c);
          }
        });
  }
}

}  // namespace dgr::gw
