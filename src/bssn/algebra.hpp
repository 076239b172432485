#pragma once
/// \file algebra.hpp
/// \brief The algebraic stage "A" of the BSSN RHS (paper §IV-B): the map
/// from 234+ point-local inputs (field values, derivatives, advective
/// derivatives, KO terms) to the 24 RHS outputs, written once as a template
/// over the scalar type.
///
/// Instantiated with S = Real it is the staged kernel `bssn_rhs_patch`
/// (the test oracle), and with S = dgr::simd<double, W> (W = 1, 4) the pack
/// kernel `bssn_rhs_patch_packed<W>` (lanewise the same expressions, so
/// the same bits); instantiated with the codegen module's symbolic scalar
/// it emits the expression DAG from which the paper's code-generation
/// variants (SymPyGR-CSE, binary-reduce, staged+CSE — Table II / Fig. 11)
/// are scheduled. A single source of truth guarantees the scheduled
/// programs compute exactly the tested physics. metric_ricci is the
/// conformal geometry of the 3-metric diagnostics (Psi4, the constraints).

#include "bssn/vars.hpp"
#include "simd/simd.hpp"

namespace dgr::bssn {

/// Point-local inputs of the algebraic stage. `ch` must already be floored
/// (chi floor applied by the caller); `ad[v]` are the upwind advection terms
/// beta^j dj v; `ko[v]` the (unit-sigma) KO dissipation values.
template <class S>
struct AlgebraInputs {
  S a, ch, Kt;
  S Gt[3], bet[3], Bv[3], gt[6], At[6];
  S d_a[3], d_ch[3], d_K[3];
  S d_b[3][3];   // d_b[i][j] = d beta^i / dx^j
  S d_Gt[3][3];  // d Gt^i / dx^j
  S d_gt[6][3], d_At[6][3];
  S dd_a[6], dd_ch[6];
  S dd_b[3][6];
  S dd_gt[6][6];
  S ad[kNumVars];
  S ko[kNumVars];
};

template <class S>
struct AlgebraParams {
  S lambda_f0, eta, ko_sigma;
};

/// Inverse of a symmetric 3x3 (adjugate over determinant).
template <class S>
inline void sym_inverse_t(const S g[6], S inv[6]) {
  const S a = g[0], b = g[1], c = g[2], d = g[3], e = g[4], f = g[5];
  const S det = a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c);
  const S idet = 1.0 / det;
  inv[0] = (d * f - e * e) * idet;
  inv[1] = (c * e - b * f) * idet;
  inv[2] = (b * e - c * d) * idet;
  inv[3] = (a * f - c * c) * idet;
  inv[4] = (b * c - a * e) * idet;
  inv[5] = (a * d - b * b) * idet;
}

/// The conformal geometry the 3-metric diagnostics (Psi4, the constraints)
/// share: the inverse conformal metric, the lowered and raised conformal
/// Christoffels and the physical Ricci tensor (conformal + chi parts, Eqs.
/// 16-19). Its sums start from zero and run in their own order, not
/// bssn_algebra_point's, so each diagnostic keeps the bits it always had.
template <class S>
struct MetricRicci {
  S gtu[6];       ///< gt^ij, sym_idx storage
  S C1low[3][6];  ///< Gammat_{i,jk} at [i][sym_idx(j, k)]
  S C1[3][6];     ///< Gammat^k_{ij} at [k][sym_idx(i, j)]
  S Ric[6];       ///< R_ij, sym_idx storage
};

/// Fill g from the metric inputs of q (what bssn_gather_pack_metric
/// gathers). S is Real or a dgr::simd pack.
template <class S>
void metric_ricci(const AlgebraInputs<S>& q, MetricRicci<S>& g) {
  const S zero = splat<S>(0.0);
  const S& ch = q.ch;
  sym_inverse_t(q.gt, g.gtu);
  auto GTU = [&](int i, int j) { return g.gtu[sym_idx(i, j)]; };
  auto GT = [&](int i, int j) { return q.gt[sym_idx(i, j)]; };
  auto DGT = [&](int i, int j, int k) { return q.d_gt[sym_idx(i, j)][k]; };
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      for (int k = j; k < 3; ++k)
        g.C1low[i][sym_idx(j, k)] =
            0.5 * (DGT(i, j, k) + DGT(i, k, j) - DGT(j, k, i));
  auto C1LOW = [&](int i, int j, int k) { return g.C1low[i][sym_idx(j, k)]; };
  for (int k = 0; k < 3; ++k)
    for (int i = 0; i < 3; ++i)
      for (int j = i; j < 3; ++j) {
        S s = zero;
        for (int l = 0; l < 3; ++l) s = s + GTU(k, l) * C1LOW(l, i, j);
        g.C1[k][sym_idx(i, j)] = s;
      }
  auto C1R = [&](int k, int i, int j) { return g.C1[k][sym_idx(i, j)]; };

  S tr = zero;
  for (int k = 0; k < 3; ++k)
    for (int l = 0; l < 3; ++l)
      tr = tr + GTU(k, l) * (q.dd_ch[sym_idx(k, l)] -
                             (3.0 / (2.0 * ch)) * q.d_ch[k] * q.d_ch[l]);
  for (int m = 0; m < 3; ++m) tr = tr - q.Gt[m] * q.d_ch[m];
  for (int i = 0; i < 3; ++i)
    for (int j = i; j < 3; ++j) {
      S t1 = zero;
      for (int l = 0; l < 3; ++l)
        for (int m = 0; m < 3; ++m)
          t1 = t1 + GTU(l, m) * q.dd_gt[sym_idx(i, j)][sym_idx(l, m)];
      t1 = t1 * -0.5;
      S t2 = zero;
      for (int k = 0; k < 3; ++k)
        t2 = t2 + (GT(k, i) * q.d_Gt[k][j] + GT(k, j) * q.d_Gt[k][i]);
      t2 = t2 * 0.5;
      S t3 = zero;
      for (int k = 0; k < 3; ++k)
        t3 = t3 + q.Gt[k] * (C1LOW(i, j, k) + C1LOW(j, i, k));
      t3 = t3 * 0.5;
      S t4 = zero;
      for (int l = 0; l < 3; ++l)
        for (int m = 0; m < 3; ++m) {
          S s = zero;
          for (int k = 0; k < 3; ++k)
            s = s + (C1R(k, l, i) * C1LOW(j, k, m) +
                     C1R(k, l, j) * C1LOW(i, k, m) +
                     C1R(k, i, m) * C1LOW(k, l, j));
          t4 = t4 + GTU(l, m) * s;
        }
      S Qij = q.dd_ch[sym_idx(i, j)];
      for (int k = 0; k < 3; ++k) Qij = Qij - C1R(k, i, j) * q.d_ch[k];
      const S Mij =
          Qij / (2.0 * ch) - q.d_ch[i] * q.d_ch[j] / (4.0 * ch * ch);
      g.Ric[sym_idx(i, j)] =
          t1 + t2 + t3 + t4 + Mij + GT(i, j) * tr / (2.0 * ch);
    }
}

/// Evaluate the full algebraic stage at one point. `out[v]` receives the
/// RHS of variable v (paper Eqs. (1)-(19)), including the KO term.
template <class S>
void bssn_algebra_point(const AlgebraInputs<S>& q,
                        const AlgebraParams<S>& prm, S out[kNumVars]) {
  S gtu[6];
  sym_inverse_t(q.gt, gtu);
  auto GTU = [&](int i, int j) { return gtu[sym_idx(i, j)]; };
  auto GT = [&](int i, int j) { return q.gt[sym_idx(i, j)]; };
  auto AT = [&](int i, int j) { return q.At[sym_idx(i, j)]; };
  auto DGT = [&](int i, int j, int k) { return q.d_gt[sym_idx(i, j)][k]; };

  // Lowered conformal Christoffel Gammat_{i,jk}.
  S C1low[3][6];
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      for (int k = j; k < 3; ++k)
        C1low[i][sym_idx(j, k)] =
            0.5 * (DGT(i, j, k) + DGT(i, k, j) - DGT(j, k, i));
  auto C1LOW = [&](int i, int j, int k) { return C1low[i][sym_idx(j, k)]; };

  // Raised Gammat^k_{ij}.
  S C1[3][6];
  for (int k = 0; k < 3; ++k)
    for (int i = 0; i < 3; ++i)
      for (int j = i; j < 3; ++j) {
        S s = GTU(k, 0) * C1LOW(0, i, j);
        for (int l = 1; l < 3; ++l) s = s + GTU(k, l) * C1LOW(l, i, j);
        C1[k][sym_idx(i, j)] = s;
      }
  auto C1R = [&](int k, int i, int j) { return C1[k][sym_idx(i, j)]; };

  // At with raised indices.
  S AtUD[3][3];
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      S s = GTU(i, 0) * AT(0, j);
      for (int l = 1; l < 3; ++l) s = s + GTU(i, l) * AT(l, j);
      AtUD[i][j] = s;
    }
  S AtUU[6];
  for (int i = 0; i < 3; ++i)
    for (int j = i; j < 3; ++j) {
      S s = AtUD[i][0] * GTU(0, j);
      for (int l = 1; l < 3; ++l) s = s + AtUD[i][l] * GTU(l, j);
      AtUU[sym_idx(i, j)] = s;
    }
  auto ATU = [&](int i, int j) { return AtUU[sym_idx(i, j)]; };

  S aTa = AT(0, 0) * ATU(0, 0);
  {
    bool first = true;
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j) {
        if (first) {
          first = false;
          continue;
        }
        aTa = aTa + AT(i, j) * ATU(i, j);
      }
  }

  const S divb = q.d_b[0][0] + q.d_b[1][1] + q.d_b[2][2];

  // Gauge (Eqs. 1-2).
  out[kAlpha] = q.ad[kAlpha] - 2.0 * q.a * q.Kt + prm.ko_sigma * q.ko[kAlpha];
  for (int i = 0; i < 3; ++i)
    out[kBeta0 + i] = prm.lambda_f0 * q.Bv[i] + q.ad[kBeta0 + i] +
                      prm.ko_sigma * q.ko[kBeta0 + i];

  // Conformal metric (Eq. 4).
  for (int i = 0; i < 3; ++i)
    for (int j = i; j < 3; ++j) {
      S lie = q.ad[kGtxx + sym_idx(i, j)];
      for (int k = 0; k < 3; ++k)
        lie = lie + GT(i, k) * q.d_b[k][j] + GT(j, k) * q.d_b[k][i];
      lie = lie - (2.0 / 3.0) * GT(i, j) * divb;
      out[kGtxx + sym_idx(i, j)] =
          lie - 2.0 * q.a * AT(i, j) + prm.ko_sigma * q.ko[kGtxx + sym_idx(i, j)];
    }

  // chi (Eq. 5).
  out[kChi] = q.ad[kChi] + (2.0 / 3.0) * q.ch * (q.a * q.Kt - divb) +
              prm.ko_sigma * q.ko[kChi];

  // Ricci tensor (Eqs. 16-19).
  S Ric[6];
  {
    S tr = GTU(0, 0) *
           (q.dd_ch[0] - (3.0 / 2.0) * (q.d_ch[0] * q.d_ch[0] / q.ch));
    for (int k = 0; k < 3; ++k)
      for (int l = 0; l < 3; ++l) {
        if (k == 0 && l == 0) continue;
        tr = tr + GTU(k, l) * (q.dd_ch[sym_idx(k, l)] -
                               (3.0 / 2.0) * (q.d_ch[k] * q.d_ch[l] / q.ch));
      }
    for (int m = 0; m < 3; ++m) tr = tr - q.Gt[m] * q.d_ch[m];
    for (int i = 0; i < 3; ++i)
      for (int j = i; j < 3; ++j) {
        S t1 = GTU(0, 0) * q.dd_gt[sym_idx(i, j)][0];
        for (int l = 0; l < 3; ++l)
          for (int m = 0; m < 3; ++m) {
            if (l == 0 && m == 0) continue;
            t1 = t1 + GTU(l, m) * q.dd_gt[sym_idx(i, j)][sym_idx(l, m)];
          }
        t1 = -0.5 * t1;
        S t2 = GT(0, i) * q.d_Gt[0][j] + GT(0, j) * q.d_Gt[0][i];
        for (int k = 1; k < 3; ++k)
          t2 = t2 + GT(k, i) * q.d_Gt[k][j] + GT(k, j) * q.d_Gt[k][i];
        t2 = 0.5 * t2;
        S t3 = q.Gt[0] * (C1LOW(i, j, 0) + C1LOW(j, i, 0));
        for (int k = 1; k < 3; ++k)
          t3 = t3 + q.Gt[k] * (C1LOW(i, j, k) + C1LOW(j, i, k));
        t3 = 0.5 * t3;
        S t4 = 0.0 * t1;  // zero of the scalar type
        for (int l = 0; l < 3; ++l)
          for (int m = 0; m < 3; ++m) {
            S s = C1R(0, l, i) * C1LOW(j, 0, m) + C1R(0, l, j) * C1LOW(i, 0, m) +
                  C1R(0, i, m) * C1LOW(0, l, j);
            for (int k = 1; k < 3; ++k)
              s = s + C1R(k, l, i) * C1LOW(j, k, m) +
                  C1R(k, l, j) * C1LOW(i, k, m) + C1R(k, i, m) * C1LOW(k, l, j);
            t4 = t4 + GTU(l, m) * s;
          }
        S Qij = q.dd_ch[sym_idx(i, j)];
        for (int k = 0; k < 3; ++k) Qij = Qij - C1R(k, i, j) * q.d_ch[k];
        const S Mij = Qij / (2.0 * q.ch) -
                      q.d_ch[i] * q.d_ch[j] / (4.0 * q.ch * q.ch);
        Ric[sym_idx(i, j)] =
            t1 + t2 + t3 + t4 + Mij + GT(i, j) * (tr / (2.0 * q.ch));
      }
  }
  auto RIC = [&](int i, int j) { return Ric[sym_idx(i, j)]; };

  // Covariant Hessian of the lapse (Eqs. 13-15).
  S DDa[6];
  for (int i = 0; i < 3; ++i)
    for (int j = i; j < 3; ++j) {
      S s = q.dd_a[sym_idx(i, j)];
      for (int k = 0; k < 3; ++k) {
        S up = GTU(k, 0) * q.d_ch[0];
        for (int l = 1; l < 3; ++l) up = up + GTU(k, l) * q.d_ch[l];
        S corr = (-1.0) * GT(i, j) * up;
        if (k == i) corr = corr + q.d_ch[j];
        if (k == j) corr = corr + q.d_ch[i];
        const S Cfull = C1R(k, i, j) - corr / (2.0 * q.ch);
        s = s - Cfull * q.d_a[k];
      }
      DDa[sym_idx(i, j)] = s;
    }
  S lap_a = GTU(0, 0) * DDa[0];
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      if (i == 0 && j == 0) continue;
      lap_a = lap_a + GTU(i, j) * DDa[sym_idx(i, j)];
    }
  lap_a = q.ch * lap_a;

  // At (Eq. 6).
  {
    S X[6];
    for (int i = 0; i < 3; ++i)
      for (int j = i; j < 3; ++j)
        X[sym_idx(i, j)] = q.a * RIC(i, j) - DDa[sym_idx(i, j)];
    S trX = GTU(0, 0) * X[0];
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j) {
        if (i == 0 && j == 0) continue;
        trX = trX + GTU(i, j) * X[sym_idx(i, j)];
      }
    for (int i = 0; i < 3; ++i)
      for (int j = i; j < 3; ++j) {
        const int s6 = sym_idx(i, j);
        S lie = q.ad[kAtxx + s6];
        for (int k = 0; k < 3; ++k)
          lie = lie + AT(i, k) * q.d_b[k][j] + AT(j, k) * q.d_b[k][i];
        lie = lie - (2.0 / 3.0) * AT(i, j) * divb;
        S quad = AT(i, 0) * AtUD[0][j];
        for (int k = 1; k < 3; ++k) quad = quad + AT(i, k) * AtUD[k][j];
        out[kAtxx + s6] = lie + q.ch * (X[s6] - (1.0 / 3.0) * GT(i, j) * trX) +
                          q.a * (q.Kt * AT(i, j) - 2.0 * quad) +
                          prm.ko_sigma * q.ko[kAtxx + s6];
      }
  }

  // K (Eq. 7).
  out[kK] = q.ad[kK] - lap_a + q.a * (aTa + q.Kt * q.Kt / 3.0) +
            prm.ko_sigma * q.ko[kK];

  // Gt and B (Eqs. 3, 8).
  for (int i = 0; i < 3; ++i) {
    S s = GTU(0, 0) * q.dd_b[i][0];
    for (int j = 0; j < 3; ++j)
      for (int k = 0; k < 3; ++k) {
        if (j == 0 && k == 0) continue;
        s = s + GTU(j, k) * q.dd_b[i][sym_idx(j, k)];
      }
    S mixed = 0.0 * s;
    for (int j = 0; j < 3; ++j) {
      S inner = q.dd_b[0][sym_idx(j, 0)];
      for (int k = 1; k < 3; ++k) inner = inner + q.dd_b[k][sym_idx(j, k)];
      mixed = mixed + GTU(i, j) * inner;
    }
    s = s + mixed / 3.0;
    s = s + q.ad[kGt0 + i];
    for (int j = 0; j < 3; ++j) s = s - q.Gt[j] * q.d_b[i][j];
    s = s + (2.0 / 3.0) * q.Gt[i] * divb;
    for (int j = 0; j < 3; ++j) s = s - 2.0 * ATU(i, j) * q.d_a[j];
    S para = C1R(i, 0, 0) * ATU(0, 0);
    for (int j = 0; j < 3; ++j)
      for (int k = 0; k < 3; ++k) {
        if (j == 0 && k == 0) continue;
        para = para + C1R(i, j, k) * ATU(j, k);
      }
    S chterm = ATU(i, 0) * q.d_ch[0];
    S kterm = GTU(i, 0) * q.d_K[0];
    for (int j = 1; j < 3; ++j) {
      chterm = chterm + ATU(i, j) * q.d_ch[j];
      kterm = kterm + GTU(i, j) * q.d_K[j];
    }
    s = s + 2.0 * q.a *
            (para - (3.0 / 2.0) * (chterm / q.ch) - (2.0 / 3.0) * kterm);
    out[kGt0 + i] = s + prm.ko_sigma * q.ko[kGt0 + i];
    out[kB0 + i] = s - prm.eta * q.Bv[i] + q.ad[kB0 + i] - q.ad[kGt0 + i] +
                   prm.ko_sigma * q.ko[kB0 + i];
  }
}

}  // namespace dgr::bssn
