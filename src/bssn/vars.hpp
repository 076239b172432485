#pragma once
/// \file vars.hpp
/// \brief The 24 evolved BSSN variables (paper §III-A, Eqs. (1)–(8)):
/// lapse alpha, conformal factor chi, trace K, conformal connection Gt^i,
/// shift beta^i, Gamma-driver auxiliary B^i, conformal metric gt_ij and
/// trace-free conformal extrinsic curvature At_ij.

#include <array>
#include <cstdint>
#include <string_view>

#include "common/types.hpp"

namespace dgr::bssn {

inline constexpr int kNumVars = 24;

enum Var : int {
  kAlpha = 0,
  kChi = 1,
  kK = 2,
  kGt0 = 3,  ///< Gamma-tilde^x
  kGt1 = 4,
  kGt2 = 5,
  kBeta0 = 6,
  kBeta1 = 7,
  kBeta2 = 8,
  kB0 = 9,
  kB1 = 10,
  kB2 = 11,
  kGtxx = 12,  ///< conformal metric, symmetric storage xx,xy,xz,yy,yz,zz
  kGtxy = 13,
  kGtxz = 14,
  kGtyy = 15,
  kGtyz = 16,
  kGtzz = 17,
  kAtxx = 18,  ///< trace-free conformal extrinsic curvature
  kAtxy = 19,
  kAtxz = 20,
  kAtyy = 21,
  kAtyz = 22,
  kAtzz = 23,
};

/// Symmetric 3x3 storage index: (0,0)->0 (0,1)->1 (0,2)->2 (1,1)->3
/// (1,2)->4 (2,2)->5. Table lookup keeps the hot RHS loops branch-free.
inline constexpr int kSymTable[3][3] = {{0, 1, 2}, {1, 3, 4}, {2, 4, 5}};
constexpr int sym_idx(int i, int j) { return kSymTable[i][j]; }

/// Variables whose second derivatives enter the RHS (paper §IV-B: alpha,
/// beta^i, chi, gt_ij — 11 variables, 66 Hessian components).
inline constexpr std::array<int, 11> kSecondDerivVars = {
    kAlpha, kBeta0, kBeta1, kBeta2, kChi, kGtxx,
    kGtxy,  kGtxz,  kGtyy,  kGtyz,  kGtzz};

/// The 17 variables the 3-metric diagnostics (Psi4 and the constraints)
/// read: chi, K, Gt^i, gt_ij and At_ij — everything but the gauge (alpha,
/// beta^i, B^i).
inline constexpr std::array<int, 17> kMetricVars = {
    kChi,  kK,    kGt0,  kGt1,  kGt2,  kGtxx, kGtxy, kGtxz, kGtyy,
    kGtyz, kGtzz, kAtxx, kAtxy, kAtxz, kAtyy, kAtyz, kAtzz};

/// Names for diagnostics and I/O.
std::string_view var_name(int v);

/// Asymptotic (Minkowski) value of each variable, used by the Sommerfeld
/// boundary condition and by robust-stability tests.
constexpr Real var_asymptotic(int v) {
  switch (v) {
    case kAlpha:
    case kChi:
    case kGtxx:
    case kGtyy:
    case kGtzz:
      return 1.0;
    default:
      return 0.0;
  }
}

/// Characteristic wave speed factor for the Sommerfeld condition (in units
/// of the coordinate light speed; gauge variables propagate at sqrt(2) in
/// 1+log slicing, which production codes approximate with 1..sqrt(2)).
constexpr Real var_wave_speed(int v) {
  switch (v) {
    case kAlpha:
    case kK:
      return 1.4142135623730951;  // sqrt(2): 1+log gauge speed
    default:
      return 1.0;
  }
}

}  // namespace dgr::bssn
