#pragma once
/// \file interp.hpp
/// \brief 1-D interpolation operators and their tensor products (paper
/// §IV-A): coarse-to-fine prolongation is applied as three sweeps of the 1-D
/// operator, exactly as in the GPU octant-to-patch kernel.

#include <array>

#include "common/counters.hpp"
#include "common/types.hpp"
#include "mesh/patch.hpp"

namespace dgr::mesh {

/// The 1-D prolongation operator I (13 x 7): degree-6 Lagrange interpolation
/// of the 7 coarse points onto the 13 half-spacing points covering the same
/// interval. Rows at even positions are Kronecker deltas (points coincide).
class Prolongation {
 public:
  static const Prolongation& get();

  /// Row weights for the half-spacing position a in [0, 12].
  const std::array<Real, kR>& row(int a) const { return rows_[a]; }

  /// Evaluate the degree-6 Lagrange basis l_m at arbitrary position t
  /// (in coarse index units, nodes at 0..6).
  static Real lagrange(int m, Real t);

 private:
  Prolongation();
  std::array<std::array<Real, kR>, kFine> rows_;
};

/// A box of the 13^3 fine covering: per-axis half-open index ranges
/// [lo, hi). The default box is the whole covering.
struct FineBox {
  std::array<int, 3> lo{0, 0, 0};
  std::array<int, 3> hi{kFine, kFine, kFine};
};

/// Flops of one whole-octant prolongation: 2 (mul+add) per inner term per
/// output point of each of the three sweeps.
inline constexpr std::uint64_t kProlongOctantFlops =
    2ull * kR * (kFine * kR * kR + kFine * kFine * kR + kFine * kFine * kFine);

/// Tensor-product prolongation of a 7^3 octant block restricted to `box` of
/// its 13^3 fine covering: three 1-D sweeps (x, then y, then z), each
/// evaluated only where the box needs it. Every point inside the box gets
/// exactly prolong_octant's value (same 7-term sums in the same order);
/// points outside it are left untouched. Charges no counts.
void prolong_region(const Real* coarse /*343*/, const FineBox& box,
                    Real* fine /*2197*/);

/// Tensor-product prolongation of a 7^3 octant block to its 13^3 fine
/// covering (half spacing, same volume), as in the GPU kernel: the
/// whole-box prolong_region. Adds kProlongOctantFlops to \p counts.
void prolong_octant(const Real* coarse /*343*/, Real* fine /*2197*/,
                    OpCounts* counts = nullptr);

/// Interpolate a single point of the fine covering, recomputing the weight
/// rows on the fly (worst-case redundant work; used in tests).
Real prolong_point(const Real* coarse /*343*/, int a, int b, int c,
                   OpCounts* counts = nullptr);

/// Interpolate a single point using the precomputed 1-D rows: the
/// per-point full tensor contraction the loop-over-patches baseline pays
/// for every padding point (Fig. 7) — redundant relative to the scatter
/// path's single prolongation per source octant.
Real prolong_point_cached(const Real* coarse /*343*/, int a, int b, int c,
                          OpCounts* counts = nullptr);

}  // namespace dgr::mesh
