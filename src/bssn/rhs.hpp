#pragma once
/// \file rhs.hpp
/// \brief Compiled evaluation of the BSSN right-hand side (paper Eqs.
/// (1)–(19)) on a single 13^3 patch: the derivative stage D (210 derivative
/// evaluations) followed by the algebraic stage A (234 inputs -> 24
/// outputs), organized in the "staged" fashion of §IV-B: each equation's
/// algebra runs as soon as its derivatives are available at a point.
///
/// Output contract of every patch kernel (here, codegen's interpreter,
/// gw's Psi4): the inputs in[v] are 13^3 patches
/// (mesh::patch_idx), the outputs out[v] are 7^3 octant blocks
/// (mesh::oct_idx, x fastest) holding the patch interior, the only points
/// a kernel evaluates and mesh::Mesh::zip reads. A kernel given row mask
/// `rows` writes exactly those x-rows of each block and nothing else.

#include "common/counters.hpp"
#include "common/types.hpp"
#include "bssn/vars.hpp"
#include "mesh/mesh.hpp"

namespace dgr::bssn {

/// Evolution parameters (gauge + dissipation), defaults as in the paper's
/// production setup: 1+log slicing, Gamma-driver shift with damping eta,
/// RK4 with Courant factor 0.25, KO dissipation.
struct BssnParams {
  Real lambda_f0 = 0.75;   ///< 3/4 f(alpha) coefficient with f = 1
  Real eta = 2.0;          ///< Gamma-driver damping
  Real ko_sigma = 0.1;     ///< Kreiss–Oliger dissipation strength
  Real chi_floor = 1e-4;   ///< floor on the conformal factor near punctures
  /// Apply Sommerfeld radiative conditions on the outer boundary.
  bool sommerfeld = true;
};

/// The 22 inner first-derivative sweeps (d/dx and d/dy of the 11
/// second-derivative variables) that the pack gather's mixed second
/// derivatives contract over. They are the only patch-sized intermediates
/// the pack kernels keep: each inner value feeds up to 14 outer stencil
/// taps, so sweeping once beats recomputing it per point.
struct MixedInnerSweeps {
  std::vector<Real> d1;  ///< [hvar][axis 0|1] * kPatchPts

  MixedInnerSweeps();
  const Real* of(int hvar, int axis) const {
    return d1.data() + (hvar * 2 + axis) * mesh::kPatchPts;
  }
  /// Sweep d/dx and d/dy of every second-derivative variable (fd::d1_rows)
  /// on exactly the entries the outer stencils of interior points read:
  /// d/dx at x = 3..9 where y or z is 3..9 (931 points), d/dy at x and
  /// y = 3..9 and every z (637 points). The other entries are never
  /// written and stay zero from construction; only the discarded lanes of
  /// a partial pack read them. Variables whose input is null (the gauge
  /// variables of a metric patch block, see metric_patch_inputs) are
  /// skipped, and their sweeps are never read.
  void compute(const Real* const in[kNumVars], Real h);
};

/// Per-lane scratch of the patch RHS kernels; allocate once, reuse across
/// patches (the GPU analogue is the per-block shared-memory workspace of
/// Fig. 9). A new workspace holds only `inner`, all the pack kernel reads;
/// bssn_deriv_stage allocates the staged arrays (4.1 MB) on its first call.
struct DerivWorkspace {
  // Centered gradients and upwind (advective) gradients of all 24 vars.
  std::vector<Real> grad;   ///< [var][axis] * kPatchPts
  std::vector<Real> agrad;  ///< [var][axis] * kPatchPts
  // Hessians of the 11 second-derivative variables, symmetric storage.
  std::vector<Real> hess;   ///< [hvar][sym6] * kPatchPts
  std::vector<Real> ko;     ///< [var] * kPatchPts
  std::vector<Real> scratch;///< one patch, for mixed-derivative sweeps
  MixedInnerSweeps inner;   ///< the pack kernel's only patch arrays

  Real* grad_of(int var, int axis) {
    return grad.data() + (var * 3 + axis) * mesh::kPatchPts;
  }
  const Real* grad_of(int var, int axis) const {
    return grad.data() + (var * 3 + axis) * mesh::kPatchPts;
  }
  Real* agrad_of(int var, int axis) {
    return agrad.data() + (var * 3 + axis) * mesh::kPatchPts;
  }
  Real* hess_of(int hvar, int s) {
    return hess.data() + (hvar * 6 + s) * mesh::kPatchPts;
  }
  const Real* hess_of(int hvar, int s) const {
    return hess.data() + (hvar * 6 + s) * mesh::kPatchPts;
  }
  Real* ko_of(int var) { return ko.data() + var * mesh::kPatchPts; }
};

/// Field pointers of a compact kMetricVars patch block (the layout a
/// kMetricVars.size()-variable unzip writes: variable slot s at
/// block + s * kPatchPts): in[v] for the metric variables, null for the
/// gauge variables the diagnostics never read.
void metric_patch_inputs(const Real* block, const Real* in[kNumVars]);

template <class S>
struct AlgebraInputs;

/// Gather the point-local inputs of the algebraic stage at patch index p
/// (exposed for the codegen interpreter path, which evaluates the same
/// algebra from a scheduled program — §IV-B variants).
void bssn_gather_point(const Real* const in[kNumVars], DerivWorkspace& ws,
                       int p, const BssnParams& prm, AlgebraInputs<Real>& q);

/// Derivative stage: fills the workspace from the 24 input patches.
/// Performs the paper's 210 derivative evaluations (72 first, 66 second,
/// 72 KO directional pieces folded into 24 combined KO terms) plus the
/// upwind derivatives used for the advection terms. With the algebraic
/// stage it is the staged kernel: the test oracle of the pack kernels and
/// the input stage of the Fig. 11 interpreter; no solver sweep runs it.
void bssn_deriv_stage(const Real* const in[kNumVars], Real h,
                      DerivWorkspace& ws, OpCounts* counts = nullptr);

/// Algebraic stage A + KO + (optionally) Sommerfeld boundary overwrite.
/// Writes rhs values on the x-rows of each 7^3 output block that are in
/// `rows` (mesh::RowMask); the other points are left untouched. The
/// OpCounts model all 7^3 interior points whatever `rows` holds.
/// `geom` gives the patch origin/spacing; `half_extent` the outer boundary.
/// `ws` must hold bssn_deriv_stage of the same inputs (throws if it never
/// ran on `ws`).
void bssn_algebraic_stage(const Real* const in[kNumVars],
                          Real* const out[kNumVars],
                          const mesh::PatchGeom& geom, Real half_extent,
                          const BssnParams& params, DerivWorkspace& ws,
                          OpCounts* counts = nullptr,
                          mesh::RowMask rows = mesh::kAllRows);

/// Full RHS on one patch: derivative stage then algebraic stage on `rows`.
/// The staged kernel: the reference the pack kernel is pinned against
/// bitwise at every width.
void bssn_rhs_patch(const Real* const in[kNumVars], Real* const out[kNumVars],
                    const mesh::PatchGeom& geom, Real half_extent,
                    const BssnParams& params, DerivWorkspace& ws,
                    OpCounts* counts = nullptr,
                    mesh::RowMask rows = mesh::kAllRows);

/// Full RHS on one patch, W x-points at a time (W = 1 or 4): each 7-point
/// interior x-row in `rows` is covered by dgr::simd<double, W> packs (at
/// W = 4 one full pack plus one 3-lane partial pack) and stored into the
/// same row of the 7^3 output blocks; rows outside `rows` are skipped and
/// left untouched. The pack gather (gather_pack.hpp) evaluates every
/// stencil point-locally and bssn_algebra_point runs on the packs. Uses
/// only `ws.inner`. Bitwise identical to bssn_rhs_patch on every point it
/// writes (same stencil and algebra expressions, lanewise), and charges
/// the same OpCounts. The solver's one RHS body.
template <int W>
void bssn_rhs_patch_packed(const Real* const in[kNumVars],
                           Real* const out[kNumVars],
                           const mesh::PatchGeom& geom, Real half_extent,
                           const BssnParams& params, DerivWorkspace& ws,
                           OpCounts* counts = nullptr,
                           mesh::RowMask rows = mesh::kAllRows);

/// Sommerfeld radiative condition: overwrites the RHS in the 7^3 output
/// blocks at the points of the x-rows in `rows` that lie on the outer
/// boundary |x_i| = half_extent (standard moving-puncture practice). The
/// radial derivative is the centered d1 stencil evaluated point-locally,
/// bitwise equal to the derivative stage's gradient.
void bssn_sommerfeld(const Real* const in[kNumVars], Real* const out[kNumVars],
                     const mesh::PatchGeom& geom, Real half_extent,
                     mesh::RowMask rows = mesh::kAllRows);

/// Approximate flop count of the algebraic stage per grid point, matching
/// the paper's operation count O_A in Eq. (21b) (Q_A ~ 1.94 with m = 8 *
/// (24*2 + 210) bytes per point).
inline constexpr int kAFlopsPerPoint = 4005;

}  // namespace dgr::bssn
