#include "codegen/fused_rhs.hpp"

#include <algorithm>

#include "bssn/gather_pack.hpp"
#include "codegen/bssn_graph.hpp"
#include "simd/simd.hpp"

namespace dgr::codegen {

using bssn::kNumVars;
using bssn::kSecondDerivVars;
using mesh::kPad;
using mesh::kPatch;
using mesh::kPatchPts;
using mesh::kR;
using mesh::patch_idx;

namespace {

constexpr int kOct = kR * kR * kR;  // interior points per patch

/// Gather the algebra inputs of W consecutive x-points starting at patch
/// index p and store the first `store_n` lanes at SoA column `col` (input n
/// of the graph goes to row n).
template <int W>
void gather_chunk(const Real* const in[kNumVars], FusedWorkspace& ws, int p,
                  int col, int store_n, Real inv_h, Real inv_h2,
                  Real chi_floor) {
  using P = dgr::simd<Real, W>;
  bssn::AlgebraInputs<P> q;
  bssn::bssn_gather_pack(in, ws.inner, p, inv_h, inv_h2, chi_floor, q);
  Real* soa = ws.in_soa.data();
  std::size_t row = 0;
  visit_algebra_inputs(q, [&](const P& v, auto&&) {
    v.store_partial(soa + row++ * kOct + col, store_n);
  });
}

}  // namespace

FusedWorkspace::FusedWorkspace()
    : in_soa(static_cast<std::size_t>(bssn_algebra_num_inputs()) * kOct),
      out_soa(static_cast<std::size_t>(kNumVars) * kOct) {}

void bssn_rhs_patch_fused(const Real* const in[kNumVars],
                          Real* const out[kNumVars],
                          const mesh::PatchGeom& geom, Real half_extent,
                          const bssn::BssnParams& params,
                          const CompiledKernel& kernel, FusedWorkspace& ws,
                          OpCounts* counts, int width, mesh::RowMask rows) {
  if (width == 0) width = simd_active_width();
  DGR_CHECK_MSG(width == 1 || width == 4,
                "fused RHS width must be 0, 1 or 4, got " << width);
  if (ws.spill.size() < static_cast<std::size_t>(kernel.spill_scratch_size()))
    ws.spill.resize(static_cast<std::size_t>(kernel.spill_scratch_size()));
  const Real inv_h = 1.0 / geom.h;
  const Real inv_h2 = 1.0 / (geom.h * geom.h);

  // Stage 1: the only patch-sized intermediates — inner d1 sweeps feeding
  // the three mixed Hessian components of each second-derivative variable.
  ws.inner.compute(in, geom.h);

  // Stage 2: SoA gather over the interior, one 7-point x-row at a time as
  // one full pack plus one partial pack (or scalars at width 1).
  for (int kk = kPad; kk < kPad + kR; ++kk)
    for (int jj = kPad; jj < kPad + kR; ++jj) {
      const int p0 = patch_idx(kPad, jj, kk);
      const int col0 = ((kk - kPad) * kR + (jj - kPad)) * kR;
      if (width == 4) {
        gather_chunk<4>(in, ws, p0, col0, 4, inv_h, inv_h2, params.chi_floor);
        gather_chunk<4>(in, ws, p0 + 4, col0 + 4, kR - 4, inv_h, inv_h2,
                        params.chi_floor);
      } else {
        for (int t = 0; t < kR; ++t)
          gather_chunk<1>(in, ws, p0 + t, col0 + t, 1, inv_h, inv_h2,
                          params.chi_floor);
      }
    }

  // Stage 3: the scheduled algebra over all 343 points, W at a time.
  kernel.run_block(ws.in_soa.data(), ws.out_soa.data(), kOct, width,
                   ws.spill.data());

  // Stage 4: copy the rows in `rows` of each SoA column block (already in
  // the 7^3 block order) to the output blocks, then the (scalar, hence
  // width-independent) Sommerfeld boundary overwrite.
  for (int k = 0; k < kR; ++k)
    for (int j = 0; j < kR; ++j) {
      if (!mesh::has_row(rows, j, k)) continue;
      const int o = mesh::oct_idx(0, j, k);
      for (int v = 0; v < kNumVars; ++v)
        std::copy_n(ws.out_soa.data() + std::size_t(v) * kOct + o, kR,
                    out[v] + o);
    }
  if (params.sommerfeld)
    bssn::bssn_sommerfeld(in, out, geom, half_extent, rows);

  if (counts) {
    const std::uint64_t pts = kOct;
    const std::uint64_t nh = kSecondDerivVars.size();
    // Inner mixed-derivative sweeps, charged over d1's whole valid region
    // (7x13x13 points per axis).
    counts->flops += nh * 2 * std::uint64_t(kR * kPatch * kPatch) *
                     fd::kD1Flops;
    // Fused per-point stencil work: 63 first derivatives, 33 diagonal +
    // 33 outer-mixed second derivatives, 72 upwind pieces plus the
    // advective contraction, 24 KO terms, the chi floor.
    counts->flops +=
        pts * (63ull * fd::kD1Flops + 33ull * fd::kD2Flops +
               33ull * fd::kD1Flops + 72ull * fd::kUpwindFlops +
               std::uint64_t(kNumVars) * 6 +
               std::uint64_t(kNumVars) * fd::kKoFlops + 1);
    counts->flops += pts * kernel.stats().num_ops;
    // Global traffic: each input patch streamed once, interior written once.
    counts->bytes_read += std::uint64_t(kNumVars) * kPatchPts * sizeof(Real);
    counts->bytes_written += pts * kNumVars * sizeof(Real);
    // On-chip traffic: the SoA blocks + inner sweeps + kernel spills (the
    // shared-memory analogue of the interp path's workspace arrays).
    counts->shared_bytes +=
        (ws.in_soa.size() + ws.out_soa.size() + ws.inner.d1.size()) *
        sizeof(Real);
    counts->shared_bytes += pts * (kernel.stats().spill_load_bytes +
                                   kernel.stats().spill_store_bytes);
  }
}

}  // namespace dgr::codegen
