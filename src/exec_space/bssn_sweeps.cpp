#include "exec_space/bssn_sweeps.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dgr::exec_space {

using bssn::BssnState;
using bssn::kNumVars;
using mesh::kOctPts;
using mesh::kPatchPts;

void sweep_octant_to_patch(const ExecSpace& es, const mesh::Mesh& mesh,
                           const Real* const* fields, OctIndex begin,
                           OctIndex end, Real* patches,
                           mesh::UnzipMethod method, OpCounts* counts) {
  const LaunchSpec spec{"octant-to-patch", "unzip",
                        std::uint64_t(end - begin) * kNumVars, 0};
  sweep_octant_to_patch(es, spec, mesh, fields, kNumVars, begin, end, patches,
                        method, counts);
}

void sweep_octant_to_patch(const ExecSpace& es, const LaunchSpec& spec,
                           const mesh::Mesh& mesh, const Real* const* fields,
                           int nvar, OctIndex begin, OctIndex end,
                           Real* patches, mesh::UnzipMethod method,
                           OpCounts* counts) {
  es.range_for(spec, nvar, /*grain=*/4, counts,
               [&](std::int64_t vb, std::int64_t ve, OpCounts& c) {
                 mesh.unzip_slice(fields, nvar, static_cast<int>(vb),
                                  static_cast<int>(ve), begin, end, patches,
                                  method, &c);
               });
}

void sweep_rhs(const ExecSpace& es, const mesh::Mesh& mesh,
               const RhsDispatch& d, OctIndex begin, OctIndex end,
               const Real* patch_in, Real* patch_out, OpCounts* counts) {
  DGR_CHECK_MSG(d.fused == nullptr,
                "the register-machine RHS is not a sweep_rhs body");
  const Real half = mesh.domain().half_extent;
  const LaunchSpec spec{"bssn-rhs", "rhs", std::uint64_t(end - begin), 0};
  es.team_for(
      spec, end - begin, /*grain=*/4, counts,
      [&](const TeamMember& tm, std::int64_t eb, std::int64_t ee,
          OpCounts& c) {
        bssn::DerivWorkspace& ws = (*d.ws)[static_cast<std::size_t>(tm.lane())];
        const auto kernel = tm.vector_width() == 4
                                ? bssn::bssn_rhs_patch_packed<4>
                                : bssn::bssn_rhs_patch_packed<1>;
        for (OctIndex e = begin + static_cast<OctIndex>(eb);
             e < begin + static_cast<OctIndex>(ee); ++e) {
          const Real* pin[kNumVars];
          Real* pout[kNumVars];
          for (int v = 0; v < kNumVars; ++v) {
            pin[v] = patch_in + patch_offset(e - begin, v, kNumVars, kPatchPts);
            pout[v] = patch_out + patch_offset(e - begin, v, kNumVars, kOctPts);
          }
          kernel(pin, pout, mesh.patch_geom(e), half, *d.params, ws, &c,
                 mesh.owned_rows(e));
        }
      });
}

void sweep_patch_to_octant(const ExecSpace& es, const mesh::Mesh& mesh,
                           const Real* blocks, OctIndex begin, OctIndex end,
                           Real* const* fields, OpCounts* counts) {
  const LaunchSpec spec{"patch-to-octant", "zip",
                        std::uint64_t(end - begin) * kNumVars, 0};
  es.range_for(spec, end - begin, /*grain=*/8, counts,
               [&](std::int64_t eb, std::int64_t ee, OpCounts& c) {
                 mesh.zip(blocks + patch_offset(eb, 0, kNumVars, kOctPts),
                          kNumVars, begin + static_cast<OctIndex>(eb),
                          begin + static_cast<OctIndex>(ee), fields, &c);
               });
}

void sweep_rk4_axpy(const ExecSpace& es, BssnState& y, Real s,
                    const BssnState& x, const BssnState* base,
                    OpCounts* counts) {
  const std::size_t nd = y.num_dofs();
  const LaunchSpec spec{"axpy", "update", nd, 0};
  es.range_for(spec, kNumVars, /*grain=*/1, counts,
               [&](std::int64_t vb, std::int64_t ve, OpCounts& c) {
                 for (int v = static_cast<int>(vb); v < static_cast<int>(ve);
                      ++v) {
                   Real* yv = y.field(v);
                   const Real* xv = x.field(v);
                   if (base) {
                     const Real* bv = base->field(v);
                     for (std::size_t d = 0; d < nd; ++d)
                       yv[d] = bv[d] + s * xv[d];
                   } else {
                     for (std::size_t d = 0; d < nd; ++d) yv[d] += s * xv[d];
                   }
                 }
                 const std::uint64_t n = std::uint64_t(ve - vb) * nd;
                 c.flops += 2 * n;
                 c.bytes_read += 2 * n * sizeof(Real);
                 c.bytes_written += n * sizeof(Real);
               });
}

void sweep_dense_save_all(const ExecSpace& es, const BssnState& u,
                          BssnState& dense_u0, OpCounts* counts) {
  const std::size_t nd = u.num_dofs();
  const LaunchSpec spec{"subcycle-save", "update", nd, 0};
  es.range_for(spec, kNumVars, /*grain=*/1, counts,
               [&](std::int64_t vb, std::int64_t ve, OpCounts& c) {
                 for (int v = static_cast<int>(vb); v < static_cast<int>(ve);
                      ++v) {
                   const Real* uv = u.field(v);
                   std::copy(uv, uv + nd, dense_u0.field(v));
                 }
                 const std::uint64_t n = std::uint64_t(ve - vb) * nd;
                 c.bytes_read += n * sizeof(Real);
                 c.bytes_written += n * sizeof(Real);
               });
}

namespace {

/// RK4 stage-time fractions (stage j evaluates at t0 + c_j dt).
constexpr Real kStageC[4] = {0.0, 0.5, 0.5, 1.0};

/// Per-depth recipe for one stage-fill sweep: how DOFs owned at that depth
/// are written into the stage buffer.
struct FillCoef {
  enum Mode : int {
    kCopy,    ///< stage = state (stepping depth, first stage)
    kRkAxpy,  ///< stage = state + a * k_prev (stepping depth, stages 2-4)
    kDense,   ///< stage = dense output on (u0, state, k1) at the stage time
  };
  Mode mode = kCopy;
  Real a = 0;
  fd::DenseCoeffs dc;
};

}  // namespace

void subcycle_step_depth(const ExecSpace& es, const mesh::SubcycleIndex& idx,
                         int depth, Real fine_dt, Real time,
                         const SubcycleState& st, const SubcycleRhsFn& rhs,
                         OpCounts* counts,
                         const std::function<void()>& update_begin,
                         const std::function<void()>& update_end) {
  const int slot = depth - idx.dmin;
  const Real dt = fine_dt * static_cast<Real>(1 << (idx.dmax - depth));
  const auto& runs = idx.runs[static_cast<std::size_t>(slot)];
  BssnState& state = *st.state;
  BssnState& stage = *st.stage;
  BssnState* k = st.k;
  const std::size_t nd = state.num_dofs();
  const std::uint8_t* dd = idx.dof_depth.data();
  const int nslots = idx.depths();

  for (int j = 0; j < 4; ++j) {
    // Per-depth fill recipe at this stage's time. The stepping depth uses
    // the exact RK4 stage arithmetic of rk4_step; every other depth is
    // dense-output-evaluated at ts. Depths coarser than `depth` already
    // stepped this substep (coarsest-first order), so their retained
    // interval covers ts — pure interpolation. Finer depths are
    // extrapolated by at most two of their intervals (the 2:1 balance
    // bound); depths further away get fill values the restricted RHS
    // never reads (unzip halos only reach adjacent levels).
    const Real ts = time + kStageC[j] * dt;
    std::vector<FillCoef> tab(static_cast<std::size_t>(nslots));
    for (int s = 0; s < nslots; ++s) {
      FillCoef& f = tab[static_cast<std::size_t>(s)];
      if (s == slot) {
        if (j == 0) {
          f.mode = FillCoef::kCopy;
        } else {
          f.mode = FillCoef::kRkAxpy;
          f.a = kStageC[j] * dt;
        }
      } else {
        f.mode = FillCoef::kDense;
        const Real dtp =
            fine_dt * static_cast<Real>(1 << (idx.dmax - (idx.dmin + s)));
        if ((*st.dense_mode)[static_cast<std::size_t>(s)] == kDenseModeQuad)
          f.dc = fd::dense_output_quadratic(
              (ts - (*st.dense_t0)[static_cast<std::size_t>(s)]) / dtp, dtp);
        else
          f.dc = fd::dense_output_linear(
              ts - (*st.dense_t0)[static_cast<std::size_t>(s)]);
      }
    }

    const BssnState* kprev = (j > 0) ? &k[j - 1] : nullptr;
    if (update_begin) update_begin();
    es.range_for(
        LaunchSpec{"subcycle-fill", "update", nd, 0}, kNumVars, /*grain=*/1,
        counts, [&](std::int64_t vb, std::int64_t ve, OpCounts& c) {
          for (int v = static_cast<int>(vb); v < static_cast<int>(ve); ++v) {
            Real* sv = stage.field(v);
            const Real* uv = state.field(v);
            const Real* u0v = st.dense_u0->field(v);
            const Real* k1v = st.dense_k1->field(v);
            const Real* kv = kprev ? kprev->field(v) : nullptr;
            for (std::size_t d = 0; d < nd; ++d) {
              const FillCoef& f = tab[static_cast<std::size_t>(
                  static_cast<int>(dd[d]) - idx.dmin)];
              switch (f.mode) {
                case FillCoef::kCopy:
                  sv[d] = uv[d];
                  break;
                case FillCoef::kRkAxpy:
                  sv[d] = uv[d] + f.a * kv[d];
                  break;
                case FillCoef::kDense:
                  sv[d] = fd::dense_output_eval(f.dc, u0v[d], uv[d], k1v[d]);
                  break;
              }
            }
          }
          const std::uint64_t n = std::uint64_t(ve - vb) * nd;
          c.flops += 5 * n;
          c.bytes_read += 4 * n * sizeof(Real);
          c.bytes_written += n * sizeof(Real);
        });
    if (update_end) update_end();

    rhs(stage, k[j], runs);

    if (j == 0 && !idx.uniform()) {
      // Retain this depth's step-start state and first RHS for its dense
      // output, before the final update overwrites the state.
      if (update_begin) update_begin();
      es.range_for(
          LaunchSpec{"subcycle-save", "update", nd, 0}, kNumVars,
          /*grain=*/1, counts,
          [&](std::int64_t vb, std::int64_t ve, OpCounts& c) {
            for (int v = static_cast<int>(vb); v < static_cast<int>(ve);
                 ++v) {
              Real* u0v = st.dense_u0->field(v);
              Real* k1v = st.dense_k1->field(v);
              const Real* uv = state.field(v);
              const Real* kv = k[0].field(v);
              for (std::size_t d = 0; d < nd; ++d) {
                if (static_cast<int>(dd[d]) != depth) continue;
                u0v[d] = uv[d];
                k1v[d] = kv[d];
              }
            }
            const std::uint64_t n = std::uint64_t(ve - vb) * nd;
            c.bytes_read += 2 * n * sizeof(Real);
            c.bytes_written += 2 * n * sizeof(Real);
          });
      if (update_end) update_end();
    }
  }

  // u += dt/6 k1 + dt/3 k2 + dt/3 k3 + dt/6 k4, restricted to this depth's
  // DOFs, as four sequential per-element AXPYs — the same rounding order
  // as rk4_step's four axpy sweeps.
  const Real a16 = dt / 6.0;
  const Real a13 = dt / 3.0;
  if (update_begin) update_begin();
  es.range_for(
      LaunchSpec{"subcycle-update", "update", nd, 0}, kNumVars, /*grain=*/1,
      counts, [&](std::int64_t vb, std::int64_t ve, OpCounts& c) {
        for (int v = static_cast<int>(vb); v < static_cast<int>(ve); ++v) {
          Real* uv = state.field(v);
          const Real* k0v = k[0].field(v);
          const Real* k1v = k[1].field(v);
          const Real* k2v = k[2].field(v);
          const Real* k3v = k[3].field(v);
          for (std::size_t d = 0; d < nd; ++d) {
            if (static_cast<int>(dd[d]) != depth) continue;
            uv[d] += a16 * k0v[d];
            uv[d] += a13 * k1v[d];
            uv[d] += a13 * k2v[d];
            uv[d] += a16 * k3v[d];
          }
        }
        const std::uint64_t n = std::uint64_t(ve - vb) * nd;
        c.flops += 8 * n;
        c.bytes_read += 5 * n * sizeof(Real);
        c.bytes_written += n * sizeof(Real);
      });
  if (update_end) update_end();

  if (!idx.uniform()) {
    (*st.dense_t0)[static_cast<std::size_t>(slot)] = time;
    (*st.dense_mode)[static_cast<std::size_t>(slot)] = kDenseModeQuad;
  }
}

}  // namespace dgr::exec_space
