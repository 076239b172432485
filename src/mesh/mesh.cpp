#include "mesh/mesh.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "mesh/interp.hpp"

namespace dgr::mesh {

namespace {

using PointRecord = detail::PointRecord;
using ScatterBox = detail::ScatterBox;
using PointMap = std::unordered_map<std::uint64_t, PointRecord>;

/// All leaf octants whose closure contains point p (point units): probe the
/// up-to-8 dyadic cells adjacent to p. Octant faces live at point-unit
/// multiples of kPuPerDyadic, so an axis only straddles a face if p is such
/// a multiple.
void touching_leaves(const oct::Octree& tree, const std::array<Pu, 3>& p,
                     std::vector<OctIndex>& out) {
  out.clear();
  std::int64_t cand[3][2];
  int ncand[3];
  for (int a = 0; a < 3; ++a) {
    if (p[a] % kPuPerDyadic == 0) {
      const std::int64_t c = p[a] / kPuPerDyadic;
      ncand[a] = 0;
      if (c - 1 >= 0) cand[a][ncand[a]++] = c - 1;
      if (c < static_cast<std::int64_t>(oct::kDomainSize))
        cand[a][ncand[a]++] = c;
    } else {
      cand[a][0] = p[a] / kPuPerDyadic;
      ncand[a] = 1;
    }
  }
  for (int i = 0; i < ncand[0]; ++i)
    for (int j = 0; j < ncand[1]; ++j)
      for (int k = 0; k < ncand[2]; ++k) {
        const OctIndex n = tree.find_leaf(
            static_cast<oct::Coord>(cand[0][i]),
            static_cast<oct::Coord>(cand[1][j]),
            static_cast<oct::Coord>(cand[2][k]));
        if (std::find(out.begin(), out.end(), n) == out.end()) out.push_back(n);
      }
}

bool representable_at_level(const std::array<Pu, 3>& p, int level) {
  const Pu s = spacing_pu(level);
  return p[0] % s == 0 && p[1] % s == 0 && p[2] % s == 0;
}

/// Copy an N x ny x nz box of source values into a patch, stepping ST
/// along each axis of the source (row length L). N and ST are compile-time
/// so each row is a few moves rather than a library call.
template <int N, int ST>
void copy_rows(const Real* src, int L, int ny, int nz, Real* dst) {
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j) {
      const Real* s = src + (k * L + j) * L * ST;
      Real* d = dst + (k * kPatch + j) * kPatch;
      for (int i = 0; i < N; ++i) d[i] = s[ST * i];
    }
}

using CopyRows = void (*)(const Real*, int, int, int, Real*);

template <int ST, std::size_t... N>
constexpr std::array<CopyRows, sizeof...(N)> copy_rows_table(
    std::index_sequence<N...>) {
  return {&copy_rows<int(N), ST>...};
}

/// copy_rows by row length 0..13, for source steps 1 and 2.
constexpr auto kCopyStep1 =
    copy_rows_table<1>(std::make_index_sequence<kPatch + 1>{});
constexpr auto kCopyStep2 =
    copy_rows_table<2>(std::make_index_sequence<kPatch + 1>{});

/// Copy one planned box of source values (a 7^3 block or a 13^3 fine
/// covering) into a patch.
void copy_box(const ScatterBox& bx, const Real* src, Real* patch) {
  const int L = bx.fine ? kFine : kR;
  const auto& copy = bx.stride == 1 ? kCopyStep1 : kCopyStep2;
  copy[bx.n[0]](src + (bx.from[2] * L + bx.from[1]) * L + bx.from[0], L,
                bx.n[1], bx.n[2],
                patch + patch_idx(bx.dst[0], bx.dst[1], bx.dst[2]));
}

}  // namespace

Mesh::Mesh(oct::Octree tree, oct::Domain domain)
    : tree_(std::move(tree)), domain_(domain) {
  DGR_CHECK_MSG(tree_.is_balanced(),
                "Mesh requires a 2:1-balanced octree (Algorithm 2 precondition)");
  build_adjacency();
  build_points();
  build_hanging_rules();
  build_scatter_plan();
}

void Mesh::build_adjacency() {
  const std::size_t n = tree_.size();
  adjacency_.assign(n, {});
  for (OctIndex e = 0; e < static_cast<OctIndex>(n); ++e) {
    auto& adj = adjacency_[e];
    for (int dz = -1; dz <= 1; ++dz)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx) {
          if (!dx && !dy && !dz) continue;
          for (OctIndex nb : tree_.neighbors(e, dx, dy, dz)) {
            if (std::find(adj.begin(), adj.end(), nb) == adj.end())
              adj.push_back(nb);
          }
        }
    std::sort(adj.begin(), adj.end());
  }
}

void Mesh::build_points() {
  const std::size_t n = tree_.size();
  o2n_.assign(n * kOctPts, kInvalidDof);
  zip_runs_.clear();
  zip_begin_.assign(1, 0);
  owned_rows_.assign(n, 0);

  PointMap pmap;
  pmap.reserve(n * 64);
  std::vector<OctIndex> touching;

  // Pass 1: classify every unique point (hanging / DOF) and find the finest
  // owner octant. Interior points (all local indices in 1..5) are trivially
  // non-hanging and owned by their octant.
  for (OctIndex e = 0; e < static_cast<OctIndex>(n); ++e) {
    const oct::TreeNode& t = tree_.leaf(e);
    const auto A = anchor_pu(t);
    const Pu S = spacing_pu(t.level);
    for (int k = 0; k < kR; ++k)
      for (int j = 0; j < kR; ++j)
        for (int i = 0; i < kR; ++i) {
          const std::array<Pu, 3> p = {A[0] + i * S, A[1] + j * S,
                                       A[2] + k * S};
          const std::uint64_t key = point_key(p[0], p[1], p[2]);
          auto [it, fresh] = pmap.try_emplace(key);
          PointRecord& rec = it->second;
          if (fresh) {
            const bool interior = i > 0 && i < kR - 1 && j > 0 && j < kR - 1 &&
                                  k > 0 && k < kR - 1;
            if (interior) {
              rec.hanging = false;
            } else {
              touching_leaves(tree_, p, touching);
              int lmin = oct::kMaxDepth + 1;
              OctIndex host = kInvalidOct;
              for (OctIndex nb : touching) {
                const int lv = tree_.leaf(nb).level;
                if (lv < lmin) {
                  lmin = lv;
                  host = nb;
                }
              }
              rec.hanging = !representable_at_level(p, lmin);
              if (rec.hanging) rec.host = tree_.leaf(host);
            }
          }
          if (!rec.hanging && int(t.level) > rec.owner_level) {
            rec.owner_level = t.level;
            rec.owner = e;
          }
        }
  }

  // Pass 2: deterministic numbering in octant-then-local order, o2n fill,
  // and per-octant write sets (runs and owned rows).
  dof_pu_.clear();
  dof_owner_.clear();
  hanging_pu_.clear();
  hanging_host_.clear();
  for (OctIndex e = 0; e < static_cast<OctIndex>(n); ++e) {
    const oct::TreeNode& t = tree_.leaf(e);
    const auto A = anchor_pu(t);
    const Pu S = spacing_pu(t.level);
    for (int k = 0; k < kR; ++k)
      for (int j = 0; j < kR; ++j)
        for (int i = 0; i < kR; ++i) {
          const std::array<Pu, 3> p = {A[0] + i * S, A[1] + j * S,
                                       A[2] + k * S};
          PointRecord& rec = pmap.at(point_key(p[0], p[1], p[2]));
          const int local = oct_idx(i, j, k);
          if (!rec.hanging) {
            if (rec.dof < 0) {
              rec.dof = static_cast<std::int64_t>(dof_pu_.size());
              dof_pu_.push_back(p);
              dof_owner_.push_back(rec.owner);
            }
            o2n_[e * kOctPts + local] = rec.dof;
            if (rec.owner == e) {
              owned_rows_[e] |= RowMask(1) << (k * kR + j);
              // Extend e's last run when this point continues it in both
              // the block and the DOF numbering (also across x-rows).
              detail::ZipRun* last = zip_runs_.size() > zip_begin_.back()
                                         ? &zip_runs_.back()
                                         : nullptr;
              if (last && last->block + last->n == local &&
                  last->dof + last->n == rec.dof)
                ++last->n;
              else
                zip_runs_.push_back({rec.dof, local, 1});
            }
          } else {
            if (rec.hidx < 0) {
              rec.hidx = static_cast<std::int64_t>(hanging_pu_.size());
              hanging_pu_.push_back(p);
              hanging_host_.push_back(rec.host);
            }
            o2n_[e * kOctPts + local] = -(rec.hidx + 1);
          }
        }
    zip_begin_.push_back(zip_runs_.size());
  }

  // Stash the point map for hanging-rule resolution.
  pmap_for_rules_ = std::move(pmap);
}

void Mesh::build_hanging_rules() {
  const auto& P = Prolongation::get();
  const std::size_t nh = hanging_pu_.size();
  hanging_rules_.assign(nh, {});
  std::vector<int> state(nh, 0);  // 0 = unresolved, 1 = in progress, 2 = done

  // Raw rule of hanging point h: degree-6 tensor interpolation of its host
  // octant's grid points at the half-spacing offsets. References may be
  // hanging themselves (w.r.t. an even coarser neighbor); resolve
  // recursively — levels strictly decrease, so this terminates.
  std::function<const HangingRule&(std::size_t)> resolve =
      [&](std::size_t h) -> const HangingRule& {
    if (state[h] == 2) return hanging_rules_[h];
    DGR_CHECK_MSG(state[h] != 1, "cycle in hanging-point resolution");
    state[h] = 1;
    const oct::TreeNode host = hanging_host_[h];
    const auto A = anchor_pu(host);
    const Pu Sh = spacing_pu(host.level) / 2;  // half spacing
    const auto& p = hanging_pu_[h];
    int tpos[3];
    for (int a = 0; a < 3; ++a) {
      const Pu d = p[a] - A[a];
      DGR_CHECK(d >= 0 && d % Sh == 0);
      tpos[a] = d / Sh;
      DGR_CHECK(tpos[a] >= 0 && tpos[a] <= 12);
    }
    std::unordered_map<DofIndex, Real> acc;
    for (int k = 0; k < kR; ++k) {
      const Real wz = P.row(tpos[2])[k];
      if (wz == 0.0) continue;
      for (int j = 0; j < kR; ++j) {
        const Real wy = P.row(tpos[1])[j];
        if (wy == 0.0) continue;
        for (int i = 0; i < kR; ++i) {
          const Real wx = P.row(tpos[0])[i];
          if (wx == 0.0) continue;
          const Real w = wx * wy * wz;
          const std::array<Pu, 3> q = {A[0] + i * (2 * Sh),
                                       A[1] + j * (2 * Sh),
                                       A[2] + k * (2 * Sh)};
          const PointRecord& rec =
              pmap_for_rules_.at(point_key(q[0], q[1], q[2]));
          if (!rec.hanging) {
            acc[rec.dof] += w;
          } else {
            for (const auto& [dof, w2] : resolve(rec.hidx).terms)
              acc[dof] += w * w2;
          }
        }
      }
    }
    auto& rule = hanging_rules_[h];
    rule.terms.assign(acc.begin(), acc.end());
    std::sort(rule.terms.begin(), rule.terms.end());
    state[h] = 2;
    return rule;
  };

  for (std::size_t h = 0; h < nh; ++h) resolve(h);
  pmap_for_rules_.clear();

  // Per-octant hanging-resolution flop cost (2 per rule term), charged by
  // unzip whenever the octant is loaded.
  hanging_flops_.assign(tree_.size(), 0);
  for (OctIndex e = 0; e < static_cast<OctIndex>(tree_.size()); ++e) {
    const std::int64_t* map = o2n(e);
    std::uint64_t f = 0;
    for (int i = 0; i < kOctPts; ++i)
      if (map[i] < 0) f += 2 * hanging_rules_[-(map[i] + 1)].terms.size();
    hanging_flops_[e] = f;
  }
}

std::array<Real, 3> Mesh::dof_position(DofIndex d) const {
  const auto& p = dof_pu_[d];
  const Real scale = 2.0 * domain_.half_extent / kPuDomain;
  return {-domain_.half_extent + scale * p[0],
          -domain_.half_extent + scale * p[1],
          -domain_.half_extent + scale * p[2]};
}

bool Mesh::dof_on_boundary(DofIndex d) const {
  const auto& p = dof_pu_[d];
  for (int a = 0; a < 3; ++a)
    if (p[a] == 0 || p[a] == kPuDomain) return true;
  return false;
}

Real Mesh::octant_spacing(OctIndex e) const {
  return domain_.octant_edge(tree_.leaf(e).level) / (kR - 1);
}

Real Mesh::finest_spacing() const {
  return domain_.octant_edge(tree_.max_level()) / (kR - 1);
}

PatchGeom Mesh::patch_geom(OctIndex e) const {
  const oct::TreeNode& t = tree_.leaf(e);
  const Real h = octant_spacing(e);
  const auto lo = domain_.to_phys(t.x, t.y, t.z);
  return {{lo[0] - kPad * h, lo[1] - kPad * h, lo[2] - kPad * h}, h};
}

void Mesh::sample(const std::function<Real(Real, Real, Real)>& f,
                  Real* field) const {
  for (DofIndex d = 0; d < static_cast<DofIndex>(num_dofs()); ++d) {
    const auto x = dof_position(d);
    field[d] = f(x[0], x[1], x[2]);
  }
}

void Mesh::load_octant(const Real* field, OctIndex e, Real* out) const {
  const std::int64_t* map = o2n(e);
  for (int i = 0; i < kOctPts; ++i) {
    const std::int64_t v = map[i];
    if (v >= 0) {
      out[i] = field[v];
    } else {
      const HangingRule& r = hanging_rules_[-(v + 1)];
      Real s = 0;
      for (const auto& [dof, w] : r.terms) s += w * field[dof];
      out[i] = s;
    }
  }
}

ScatterBox Mesh::plan_box(OctIndex b, OctIndex e) const {
  const oct::TreeNode& tb = tree_.leaf(b);
  const oct::TreeNode& te = tree_.leaf(e);
  const auto Ab = anchor_pu(tb);
  const auto Ae = anchor_pu(te);
  const Pu Sb = spacing_pu(tb.level);
  const Pu Se = spacing_pu(te.level);
  ScatterBox box{};
  box.src = e;
  box.fine = te.level < tb.level;
  box.stride = te.level > tb.level ? 2 : 1;
  // Patch indices m whose coordinate lies in e's closed box, with the source
  // index along that axis; along each axis they form a run of consecutive m
  // whose source index advances by the stride.
  for (int a = 0; a < 3; ++a) {
    int cnt = 0;
    for (int m = 0; m < kPatch; ++m) {
      const std::int64_t p = Ab[a] + std::int64_t(m - kPad) * Sb;
      if (p < Ae[a] || p > Ae[a] + std::int64_t(kR - 1) * Se) continue;
      std::int64_t s;
      if (te.level == tb.level) {
        s = (p - Ae[a]) / Se;        // direct copy index (0..6)
      } else if (te.level < tb.level) {
        s = (p - Ae[a]) / (Se / 2);  // fine-covering index (0..12)
      } else {
        DGR_CHECK((p - Ae[a]) % Se == 0);
        s = (p - Ae[a]) / Se;        // injection index (0..6)
      }
      if (cnt == 0) {
        box.dst[a] = static_cast<std::int8_t>(m);
        box.from[a] = static_cast<std::int8_t>(s);
      }
      DGR_CHECK(m == box.dst[a] + cnt && s == box.from[a] + cnt * box.stride);
      ++cnt;
    }
    DGR_CHECK_MSG(cnt > 0, "neighbor octant does not reach the patch");
    box.n[a] = static_cast<std::int8_t>(cnt);
  }
  return box;
}

void Mesh::build_scatter_plan() {
  const OctIndex n = static_cast<OctIndex>(tree_.size());
  plan_.clear();
  plan_begin_.assign(1, 0);
  for (OctIndex b = 0; b < n; ++b) {
    plan_.push_back(plan_box(b, b));
    for (OctIndex e : adjacency_[b]) plan_.push_back(plan_box(b, e));
    plan_begin_.push_back(plan_.size());
  }
}

void Mesh::fill_domain_boundary(OctIndex b, Real* patch,
                                OpCounts* counts) const {
  const oct::TreeNode& t = tree_.leaf(b);
  const auto A = anchor_pu(t);
  const Pu S = spacing_pu(t.level);
  // Degree-4 extrapolation one step at a time: f(-1) from f(0..4).
  const auto extrap = [](Real f0, Real f1, Real f2, Real f3, Real f4) {
    return 5 * f0 - 10 * f1 + 10 * f2 - 5 * f3 + f4;
  };
  // Which sides of this octant lie on the outer boundary?
  bool lo_side[3], hi_side[3];
  for (int a = 0; a < 3; ++a) {
    lo_side[a] = (A[a] == 0);
    hi_side[a] = (A[a] + (kR - 1) * S == kPuDomain);
  }
  std::uint64_t flops = 0;
  // Sweep x, then y, then z: later sweeps overwrite any corner values a
  // previous sweep computed from not-yet-filled rows, so after the z sweep
  // every out-of-domain point holds a valid extrapolation.
  for (int axis = 0; axis < 3; ++axis) {
    if (!lo_side[axis] && !hi_side[axis]) continue;
    const int stride = (axis == 0) ? 1 : (axis == 1) ? kPatch : kPatch * kPatch;
    for (int u = 0; u < kPatch; ++u)
      for (int v = 0; v < kPatch; ++v) {
        // Base index of this 1-D line.
        int base;
        if (axis == 0) base = patch_idx(0, u, v);
        else if (axis == 1) base = patch_idx(u, 0, v);
        else base = patch_idx(u, v, 0);
        Real* line = patch + base;
        if (lo_side[axis]) {
          for (int m = kPad - 1; m >= 0; --m) {
            line[m * stride] = extrap(line[(m + 1) * stride],
                                      line[(m + 2) * stride],
                                      line[(m + 3) * stride],
                                      line[(m + 4) * stride],
                                      line[(m + 5) * stride]);
            flops += 9;
          }
        }
        if (hi_side[axis]) {
          for (int m = kPatch - kPad; m < kPatch; ++m) {
            line[m * stride] = extrap(line[(m - 1) * stride],
                                      line[(m - 2) * stride],
                                      line[(m - 3) * stride],
                                      line[(m - 4) * stride],
                                      line[(m - 5) * stride]);
            flops += 9;
          }
        }
      }
  }
  if (counts) counts->flops += flops;
}

void Mesh::unzip(const Real* const* fields, int nvar, OctIndex begin,
                 OctIndex end, Real* patches, UnzipMethod method,
                 OpCounts* counts) const {
  unzip_slice(fields, nvar, 0, nvar, begin, end, patches, method, counts);
}

void Mesh::unzip_slice(const Real* const* fields, int nvar, int vbegin,
                       int vend, OctIndex begin, OctIndex end, Real* patches,
                       UnzipMethod method, OpCounts* counts) const {
  DGR_CHECK(begin >= 0 && end <= static_cast<OctIndex>(num_octants()) &&
            begin <= end);
  DGR_CHECK(0 <= vbegin && vbegin <= vend && vend <= nvar);

  if (method == UnzipMethod::kLoopOverPatches) {
    for (OctIndex b = begin; b < end; ++b)
      for (int v = vbegin; v < vend; ++v) {
        Real* patch = patches +
                      (static_cast<std::size_t>(b - begin) * nvar + v) *
                          kPatchPts;
        gather_patch(fields[v], b, patch, counts);
        fill_domain_boundary(b, patch, counts);
      }
    return;
  }

  // loop-over-octants: the chunk's sources are its targets and their
  // neighbors, each loaded once per variable. A coarser source is prolonged
  // only over the bounding box of the fine points its chunk targets read.
  const ScatterBox* boxes = plan_.data() + plan_begin_[begin];
  const std::size_t nbox = plan_begin_[end] - plan_begin_[begin];
  std::vector<OctIndex> sources;
  sources.reserve(nbox);
  for (std::size_t i = 0; i < nbox; ++i) sources.push_back(boxes[i].src);
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());

  std::vector<std::uint32_t> box_slot(nbox);
  // Each source's region starts empty and grows to cover its fine boxes.
  const FineBox empty{{kFine, kFine, kFine}, {0, 0, 0}};
  std::vector<FineBox> region(sources.size(), empty);
  std::uint64_t written = 0;
  for (std::size_t i = 0; i < nbox; ++i) {
    const ScatterBox& bx = boxes[i];
    const std::size_t s =
        std::lower_bound(sources.begin(), sources.end(), bx.src) -
        sources.begin();
    box_slot[i] = static_cast<std::uint32_t>(s);
    written += std::uint64_t(bx.n[0]) * bx.n[1] * bx.n[2];
    if (!bx.fine) continue;
    for (int a = 0; a < 3; ++a) {
      region[s].lo[a] = std::min<int>(region[s].lo[a], bx.from[a]);
      region[s].hi[a] = std::max<int>(region[s].hi[a], bx.from[a] + bx.n[a]);
    }
  }
  constexpr std::size_t kFinePts = std::size_t(kFine) * kFine * kFine;
  std::vector<std::int64_t> fine_slot(sources.size(), -1);
  std::int64_t nfine = 0;
  std::uint64_t load_flops = 0;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    load_flops += hanging_flops_[sources[s]];
    if (region[s].lo[0] < region[s].hi[0]) fine_slot[s] = nfine++;
  }
  std::vector<Real> u_src(sources.size() * kOctPts);
  std::vector<Real> fine_src(static_cast<std::size_t>(nfine) * kFinePts);

  for (int v = vbegin; v < vend; ++v) {
    const Real* field = fields[v];
    for (std::size_t s = 0; s < sources.size(); ++s) {
      load_octant(field, sources[s], &u_src[s * kOctPts]);
      if (fine_slot[s] >= 0)
        prolong_region(&u_src[s * kOctPts], region[s],
                       &fine_src[fine_slot[s] * kFinePts]);
    }
    // The counts model the whole-octant kernel: every loaded source, one
    // full prolongation per source adjacent to a finer target, and every
    // box write (shared faces included).
    if (counts) {
      counts->bytes_read += sources.size() * kOctPts * sizeof(Real);
      counts->flops += load_flops + nfine * kProlongOctantFlops;
      counts->bytes_written += written * sizeof(Real);
    }
    const ScatterBox* bx = boxes;
    const std::uint32_t* slot = box_slot.data();
    for (OctIndex b = begin; b < end; ++b) {
      Real* patch = patches +
                    (static_cast<std::size_t>(b - begin) * nvar + v) *
                        kPatchPts;
      const ScatterBox* bx_end = plan_.data() + plan_begin_[b + 1];
      for (; bx != bx_end; ++bx, ++slot) {
        const Real* src = bx->fine ? &fine_src[fine_slot[*slot] * kFinePts]
                                   : &u_src[*slot * kOctPts];
        copy_box(*bx, src, patch);
      }
      fill_domain_boundary(b, patch, counts);
    }
  }
}

void Mesh::gather_patch(const Real* field, OctIndex b, Real* patch,
                        OpCounts* counts) const {
  const oct::TreeNode& tb = tree_.leaf(b);
  const auto Ab = anchor_pu(tb);
  const Pu Sb = spacing_pu(tb.level);

  // Center: the octant's own values.
  Real u_b[kOctPts];
  load_octant(field, b, u_b);
  if (counts) {
    counts->bytes_read += kOctPts * sizeof(Real);
    counts->flops += hanging_flops_[b];
  }
  for (int k = 0; k < kR; ++k)
    for (int j = 0; j < kR; ++j)
      for (int i = 0; i < kR; ++i)
        patch[patch_idx(i + kPad, j + kPad, k + kPad)] =
            u_b[oct_idx(i, j, k)];
  if (counts) counts->bytes_written += kOctPts * sizeof(Real);

  // Padding: gather point by point, loading each contributing source octant
  // for this patch separately (redundant loads) and re-deriving the
  // interpolation weights per point (redundant interpolation) — the
  // loop-over-patches cost structure of Fig. 7.
  std::vector<std::pair<OctIndex, std::vector<Real>>> loaded;
  auto source_values = [&](OctIndex e) -> const Real* {
    for (auto& [oe, u] : loaded)
      if (oe == e) return u.data();
    loaded.emplace_back(e, std::vector<Real>(kOctPts));
    load_octant(field, e, loaded.back().second.data());
    if (counts) {
      counts->bytes_read += kOctPts * sizeof(Real);
      counts->flops += hanging_flops_[e];
    }
    return loaded.back().second.data();
  };

  const auto& adj = adjacency_[b];
  OctIndex last_found = kInvalidOct;  // consecutive points share sources
  for (int k = 0; k < kPatch; ++k)
    for (int j = 0; j < kPatch; ++j)
      for (int i = 0; i < kPatch; ++i) {
        if (i >= kPad && i < kPad + kR && j >= kPad && j < kPad + kR &&
            k >= kPad && k < kPad + kR)
          continue;  // center already done
        const std::int64_t p[3] = {
            std::int64_t(Ab[0]) + std::int64_t(i - kPad) * Sb,
            std::int64_t(Ab[1]) + std::int64_t(j - kPad) * Sb,
            std::int64_t(Ab[2]) + std::int64_t(k - kPad) * Sb};
        if (p[0] < 0 || p[1] < 0 || p[2] < 0 || p[0] > kPuDomain ||
            p[1] > kPuDomain || p[2] > kPuDomain)
          continue;  // boundary extrapolation later
        // Find a source octant whose closed box contains p (trying the
        // previous point's source first — adjacent points share sources).
        const auto covers = [&](OctIndex e) {
          const oct::TreeNode& te = tree_.leaf(e);
          const auto Ae = anchor_pu(te);
          const Pu Se = spacing_pu(te.level);
          for (int a = 0; a < 3; ++a)
            if (p[a] < Ae[a] || p[a] > Ae[a] + std::int64_t(kR - 1) * Se)
              return false;
          return true;
        };
        OctIndex found = kInvalidOct;
        if (last_found != kInvalidOct && covers(last_found)) {
          found = last_found;
        } else {
          for (OctIndex e : adj) {
            if (covers(e)) {
              found = e;
              break;
            }
          }
        }
        last_found = found;
        DGR_CHECK_MSG(found != kInvalidOct, "gather: uncovered patch point");
        const oct::TreeNode& te = tree_.leaf(found);
        const auto Ae = anchor_pu(te);
        const Pu Se = spacing_pu(te.level);
        const Real* u_e = source_values(found);
        if (te.level >= tb.level) {
          // Same level or finer: the point coincides with a source point.
          const int si = static_cast<int>((p[0] - Ae[0]) / Se);
          const int sj = static_cast<int>((p[1] - Ae[1]) / Se);
          const int sk = static_cast<int>((p[2] - Ae[2]) / Se);
          patch[patch_idx(i, j, k)] = u_e[oct_idx(si, sj, sk)];
        } else {
          // Coarser: per-point tensor interpolation (redundant relative to
          // the scatter path's one prolongation per source octant).
          const Pu Sh = Se / 2;
          patch[patch_idx(i, j, k)] = prolong_point_cached(
              u_e, static_cast<int>((p[0] - Ae[0]) / Sh),
              static_cast<int>((p[1] - Ae[1]) / Sh),
              static_cast<int>((p[2] - Ae[2]) / Sh), counts);
        }
        if (counts) counts->bytes_written += sizeof(Real);
      }
}

void Mesh::zip(const Real* blocks, int nvar, OctIndex begin, OctIndex end,
               Real* const* fields, OpCounts* counts) const {
  DGR_CHECK(begin >= 0 && end <= static_cast<OctIndex>(num_octants()) &&
            begin <= end);
  std::uint64_t moved = 0;
  for (OctIndex b = begin; b < end; ++b) {
    const detail::ZipRun* r0 = zip_runs_.data() + zip_begin_[b];
    const detail::ZipRun* r1 = zip_runs_.data() + zip_begin_[b + 1];
    for (int v = 0; v < nvar; ++v) {
      const Real* block = blocks +
                          (static_cast<std::size_t>(b - begin) * nvar + v) *
                              kOctPts;
      Real* field = fields[v];
      for (const detail::ZipRun* r = r0; r != r1; ++r) {
        const Real* s = block + r->block;
        Real* d = field + r->dof;
        for (int i = 0; i < r->n; ++i) d[i] = s[i];
        moved += std::uint64_t(r->n);
      }
    }
  }
  if (counts) {
    counts->bytes_read += moved * sizeof(Real);
    counts->bytes_written += moved * sizeof(Real);
  }
}

void Mesh::unzip_all(const Real* const* fields, int nvar, Real* patches,
                     UnzipMethod method, OpCounts* counts) const {
  unzip(fields, nvar, 0, static_cast<OctIndex>(num_octants()), patches,
        method, counts);
}

}  // namespace dgr::mesh
