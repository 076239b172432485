#pragma once
/// \file exec_space.hpp
/// \brief dgr::exec_space — the unified execution-space layer.
///
/// One kernel body per sweep, instantiated per backend. An ExecSpace is a
/// cheap value describing *where* a data-parallel sweep runs; the sweep
/// itself is written once against range_for / team_for and never names a
/// backend. Three backends exist:
///
///   backend   | execution engine            | instrumentation
///   ----------+-----------------------------+---------------------------
///   kSerial   | caller thread, chunk order  | OpCounts slots
///   kPool     | src/exec work-stealing pool | OpCounts slots
///             | (exec::for_each_chunk)      |
///   kSimGpu   | the same pool, then one     | OpCounts slots, kernel
///             | GpuRuntime::book per sweep  | records, modeled time,
///             |                             | gpu.* metrics
///
/// On every backend a labelled sweep runs inside one obs::ScopedSpan named
/// by spec.label, opened on the calling thread: its row in the per-layer
/// ledger and its slice in the flight recorder (obs/obs.hpp).
///
/// A caller picks the backend by the space it passes in:
/// ExecSpace::serial(), ExecSpace::simgpu(rt), or ExecSpace::host() (the
/// pool), which every solver path defaults to.
///
/// Determinism is enforced here, in exactly one place: range_for is the
/// one chunk loop of every backend. It partitions [0, n) into the same
/// fixed grain-based chunks (a function of the problem only — see
/// exec/parallel.hpp), gives each chunk its own OpCounts slot in a vector
/// local to the sweep, and merges the slots in chunk order; on simgpu it
/// then books the merged counts as one launch on the space's GpuRuntime.
/// Consequently every sweep is bitwise identical across backends, thread
/// counts, and scheduling — the contract pinned by the determinism matrix
/// in tests/test_exec_space.cpp. Because the slots belong to the sweep, a
/// kernel body may open another sweep on the driver thread without
/// touching the outer sweep's slots.
///
/// The inner-loop vector policy plugs the dgr::simd pack layer in:
/// VectorPolicy carries the SIMD dispatch width (0 = the runtime DGR_SIMD
/// width) and team_for hands it to kernel bodies through TeamMember, so a
/// kernel's vector width is a property of the space it runs in, not of the
/// kernel body.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/counters.hpp"
#include "exec/parallel.hpp"
#include "exec/pool.hpp"
#include "obs/obs.hpp"
#include "simd/simd.hpp"
#include "simgpu/runtime.hpp"

namespace dgr::exec_space {

enum class Backend { kSerial = 0, kPool = 1, kSimGpu = 2 };

const char* backend_name(Backend b);

/// Patch-block element offset of (octant-in-chunk o, variable v) with nvar
/// variables of npts points each: [o][v][p], x fastest — the layout
/// mesh::unzip produces (npts = kPatchPts) and mesh::zip consumes (npts =
/// kOctPts). Shared by every current backend (the simulated device
/// executes on the host).
constexpr std::size_t patch_offset(std::int64_t o, int v, std::size_t nvar,
                                   std::size_t npts) {
  return (static_cast<std::size_t>(o) * nvar + static_cast<std::size_t>(v)) *
         npts;
}

/// Identity of one launch: the simgpu kernel-record name plus the layer
/// label (the sweep's span), with the block/stream accounting the device
/// model prices. Host backends ignore blocks/stream.
struct LaunchSpec {
  const char* name = "kernel";  ///< simgpu kernel-record name
  const char* label = nullptr;  ///< span / ledger layer (null = no span)
  std::uint64_t blocks = 0;     ///< simgpu accounting only
  int stream = 0;               ///< simgpu stream (0 = sync pipeline)
};

/// Inner-loop vector policy: the dgr::simd pack width kernel bodies
/// dispatch on. 0 defers to the runtime DGR_SIMD width (simd_active_width),
/// 1 forces scalar, 4 forces 4-wide packs; no other width exists.
/// Results are bitwise identical at every width.
struct VectorPolicy {
  int width = 0;
  /// The dispatch width, 1 or 4.
  int resolved() const { return width == 0 ? simd_active_width() : width; }
};

/// Handle a team_for body receives: the executing lane (index for per-lane
/// scratch such as derivative workspaces) and the space's vector policy.
class TeamMember {
 public:
  TeamMember(int lane, int vector_width)
      : lane_(lane), vector_width_(vector_width) {}
  /// Executing lane in [0, ExecSpace::max_lanes()): stable for the whole
  /// team (chunk), distinct across concurrently running teams.
  int lane() const { return lane_; }
  /// The space's resolved inner-loop vector width, 1 or 4 (see
  /// VectorPolicy).
  int vector_width() const { return vector_width_; }

 private:
  int lane_;
  int vector_width_;
};

/// A backend handle: copyable, trivially cheap, safe to hold by value. The
/// simgpu flavor borrows its GpuRuntime (the runtime must outlive the
/// space).
class ExecSpace {
 public:
  /// Default: the work-stealing pool (the common host backend).
  ExecSpace() : ExecSpace(Backend::kPool, nullptr) {}

  static ExecSpace serial() { return ExecSpace(Backend::kSerial, nullptr); }
  static ExecSpace simgpu(dgr::simgpu::GpuRuntime& rt) {
    return ExecSpace(Backend::kSimGpu, &rt);
  }
  /// The host space every solver path defaults to: the pool.
  static ExecSpace host() { return ExecSpace(); }

  Backend backend() const { return backend_; }
  /// The backing runtime (non-null iff backend() == kSimGpu).
  dgr::simgpu::GpuRuntime* runtime() const { return rt_; }

  VectorPolicy vector_policy() const { return vp_; }
  /// Throws dgr::Error for a width other than 0, 1 or 4, so a bad config
  /// fails where it is set instead of running some other width.
  void set_vector_policy(VectorPolicy vp) {
    DGR_CHECK_MSG(vp.width == 0 || vp.width == 1 || vp.width == 4,
                  "simd_width must be 0 (DGR_SIMD), 1 or 4, got "
                      << vp.width);
    vp_ = vp;
  }

  /// Sizing bound for per-lane scratch arrays indexed by TeamMember::lane.
  int max_lanes() const { return exec::lanes(); }

  /// Run body(chunk_begin, chunk_end, OpCounts&) over the fixed grain-based
  /// chunks of [0, n), inside a span named spec.label (when set). Per-chunk
  /// counts land in slots indexed by chunk and are merged in chunk order
  /// into *counts (when non-null) — and, on the simgpu backend, booked as
  /// one launch of spec.name (an empty sweep books a zero-count launch).
  /// Chunks must write disjoint outputs.
  template <class Body>
  void range_for(const LaunchSpec& spec, std::int64_t n, std::int64_t grain,
                 OpCounts* counts, Body&& body) const {
    std::optional<obs::ScopedSpan> span;
    if (spec.label) span.emplace(spec.label, "exec");
    const bool gpu = backend_ == Backend::kSimGpu;
    if (grain < 1) grain = 1;
    const std::int64_t nc = exec::num_chunks(0, n, grain);
    if (nc == 0 && !gpu) return;
    std::vector<OpCounts> slots(static_cast<std::size_t>(nc));
    OpCounts* sp = slots.data();
    if (backend_ == Backend::kSerial) {
      for (std::int64_t c = 0; c < nc; ++c)
        body(c * grain, std::min<std::int64_t>(n, (c + 1) * grain), sp[c]);
    } else {
      exec::for_each_chunk(0, n, grain,
                           [&](std::int64_t c, std::int64_t b, std::int64_t e) {
                             body(b, e, sp[c]);
                           });
    }
    OpCounts total;
    for (const OpCounts& c : slots) total += c;
    if (counts) *counts += total;
    if (gpu) rt_->book(spec.name, spec.blocks, spec.stream, total);
  }

  /// Hierarchical flavor: body(TeamMember&, chunk_begin, chunk_end,
  /// OpCounts&) — one team per chunk, with the executing lane and the
  /// space's resolved vector width delivered through the member handle.
  template <class Body>
  void team_for(const LaunchSpec& spec, std::int64_t n, std::int64_t grain,
                OpCounts* counts, Body&& body) const {
    const int vw = vp_.resolved();
    range_for(spec, n, grain, counts,
              [&body, vw](std::int64_t b, std::int64_t e, OpCounts& c) {
                TeamMember member(exec::this_lane(), vw);
                body(member, b, e, c);
              });
  }

 private:
  ExecSpace(Backend b, dgr::simgpu::GpuRuntime* rt) : backend_(b), rt_(rt) {}

  Backend backend_;
  dgr::simgpu::GpuRuntime* rt_;
  VectorPolicy vp_;
};

}  // namespace dgr::exec_space
