#include "exec_space/exec_space.hpp"

#include <cstdlib>

#include "common/parse.hpp"

namespace dgr::exec_space {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kSerial: return "serial";
    case Backend::kPool: return "pool";
    case Backend::kSimGpu: return "simgpu";
  }
  return "unknown";
}

Backend parse_backend(const char* s, const char* what) {
  return static_cast<Backend>(
      dgr::parse_choice(s, what, {"serial", "pool", "simgpu"}));
}

Backend backend_from_env() {
  const char* e = std::getenv("DGR_EXEC_SPACE");
  if (!e) return Backend::kPool;
  return parse_backend(e, "DGR_EXEC_SPACE");
}

Backend default_backend() {
  static const Backend cached = backend_from_env();
  return cached;
}

namespace detail {
namespace {

// Per-thread slot arena for host-backend sweeps, with a busy flag so a
// nested sweep on the same thread (a kernel body launching another sweep)
// degrades to heap slots instead of resetting the outer sweep's live slots.
thread_local dgr::simgpu::ScratchArena t_slot_arena;
thread_local bool t_slot_arena_busy = false;

}  // namespace

HostSlots::HostSlots(std::size_t n) : data_(nullptr), from_arena_(false) {
  if (!t_slot_arena_busy) {
    t_slot_arena_busy = true;
    from_arena_ = true;
    t_slot_arena.reset();
    data_ = t_slot_arena.get<OpCounts>(n);
  } else {
    fallback_.assign(n, OpCounts{});
    data_ = fallback_.data();
  }
}

HostSlots::~HostSlots() {
  if (from_arena_) t_slot_arena_busy = false;
}

}  // namespace detail

ExecSpace ExecSpace::host() {
  const Backend b = default_backend();
  if (b != Backend::kSimGpu) return ExecSpace(b, nullptr);
  // Accounting-only simulated device, one per driver thread: ensemble
  // runners drive solvers concurrently from pool workers, and
  // kernel-record bookkeeping is a single-driver operation.
  thread_local dgr::simgpu::GpuRuntime t_runtime;
  return ExecSpace(Backend::kSimGpu, &t_runtime);
}

}  // namespace dgr::exec_space
