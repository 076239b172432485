#include "exec_space/exec_space.hpp"

namespace dgr::exec_space {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kSerial: return "serial";
    case Backend::kPool: return "pool";
    case Backend::kSimGpu: return "simgpu";
  }
  return "unknown";
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

}  // namespace dgr::exec_space
