#pragma once
/// \file runtime.hpp
/// \brief Simulated GPU runtime. Kernels execute on the host under a
/// block-level launch abstraction while recording their operation counts;
/// modeled device time comes from feeding those counts through the §III-D
/// slow–fast memory model (perf::MachineModel). Host<->device transfers and
/// device memory are accounted the same way, and streams tag kernels so the
/// asynchronous wave-extraction path (Algorithm 1) can be excluded from the
/// critical path.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "common/counters.hpp"
#include "common/error.hpp"
#include "exec/parallel.hpp"
#include "obs/obs.hpp"
#include "perf/machine_model.hpp"

namespace dgr::simgpu {

/// Bump allocator for per-launch bookkeeping (the per-chunk OpCounts slots
/// of launch_range, and any transient buffers a kernel body wants for one
/// launch). reset() recycles all blocks but keeps their capacity, so a
/// steady-state launch loop performs zero heap allocations — the property
/// the scratch-arena test pins down via stats().heap_allocs.
class ScratchArena {
 public:
  struct Stats {
    std::uint64_t heap_allocs = 0;  ///< blocks obtained from the heap
    std::uint64_t requests = 0;     ///< get<T>() calls served
  };

  /// Largest single request the arena will serve. Well above any real use;
  /// the bound exists so the alignment bump and the block-end pointer math
  /// in take() can never overflow std::size_t and hand back a pointer into
  /// (or past) a block that is too small.
  static constexpr std::size_t kMaxRequestBytes =
      std::numeric_limits<std::size_t>::max() / 2;

  /// `n` default-constructed T slots, 64-byte aligned (slots written by
  /// different worker lanes must not share a cache line). Valid until the
  /// next reset(). Throws dgr::Error when the request exceeds the arena's
  /// representable capacity (element-count * sizeof(T) or the alignment
  /// round-up would overflow).
  template <class T>
  T* get(std::size_t n) {
    ++stats_.requests;
    DGR_CHECK_MSG(n <= kMaxRequestBytes / sizeof(T),
                  "ScratchArena capacity exceeded: " << n << " slots of "
                      << sizeof(T) << " bytes overflow the request limit");
    const std::size_t bytes = align_up(n * sizeof(T));
    unsigned char* p = take(bytes);
    T* out = reinterpret_cast<T*>(p);
    for (std::size_t i = 0; i < n; ++i) new (out + i) T();
    return out;
  }

  /// Recycle every block (trivially-destructible contents only), keeping
  /// the capacity already acquired.
  void reset() {
    if (blocks_.size() > 1) {
      // Coalesce so the next cycle is served from one block.
      std::size_t total = 0;
      for (const auto& b : blocks_) total += b.size();
      blocks_.clear();
      blocks_.emplace_back(total);
      ++stats_.heap_allocs;
    }
    block_ = used_ = 0;
  }

  const Stats& stats() const { return stats_; }

 private:
  /// Overflow-checked round-up to the 64-byte slot alignment. The caller
  /// (get<T>) has already bounded the raw byte count by kMaxRequestBytes,
  /// so the +63 bump cannot wrap; the check is kept here as a hard
  /// capacity-exceeded error in case a future caller bypasses get<T>.
  static std::size_t align_up(std::size_t n) {
    DGR_CHECK_MSG(n <= kMaxRequestBytes,
                  "ScratchArena capacity exceeded: aligning a " << n
                      << "-byte request would overflow");
    return (n + 63) & ~std::size_t(63);
  }

  /// First offset >= off whose absolute address is 64-byte aligned (the
  /// block's base address need not be).
  static std::size_t aligned_offset(const unsigned char* base,
                                    std::size_t off) {
    const auto p = reinterpret_cast<std::uintptr_t>(base) + off;
    return off + ((64 - (p % 64)) % 64);
  }

  unsigned char* take(std::size_t bytes) {
    while (block_ < blocks_.size()) {
      unsigned char* base = blocks_[block_].data();
      const std::size_t size = blocks_[block_].size();
      const std::size_t start = aligned_offset(base, used_);
      // Overflow-safe form of `start + bytes <= size`: the alignment bump
      // may push `start` past the block end, and `start + bytes` must not
      // wrap around before the comparison (a wrapped sum would hand back a
      // pointer into a block that is far too small).
      if (start <= size && bytes <= size - start) {
        used_ = start + bytes;
        return base + start;
      }
      ++block_;
      used_ = 0;
    }
    // bytes <= kMaxRequestBytes (align_up), so +64 cannot overflow.
    blocks_.emplace_back(std::max<std::size_t>(bytes + 64, 4096));
    ++stats_.heap_allocs;
    block_ = blocks_.size() - 1;
    unsigned char* base = blocks_.back().data();
    const std::size_t start = aligned_offset(base, 0);
    used_ = start + bytes;
    return base + start;
  }

  std::vector<std::vector<unsigned char>> blocks_;
  std::size_t block_ = 0, used_ = 0;  // bump position
  Stats stats_;
};

struct KernelRecord {
  int launches = 0;
  std::uint64_t blocks = 0;
  int stream = 0;
  OpCounts counts;              ///< totals over all launches
  std::vector<OpCounts> per_launch;  ///< per-launch counts (model input)

  /// Modeled device time: the finite-cache model applied per launch (the
  /// §III-D working set m is a per-kernel-invocation quantity).
  double modeled_seconds(const perf::MachineModel& m) const {
    double t = 0;
    for (const auto& c : per_launch) t += m.time_finite_cache(c);
    return t;
  }
};

class GpuRuntime {
 public:
  explicit GpuRuntime(perf::MachineModel model = perf::a100())
      : model_(std::move(model)) {}

  const perf::MachineModel& model() const { return model_; }

  // ------------------------------------------------- memory accounting --
  // The byte counters are atomic so kernel bodies running on pool workers
  // may account transfers concurrently; kernel-launch bookkeeping itself
  // stays a single-driver operation (see launch/launch_range).
  void device_alloc(std::uint64_t bytes) {
    const std::uint64_t now =
        allocated_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed))
      ;
  }
  void device_free(std::uint64_t bytes) {
    std::uint64_t cur = allocated_.load(std::memory_order_relaxed);
    while (!allocated_.compare_exchange_weak(cur, cur - std::min(cur, bytes),
                                             std::memory_order_relaxed))
      ;
  }
  void h2d(std::uint64_t bytes) {
    h2d_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    obs::count("gpu.h2d_bytes", bytes);
  }
  void d2h(std::uint64_t bytes) {
    d2h_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    obs::count("gpu.d2h_bytes", bytes);
  }

  std::uint64_t allocated_bytes() const { return allocated_; }
  std::uint64_t peak_bytes() const { return peak_; }
  std::uint64_t h2d_bytes() const { return h2d_bytes_; }
  std::uint64_t d2h_bytes() const { return d2h_bytes_; }

  /// Modeled PCIe transfer time for all H2D/D2H traffic so far.
  double transfer_seconds() const {
    if (model_.h2d_bw <= 0) return 0;
    return static_cast<double>(h2d_bytes_ + d2h_bytes_) / model_.h2d_bw;
  }

  // --------------------------------------------------- kernel launches --
  /// Execute `body` as one kernel launch of `blocks` blocks on `stream`,
  /// inside a span named `name`. The body receives an OpCounts to fill
  /// with the work it performed. `name` must be a static string: the
  /// flight recorder keeps the pointer.
  template <class F>
  void launch(const char* name, std::uint64_t blocks, int stream, F&& body) {
    OpCounts c;
    {
      obs::ScopedSpan span(name, "kernel");
      body(c);
    }
    book(name, blocks, stream, c);
  }

  /// Execute one kernel launch whose body is data-parallel over [0, n):
  /// body(i0, i1, OpCounts&) runs for fixed-grain chunks distributed over
  /// the host pool (src/exec). Per-chunk counts land in arena slots indexed
  /// by chunk and are merged in chunk order, so the recorded totals and the
  /// per-launch model input are bitwise identical to a serial launch() that
  /// does the same work — thread count never leaks into modeled times.
  /// Chunks of one launch must write disjoint outputs; the launch itself is
  /// still a single sequential record update on the caller. When `out` is
  /// non-null the chunk-order-merged counts are also accumulated into it
  /// (the exec_space layer routes solver-side OpCounts through this, and
  /// opens the sweep's span around the launch). Pool workers label their
  /// trace spans with `name`.
  template <class F>
  void launch_range(const char* name, std::uint64_t blocks, int stream,
                    std::int64_t n, std::int64_t grain, F&& body,
                    OpCounts* out = nullptr) {
    scratch_.reset();
    const std::int64_t nc = exec::num_chunks(0, n, grain);
    OpCounts* slots = scratch_.get<OpCounts>(static_cast<std::size_t>(nc));
    exec::for_each_chunk(
        0, n, grain,
        [&](std::int64_t c, std::int64_t b, std::int64_t e) {
          body(b, e, slots[c]);
        },
        name);
    OpCounts c;
    for (std::int64_t i = 0; i < nc; ++i) c += slots[i];
    if (out) *out += c;
    book(name, blocks, stream, c);
  }

  /// The per-launch scratch arena (reset at the start of every
  /// launch_range; see ScratchArena).
  ScratchArena& scratch() { return scratch_; }
  const ScratchArena::Stats& scratch_stats() const { return scratch_.stats(); }

  bool has_kernel(const std::string& name) const {
    return records_.count(name) > 0;
  }
  const KernelRecord& record(const std::string& name) const {
    return records_.at(name);
  }
  const std::map<std::string, KernelRecord>& records() const {
    return records_;
  }

  /// Modeled device time of one kernel (finite-cache model of §III-D,
  /// applied per launch).
  double modeled_kernel_seconds(const std::string& name) const {
    return records_.at(name).modeled_seconds(model_);
  }

  /// Modeled device time of the synchronous pipeline (stream 0) plus
  /// transfers; kernels on other streams overlap (Algorithm 1's async wave
  /// extraction) and are excluded unless `include_async`.
  double modeled_total_seconds(bool include_async = false) const {
    return modeled_total_with(model_, include_async) + transfer_seconds();
  }

  /// Same pipeline evaluated under a different machine model (the CPU side
  /// of the paper's GPU-vs-node comparisons).
  double modeled_total_with(const perf::MachineModel& m,
                            bool include_async = false) const {
    double t = 0;
    for (const auto& [name, rec] : records_)
      if (rec.stream == 0 || include_async) t += rec.modeled_seconds(m);
    return t;
  }

  /// Reset semantics. The runtime distinguishes *counters* — statistics of
  /// work submitted so far (kernel records, H2D/D2H transfer bytes, and the
  /// allocation high-water mark) — from *live allocation state*
  /// (allocated_bytes(), which tracks memory currently held and is only
  /// changed by device_alloc/device_free). reset_counters() clears all
  /// counters and restarts the high-water mark from the current allocation,
  /// so after a reset peak_bytes() reports the maximum reached *since the
  /// reset* and allocated_bytes() is untouched.
  void reset_counters() {
    records_.clear();
    h2d_bytes_ = 0;
    d2h_bytes_ = 0;
    peak_ = allocated_.load();
  }

 private:
  /// Book one finished launch into its kernel record and the metrics.
  void book(const char* name, std::uint64_t blocks, int stream,
            const OpCounts& c) {
    KernelRecord& rec = records_[name];
    rec.counts += c;
    rec.per_launch.push_back(c);
    rec.launches += 1;
    rec.blocks += blocks;
    rec.stream = stream;
    if (obs::MetricsRegistry* m = obs::metrics()) {
      m->add("gpu.launches");
      m->add("gpu.flops", c.flops);
      m->add(std::string("gpu.kernel.") + name + ".bytes", c.bytes_moved());
    }
  }

  perf::MachineModel model_;
  std::map<std::string, KernelRecord> records_;
  ScratchArena scratch_;
  std::atomic<std::uint64_t> allocated_{0}, peak_{0};
  std::atomic<std::uint64_t> h2d_bytes_{0}, d2h_bytes_{0};
};

}  // namespace dgr::simgpu
