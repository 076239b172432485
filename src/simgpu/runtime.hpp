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
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/counters.hpp"
#include "obs/obs.hpp"
#include "perf/machine_model.hpp"

namespace dgr::simgpu {

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
  // stays a single-driver operation (see launch/book).
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

  /// Book one finished launch of `blocks` blocks on `stream` whose work
  /// was `c` into the kernel record `name` and the gpu.* metrics. launch()
  /// books here after running its body. A data-parallel launch is an
  /// exec_space sweep on ExecSpace::simgpu(*this): ExecSpace::range_for
  /// runs its chunks on the host pool and books their chunk-order-merged
  /// counts here, so the record is bitwise that of a serial launch() doing
  /// the same work, whatever the thread count.
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
  perf::MachineModel model_;
  std::map<std::string, KernelRecord> records_;
  std::atomic<std::uint64_t> allocated_{0}, peak_{0};
  std::atomic<std::uint64_t> h2d_bytes_{0}, d2h_bytes_{0};
};

}  // namespace dgr::simgpu
