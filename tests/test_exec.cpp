/// \file test_exec.cpp
/// \brief The work-stealing host pool (src/exec): chunk coverage,
/// exception propagation and nesting, and a data-parallel launch of the
/// simulated GPU runtime (an exec_space sweep on a simgpu space) recording
/// the same kernel record as a serial launch.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"

#include "exec/parallel.hpp"
#include "exec/pool.hpp"
#include "exec_space/exec_space.hpp"
#include "simgpu/runtime.hpp"

namespace dgr {
namespace {

/// Bit pattern of a double — bitwise comparisons, not epsilon ones.
std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

TEST(Pool, LaneModelAndResize) {
  exec::ThreadPool::set_global_threads(3);
  EXPECT_EQ(exec::lanes(), 3);
  EXPECT_EQ(exec::this_lane(), 0);  // the driver is lane 0
  exec::ThreadPool::set_global_threads(1);
  EXPECT_EQ(exec::lanes(), 1);
}

TEST(Pool, SubmittedTasksRunOnWorkerLanes) {
  exec::ThreadPool::set_global_threads(4);
  std::atomic<int> ran{0};
  std::atomic<bool> lane_ok{true};
  // Tasks observe a worker lane in [1, lanes); synchronize via a region.
  exec::parallel_for(0, 64, 1, [&](std::int64_t b, std::int64_t e) {
    const int lane = exec::this_lane();
    if (lane < 0 || lane >= exec::lanes()) lane_ok = false;
    ran += static_cast<int>(e - b);
  });
  EXPECT_EQ(ran.load(), 64);
  EXPECT_TRUE(lane_ok.load());
  exec::ThreadPool::set_global_threads(1);
}

TEST(Parallel, ChunksCoverRangeExactlyOnce) {
  for (int threads : {1, 2, 7}) {
    exec::ThreadPool::set_global_threads(threads);
    for (const auto& [begin, end, grain] :
         std::vector<std::array<std::int64_t, 3>>{
             {0, 100, 7}, {5, 6, 1}, {3, 3, 4}, {0, 64, 64}, {-10, 10, 3}}) {
      // Each index belongs to exactly one chunk, so plain increments are
      // race-free; a double visit would leave a count != 1.
      std::vector<int> hit(
          static_cast<std::size_t>(std::max<std::int64_t>(end - begin, 0)), 0);
      exec::for_each_chunk(begin, end, grain,
                           [&](std::int64_t, std::int64_t b, std::int64_t e) {
                             for (std::int64_t i = b; i < e; ++i)
                               hit[static_cast<std::size_t>(i - begin)]++;
                           });
      for (int h : hit) EXPECT_EQ(h, 1) << threads;
    }
  }
  exec::ThreadPool::set_global_threads(1);
}

TEST(Parallel, ExceptionsPropagateToCaller) {
  for (int threads : {1, 4}) {
    exec::ThreadPool::set_global_threads(threads);
    EXPECT_THROW(
        exec::for_each_chunk(0, 32, 1,
                             [&](std::int64_t c, std::int64_t, std::int64_t) {
                               if (c == 3) throw std::runtime_error("boom");
                             }),
        std::runtime_error);
    // The pool survives a failed region.
    std::atomic<int> n{0};
    exec::parallel_for(0, 8, 1,
                       [&](std::int64_t b, std::int64_t e) { n += int(e - b); });
    EXPECT_EQ(n.load(), 8);
  }
  exec::ThreadPool::set_global_threads(1);
}

TEST(Parallel, NestedRegionsComplete) {
  exec::ThreadPool::set_global_threads(4);
  // Outer region over 6 items, each opening an inner region: the lane that
  // opens the inner region drains it itself, so this cannot deadlock even
  // with every worker busy in the outer region.
  std::vector<std::int64_t> inner(6);
  exec::parallel_for(0, 6, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      std::atomic<std::int64_t> sum{0};
      exec::for_each_chunk(0, 100, 9,
                           [&](std::int64_t, std::int64_t lo, std::int64_t hi) {
                             for (std::int64_t k = lo; k < hi; ++k) sum += k;
                           });
      inner[static_cast<std::size_t>(i)] = sum.load();
    }
  });
  for (std::int64_t v : inner) EXPECT_EQ(v, 4950);
  exec::ThreadPool::set_global_threads(1);
}

TEST(Runtime, RangeForLaunchMatchesSerialLaunchBitwise) {
  // The same work recorded through launch() (serial) and a sweep on a
  // simgpu space (parallel chunks) must produce identical KernelRecords
  // and modeled times.
  const auto work = [](std::int64_t b, std::int64_t e, OpCounts& c) {
    c.flops += 10 * std::uint64_t(e - b);
    c.bytes_read += 8 * std::uint64_t(e - b);
  };
  simgpu::GpuRuntime serial;
  serial.launch("k", 32, 0, [&](OpCounts& c) { work(0, 1000, c); });
  for (int threads : {1, 2, 7}) {
    exec::ThreadPool::set_global_threads(threads);
    simgpu::GpuRuntime par;
    exec_space::ExecSpace::simgpu(par).range_for({"k", nullptr, 32, 0}, 1000,
                                                 64, nullptr, work);
    const auto& a = serial.record("k");
    const auto& b = par.record("k");
    EXPECT_EQ(a.counts.flops, b.counts.flops) << threads;
    EXPECT_EQ(a.counts.bytes_read, b.counts.bytes_read) << threads;
    ASSERT_EQ(a.per_launch.size(), b.per_launch.size()) << threads;
    EXPECT_EQ(a.per_launch[0].flops, b.per_launch[0].flops) << threads;
    EXPECT_EQ(bits(serial.modeled_kernel_seconds("k")),
              bits(par.modeled_kernel_seconds("k")))
        << threads;
  }
  exec::ThreadPool::set_global_threads(1);
}

/// The strict DGR_THREADS parse behind configured_threads(): the old
/// std::atoi path silently turned garbage into 0 lanes.
TEST(Pool, ParseThreadCountValidates) {
  const char* ambient = std::getenv("DGR_THREADS");
  const std::string saved = ambient ? ambient : "";
  for (const char* good : {"1", "4", "4096"}) {
    ::setenv("DGR_THREADS", good, 1);
    EXPECT_EQ(exec::ThreadPool::configured_threads(), std::stoi(good));
  }
  static_assert(exec::kMaxThreads == 4096);
  for (const char* bad :
       {"garbage", "-3", "0", "4x", "", " 4 ", "1e3", "4097", "99999999999"}) {
    ::setenv("DGR_THREADS", bad, 1);
    EXPECT_THROW(exec::ThreadPool::configured_threads(), Error) << bad;
  }
  // The error message names the offending knob.
  ::setenv("DGR_THREADS", "nope", 1);
  try {
    exec::ThreadPool::configured_threads();
    ADD_FAILURE() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("DGR_THREADS"), std::string::npos);
  }
  if (ambient) ::setenv("DGR_THREADS", saved.c_str(), 1);
  else ::unsetenv("DGR_THREADS");
}

}  // namespace
}  // namespace dgr
