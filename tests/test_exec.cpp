/// \file test_exec.cpp
/// \brief The work-stealing host pool (src/exec): chunk coverage,
/// exception propagation, nesting, the per-launch scratch arena, and the
/// launch_range path of the simulated GPU runtime.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"

#include "exec/parallel.hpp"
#include "exec/pool.hpp"
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

TEST(ScratchArena, RetainsCapacityAcrossResets) {
  simgpu::ScratchArena arena;
  // First cycle allocates; identical later cycles must not touch the heap.
  for (int cycle = 0; cycle < 2; ++cycle) {
    arena.get<OpCounts>(16);
    arena.get<double>(333);
    arena.reset();
  }
  const std::uint64_t warm = arena.stats().heap_allocs;
  for (int cycle = 0; cycle < 10; ++cycle) {
    OpCounts* c = arena.get<OpCounts>(16);
    EXPECT_EQ(c[7].flops, 0u);  // slots come back default-constructed
    double* d = arena.get<double>(333);
    d[0] = 1.0;
    arena.reset();
  }
  EXPECT_EQ(arena.stats().heap_allocs, warm);
  EXPECT_EQ(arena.stats().requests, 4u + 20u);
}

TEST(ScratchArena, OversizeRequestThrowsCapacityExceeded) {
  simgpu::ScratchArena arena;
  // One slot over the representable request limit, and the wrap-around
  // case where n * sizeof(T) would overflow size_t to a tiny byte count —
  // both must fail loudly instead of handing back an undersized block.
  const std::size_t over =
      simgpu::ScratchArena::kMaxRequestBytes / sizeof(OpCounts) + 1;
  EXPECT_THROW(arena.get<OpCounts>(over), Error);
  EXPECT_THROW(arena.get<OpCounts>(std::numeric_limits<std::size_t>::max()),
               Error);
  EXPECT_THROW(arena.get<double>(simgpu::ScratchArena::kMaxRequestBytes),
               Error);
  // The exact limit is representable for byte-sized elements (the check is
  // on the request form, not a smaller ad-hoc bound) ... but don't actually
  // allocate it: the rejected requests above must leave the arena usable.
  OpCounts* c = arena.get<OpCounts>(4);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c[3].flops, 0u);
  arena.reset();
  EXPECT_EQ(arena.get<OpCounts>(4)[0].bytes_read, 0u);
}

TEST(ScratchArena, BoundarySpillKeepsRequestsDisjoint) {
  simgpu::ScratchArena arena;
  // 64 x 256-byte regions overflow the first 4096-byte block several times
  // over; every region must stay disjoint and intact across the block
  // spills (the take() pointer math regression: an alignment bump at a
  // block boundary must move to a fresh block, never wrap within one).
  std::vector<unsigned char*> ptrs;
  for (int i = 0; i < 64; ++i) {
    unsigned char* p = arena.get<unsigned char>(256);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << i;
    std::memset(p, i + 1, 256);
    ptrs.push_back(p);
  }
  for (int i = 0; i < 64; ++i)
    for (int b = 0; b < 256; b += 61)
      ASSERT_EQ(int(ptrs[std::size_t(i)][b]), i + 1)
          << "region " << i << " byte " << b;
}

TEST(ScratchArena, SlotsAreCacheLineAligned) {
  simgpu::ScratchArena arena;
  auto* a = arena.get<OpCounts>(3);
  auto* b = arena.get<OpCounts>(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  EXPECT_NE(a, b);
}

TEST(Runtime, LaunchRangeMatchesSerialLaunchBitwise) {
  // The same work recorded through launch() (serial) and launch_range()
  // (parallel) must produce identical KernelRecords and modeled times.
  const auto work = [](std::int64_t b, std::int64_t e, OpCounts& c) {
    c.flops += 10 * std::uint64_t(e - b);
    c.bytes_read += 8 * std::uint64_t(e - b);
  };
  simgpu::GpuRuntime serial;
  serial.launch("k", 32, 0, [&](OpCounts& c) { work(0, 1000, c); });
  for (int threads : {1, 2, 7}) {
    exec::ThreadPool::set_global_threads(threads);
    simgpu::GpuRuntime par;
    par.launch_range("k", 32, 0, 1000, 64, work);
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

TEST(Runtime, SteadyStateLaunchesDoNotAllocate) {
  exec::ThreadPool::set_global_threads(2);
  simgpu::GpuRuntime rt;
  const auto one = [&] {
    rt.launch_range("k", 8, 0, 512, 16,
                    [](std::int64_t b, std::int64_t e, OpCounts& c) {
                      c.flops += std::uint64_t(e - b);
                    });
  };
  one();  // warm-up: the arena acquires its capacity here
  one();  // one more cycle lets a multi-block first pass coalesce
  const std::uint64_t warm_allocs = rt.scratch_stats().heap_allocs;
  const std::uint64_t warm_requests = rt.scratch_stats().requests;
  for (int i = 0; i < 50; ++i) one();
  EXPECT_EQ(rt.scratch_stats().heap_allocs, warm_allocs);
  EXPECT_EQ(rt.scratch_stats().requests, warm_requests + 50);
  EXPECT_EQ(rt.record("k").launches, 52);
  EXPECT_EQ(rt.record("k").counts.flops, 52u * 512u);
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
