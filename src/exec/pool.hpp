#pragma once
/// \file pool.hpp
/// \brief Work-stealing host thread pool — the parallel execution engine
/// under the simulated GPU runtime, the CPU solver pipeline, and the
/// distributed engine.
///
/// Lane model. A pool of `threads` lanes runs `threads - 1` OS worker
/// threads; lane 0 is the *caller* lane: the thread that opens a parallel
/// region participates in it (it drains chunks like a worker), so
/// `--threads 4` means four concurrent execution lanes, not 4 workers plus
/// a blocked driver. this_lane() identifies the executing lane and indexes
/// per-lane scratch state (derivative workspaces). Every thread that is
/// not a worker is lane 0, and several may open regions at once (post()'s
/// driver threads, a bench's main thread): lane-indexed scratch belongs to
/// one pipeline (exec_space/bssn_sweeps.cpp) or one call (gw/psi4.cpp), so
/// only two threads driving one pipeline would share it, and none do.
///
/// Driver threads. post() runs a task on a pool-owned lane-0 thread, so
/// its regions get every idle worker. A driver that finishes waits for the
/// next post, and a new one starts only when none is idle: k outstanding
/// tasks get k threads, which persist until the pool goes (threads started
/// per job would strand freed heap in their own malloc arenas).
///
/// Scheduling. Each worker owns a deque: it pops its own work LIFO (cache
/// warmth for nested regions) and steals FIFO from a victim scan when its
/// deque is empty. Tasks submitted from a worker go to that worker's own
/// deque (nested parallel regions stay local until stolen); external
/// submissions are distributed round-robin. Scheduling order is
/// intentionally *not* deterministic — determinism is provided one level
/// up, by the fixed chunk partition and ordered reductions of
/// parallel.hpp, which make results independent of which lane ran what.
///
/// The global pool is sized from DGR_THREADS (or --threads via
/// set_global_threads(); default std::thread::hardware_concurrency) and
/// created lazily on first use. Resizing must happen between parallel
/// regions, never during one, and never while a posted task runs.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dgr::exec {

/// Lane id of the calling thread: 0 off the pool's workers (external and
/// post() driver threads), 1..N-1 for pool workers. Always
/// < ThreadPool::global().threads() when called from inside a region.
int this_lane();

class ThreadPool {
 public:
  /// A pool with `threads` total lanes (>= 1): `threads - 1` workers plus
  /// the participating caller lane. threads == 1 runs everything inline.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (workers + caller).
  int threads() const { return lanes_; }

  /// Enqueue a task. From a worker thread of this pool the task goes to
  /// that worker's own deque; otherwise it is distributed round-robin.
  /// With no workers (threads() == 1) the task runs inline.
  void submit(std::function<void()> task);

  /// Run `task` on a driver thread of this pool, never inline (also at one
  /// lane); its regions run as lane 0 on the global pool. The driver
  /// destroys `task` only once it is idle again, so a caller that waits for
  /// the captures' release and then posts reuses that thread. An exception
  /// escaping `task` terminates, as from a worker task. The pool must not
  /// be destroyed or resized while a posted task runs.
  void post(std::function<void()> task);

  // ------------------------------------------------- process-wide pool --
  /// The lazily created global pool, sized by configured_threads().
  static ThreadPool& global();
  /// Replace the global pool with one of `threads` lanes. Must not be
  /// called while a parallel region is open or a posted task runs.
  static void set_global_threads(int threads);
  /// DGR_THREADS if set (strictly parsed into [1, kMaxThreads] — garbage,
  /// non-positive or oversized values throw a dgr::Error naming the knob),
  /// else hardware_concurrency (>= 1).
  static int configured_threads();

 private:
  struct Worker {
    std::mutex m;
    std::deque<std::function<void()>> q;
  };

  void run(int widx);
  bool try_pop(int widx, std::function<void()>& out);
  void drive();  ///< driver-thread body: run posted tasks until stop

  int lanes_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> os_threads_;
  std::mutex cv_m_;
  std::condition_variable cv_;
  std::atomic<int> pending_{0};  ///< queued, not yet started
  std::atomic<std::uint64_t> rr_{0};
  bool stop_ = false;  ///< guarded by cv_m_

  std::mutex post_m_;  ///< guards the driver-thread state below
  std::condition_variable post_cv_;
  std::deque<std::function<void()>> posted_;  ///< posted, not yet started
  std::size_t idle_drivers_ = 0;
  bool stop_drivers_ = false;
  std::vector<std::thread> drivers_;
};

/// Lanes of the global pool — the size for per-lane workspace arrays.
inline int lanes() { return ThreadPool::global().threads(); }

/// Upper bound of every thread-count knob (DGR_THREADS, --threads); the
/// lower bound is 1.
inline constexpr int kMaxThreads = 4096;

}  // namespace dgr::exec
