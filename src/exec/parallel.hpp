#pragma once
/// \file parallel.hpp
/// \brief Deterministic parallel loops on the work-stealing pool
/// (pool.hpp).
///
/// Determinism contract. A parallel region partitions [begin, end) into
/// ceil(n / grain) fixed chunks that depend only on (begin, end, grain) —
/// never on the thread count or on scheduling. Chunk c always covers
/// [begin + c*grain, min(end, begin + (c+1)*grain)), and any per-chunk
/// result lands in slot c, so a caller that merges the slots in chunk
/// order gets the same bits at any thread count — the property the
/// evolved states, the metrics snapshots, and the modeled kernel times are
/// tested for at DGR_THREADS = 1, 2, 7. Callers must keep `grain` a
/// constant (or a function of the problem only) for results to be
/// comparable across thread counts.
///
/// Execution. The calling thread participates: it drains chunks alongside
/// min(threads - 1, chunks - 1) helper tasks submitted to the pool, then
/// blocks until every claimed chunk has finished. Nested regions are safe:
/// a worker opening a region drains it itself while idle workers steal its
/// helper tasks. With a single-lane pool (or a single chunk) the region
/// runs inline with zero synchronization. The first exception thrown by a
/// chunk is rethrown on the caller after the region completes; remaining
/// chunks are skipped.
///
/// A region records nothing itself: callers time it with an
/// obs::ScopedSpan around the call (exec_space::ExecSpace::range_for does),
/// which keeps src/exec below src/obs.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>

#include "exec/pool.hpp"

namespace dgr::exec {

/// Number of fixed chunks a region over [begin, end) with `grain` has.
inline std::int64_t num_chunks(std::int64_t begin, std::int64_t end,
                               std::int64_t grain) {
  if (end <= begin) return 0;
  if (grain < 1) grain = 1;
  return (end - begin + grain - 1) / grain;
}

namespace detail {

struct RegionState {
  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> done{0};
  std::int64_t chunks = 0;
  std::mutex m;
  std::condition_variable cv;
  std::exception_ptr error;  ///< first failure, guarded by m
  std::atomic<bool> failed{false};
};

}  // namespace detail

/// Run body(chunk, chunk_begin, chunk_end) for every fixed-grain chunk of
/// [begin, end), distributed over the global pool. See the determinism
/// contract above.
template <class Body>
void for_each_chunk(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    Body&& body) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  const std::int64_t nc = num_chunks(begin, end, grain);
  ThreadPool& pool = ThreadPool::global();
  if (pool.threads() <= 1 || nc == 1) {
    for (std::int64_t c = 0; c < nc; ++c)
      body(c, begin + c * grain, std::min(end, begin + (c + 1) * grain));
    return;
  }

  auto st = std::make_shared<detail::RegionState>();
  st->chunks = nc;
  // The caller outlives the region (it blocks on st->cv below), so helpers
  // may use this pointer for any chunk they claim; a stale helper that
  // wakes after the region closed claims no chunk and never touches it.
  auto* bp = &body;

  const auto drain = [st, begin, end, grain, nc, bp] {
    std::int64_t c;
    while ((c = st->next.fetch_add(1, std::memory_order_relaxed)) < nc) {
      if (!st->failed.load(std::memory_order_relaxed)) {
        try {
          (*bp)(c, begin + c * grain, std::min(end, begin + (c + 1) * grain));
        } catch (...) {
          std::lock_guard<std::mutex> lk(st->m);
          if (!st->error) st->error = std::current_exception();
          st->failed.store(true, std::memory_order_relaxed);
        }
      }
      if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 == nc) {
        std::lock_guard<std::mutex> lk(st->m);
        st->cv.notify_all();
      }
    }
  };

  const int helpers =
      static_cast<int>(std::min<std::int64_t>(pool.threads() - 1, nc - 1));
  for (int h = 0; h < helpers; ++h) pool.submit(drain);
  drain();
  {
    std::unique_lock<std::mutex> lk(st->m);
    st->cv.wait(lk, [&] {
      return st->done.load(std::memory_order_acquire) >= nc;
    });
  }
  if (st->error) std::rethrow_exception(st->error);
}

/// Run body(range_begin, range_end) over fixed-grain subranges of
/// [begin, end) in parallel.
template <class Body>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  Body&& body) {
  for_each_chunk(begin, end, grain,
                 [&](std::int64_t, std::int64_t b, std::int64_t e) {
                   body(b, e);
                 });
}

}  // namespace dgr::exec
