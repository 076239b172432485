#pragma once
/// \file driver.hpp
/// \brief The ensemble driver: accepts a stream of scenario configs from
/// any number of client threads, deduplicates them against the waveform
/// cache and against evolutions already in flight (duplicate requests
/// coalesce onto the running one — a unique config is evolved exactly
/// once), and runs the misses from one FIFO job queue. Up to
/// `concurrency` runners drain that queue, each on a driver thread of the
/// src/exec pool (exec::ThreadPool::post): a driver thread is lane 0, so
/// an evolution's parallel regions spread over every idle lane, and a lone
/// miss gets the whole host.
///
/// Results are bitwise independent of the runner thread, the concurrency
/// and the thread count — the src/exec determinism contract — so a cache
/// hit is bitwise identical to a recomputation.
///
/// Threading rules: submit()/evolve() are safe from any thread. The driver
/// owns no thread: its runners are pool tasks, so the global pool must not
/// be resized while the driver has work (drain() first).

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "ensemble/cache.hpp"
#include "ensemble/scenario.hpp"

namespace dgr::ensemble {

struct EnsembleConfig {
  /// Evolutions running at once, each on every lane (>= 1; the driver's
  /// constructor rejects less).
  int concurrency = 1;
  std::size_t cache_bytes = std::size_t{64} << 20;
  std::string spill_dir;  ///< "" disables disk spill
};

/// How a request was satisfied (per-request, known at submit time).
enum class Source {
  kComputed,   ///< scheduled a fresh evolution
  kCoalesced,  ///< joined an evolution already in flight
  kMemory,     ///< in-memory cache hit
  kDisk,       ///< disk-spill cache hit
};

const char* source_name(Source s);

class EnsembleDriver {
 public:
  using Result = std::shared_ptr<const Waveform>;

  /// A submitted request: the shared future resolves to the waveform (or
  /// rethrows the evolution's failure); `source` says how it was routed.
  struct Ticket {
    std::shared_future<Result> future;
    Source source = Source::kComputed;
    std::uint64_t hash = 0;
  };

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t evolutions = 0;  ///< evolutions actually run
    std::uint64_t coalesced = 0;
    std::uint64_t failures = 0;
  };

  /// Throws dgr::Error when cfg.concurrency < 1.
  explicit EnsembleDriver(EnsembleConfig cfg);
  ~EnsembleDriver() { drain(); }
  EnsembleDriver(const EnsembleDriver&) = delete;
  EnsembleDriver& operator=(const EnsembleDriver&) = delete;

  /// Route a request: cache hit returns a ready future; a duplicate of an
  /// in-flight config joins it; otherwise a new evolution is scheduled.
  Ticket submit(const ScenarioConfig& cfg);

  /// Blocking convenience: submit and wait. `source_out` (optional)
  /// receives the routing decision.
  Result evolve(const ScenarioConfig& cfg, Source* source_out = nullptr);

  /// Wait until no request is queued or in flight.
  void drain();

  WaveformCache& cache() { return cache_; }
  const EnsembleConfig& config() const { return cfg_; }
  Stats stats() const;
  /// Jobs queued but not yet picked up by a runner — the instantaneous
  /// backlog behind the serve METRICS queue-depth gauge.
  int queue_depth() const;

 private:
  struct Job {
    ScenarioKey key;
    ScenarioConfig cfg;
    std::promise<Result> promise;
    double t_submit_us = 0;
  };
  using JobPtr = std::shared_ptr<Job>;

  void execute(const JobPtr& job);
  void run_jobs();  ///< posted runner body: chain through queued jobs

  EnsembleConfig cfg_;
  WaveformCache cache_;

  mutable std::mutex m_;
  std::condition_variable cv_;  ///< wakes drain()
  std::unordered_map<std::string, std::shared_future<Result>> inflight_;
  std::deque<JobPtr> queue_;
  int active_ = 0;  ///< posted runners currently alive
  Stats stats_;
};

}  // namespace dgr::ensemble
