#include "ensemble/driver.hpp"

#include "common/clock.hpp"
#include "common/error.hpp"
#include "exec/pool.hpp"
#include "obs/obs.hpp"

namespace dgr::ensemble {

const char* source_name(Source s) {
  switch (s) {
    case Source::kComputed: return "miss";
    case Source::kCoalesced: return "join";
    case Source::kMemory: return "mem";
    case Source::kDisk: return "disk";
  }
  return "?";
}

EnsembleDriver::EnsembleDriver(EnsembleConfig cfg)
    : cfg_(cfg), cache_(cfg.cache_bytes, cfg.spill_dir) {
  DGR_CHECK_MSG(cfg_.concurrency >= 1,
                "EnsembleConfig::concurrency must be >= 1, got "
                    << cfg_.concurrency);
}

EnsembleDriver::Ticket EnsembleDriver::submit(const ScenarioConfig& cfg) {
  const ScenarioKey key = ScenarioKey::of(cfg);
  Ticket t;
  t.hash = key.hash;

  // Cache lookup happens outside m_ (the cache has its own lock, and the
  // disk fault-in path can be slow). A lookup racing a concurrent
  // completion of the same config either hits (fine) or misses — and is
  // then caught below, under m_, by the inflight_ check or the memory-only
  // cache re-read.
  const double t0 = monotonic_us();
  bool from_disk = false;
  if (auto wf = cache_.get(key, &from_disk)) {
    obs::observe_timing("ensemble.lookup_us", monotonic_us() - t0);
    t.source = from_disk ? Source::kDisk : Source::kMemory;
    std::promise<Result> p;
    p.set_value(std::move(wf));
    t.future = p.get_future().share();
    std::lock_guard<std::mutex> lk(m_);
    ++stats_.submitted;
    return t;
  }

  std::unique_lock<std::mutex> lk(m_);
  ++stats_.submitted;
  if (auto it = inflight_.find(key.bytes); it != inflight_.end()) {
    ++stats_.coalesced;
    obs::count("ensemble.coalesced");
    t.source = Source::kCoalesced;
    t.future = it->second;
    return t;
  }

  // The unlocked lookup above can race a completing job: execute() puts
  // the result into the cache *before* erasing the inflight_ entry, so a
  // config that is neither in flight nor in the memory cache here really
  // must be computed. This memory-only re-read (no disk I/O under m_)
  // closes the miss -> complete -> schedule-duplicate window.
  if (auto wf = cache_.get_memory(key)) {
    t.source = Source::kMemory;
    std::promise<Result> p;
    p.set_value(std::move(wf));
    t.future = p.get_future().share();
    return t;
  }

  auto job = std::make_shared<Job>();
  job->key = key;
  job->cfg = cfg;
  job->t_submit_us = monotonic_us();
  t.source = Source::kComputed;
  t.future = job->promise.get_future().share();
  inflight_.emplace(key.bytes, t.future);

  queue_.push_back(std::move(job));
  // Seed up to `concurrency` chained runners; each drains queued jobs until
  // the queue is empty, so no driver thread ever blocks waiting for work.
  const bool seed = active_ < cfg_.concurrency;
  if (seed) ++active_;
  lk.unlock();
  if (seed) exec::ThreadPool::global().post([this] { run_jobs(); });
  return t;
}

EnsembleDriver::Result EnsembleDriver::evolve(const ScenarioConfig& cfg,
                                              Source* source_out) {
  Ticket t = submit(cfg);
  if (source_out) *source_out = t.source;
  return t.future.get();
}

void EnsembleDriver::execute(const JobPtr& job) {
  obs::observe_hist_timing("ensemble.queue_us",
                           monotonic_us() - job->t_submit_us);
  Result result;
  try {
    obs::ScopedSpan span("ensemble.evolve", "ensemble");
    result = std::make_shared<const Waveform>(run_scenario(job->cfg));
  } catch (...) {
    {
      std::lock_guard<std::mutex> lk(m_);
      ++stats_.failures;
      inflight_.erase(job->key.bytes);
    }
    cv_.notify_all();
    job->promise.set_exception(std::current_exception());
    return;
  }
  obs::count("ensemble.evolutions");
  cache_.put(job->key, result);
  {
    std::lock_guard<std::mutex> lk(m_);
    ++stats_.evolutions;
    inflight_.erase(job->key.bytes);
  }
  cv_.notify_all();
  job->promise.set_value(std::move(result));
}

void EnsembleDriver::run_jobs() {
  for (;;) {
    JobPtr job;
    {
      std::lock_guard<std::mutex> lk(m_);
      if (queue_.empty()) {
        --active_;
        // Notify while still holding m_: the instant the lock is released
        // with active_ == 0 a drain() waiter may complete and the driver be
        // destroyed, so no member may be touched afterwards.
        cv_.notify_all();
        return;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    execute(job);
  }
}

void EnsembleDriver::drain() {
  std::unique_lock<std::mutex> lk(m_);
  cv_.wait(lk, [&] {
    return inflight_.empty() && queue_.empty() && active_ == 0;
  });
}

EnsembleDriver::Stats EnsembleDriver::stats() const {
  std::lock_guard<std::mutex> lk(m_);
  return stats_;
}

int EnsembleDriver::queue_depth() const {
  std::lock_guard<std::mutex> lk(m_);
  return int(queue_.size());
}

}  // namespace dgr::ensemble
