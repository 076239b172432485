#pragma once
/// \file metrics.hpp
/// \brief MetricsRegistry: named counters (monotonic uint64), gauges
/// (last-value double), summaries (count/sum/min/max of observations), and
/// log-scale histograms (obs::Histogram, with p50/p90/p99/p999 quantile
/// queries), with a deterministic JSON snapshot writer and a
/// Prometheus-style text exposition. The solver, the simulated GPU
/// runtime, the distributed engine, and the waveform service feed a
/// registry installed via obs::install_metrics(); benches snapshot it into
/// BENCH_<name>.json and the live daemon serves prometheus() on METRICS.
///
/// Thread safety: all mutators and readers are guarded by one internal
/// mutex, so instrumented code may feed the registry from pool workers
/// (src/exec) concurrently. Every accessor returns BY VALUE — snapshot()
/// copies whole maps under the lock — so no caller ever holds a reference
/// into the registry across concurrent mutation (the by-reference map
/// accessors of the first obs version are gone).
///
/// Wall-clock timing histograms are opt-in (enable_timing): histograms of
/// measured durations are inherently nondeterministic, and the
/// cross-thread-count determinism tests compare whole json() snapshots.
/// Long-lived registries (the serve daemon, the bench reporter) enable
/// them; histograms of deterministic values (virtual-clock comm times) are
/// recorded unconditionally.

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "obs/histogram.hpp"

namespace dgr::obs {

class MetricsRegistry {
 public:
  struct Summary {
    std::uint64_t count = 0;
    double sum = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    double mean() const { return count ? sum / double(count) : 0.0; }
  };

  /// One coherent by-value copy of everything in the registry.
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, Summary> summaries;
    std::map<std::string, Histogram> histograms;
  };

  /// Counter: monotonically increasing by `n`.
  void add(const std::string& name, std::uint64_t n = 1) {
    std::lock_guard<std::mutex> lk(m_);
    counters_[name] += n;
  }
  /// Gauge: last value wins.
  void set(const std::string& name, double v) {
    std::lock_guard<std::mutex> lk(m_);
    gauges_[name] = v;
  }
  /// Summary: record one observation.
  void observe(const std::string& name, double v) {
    std::lock_guard<std::mutex> lk(m_);
    Summary& s = summaries_[name];
    s.count += 1;
    s.sum += v;
    if (v < s.min) s.min = v;
    if (v > s.max) s.max = v;
  }
  /// Histogram: record one observation into the log-scale buckets.
  void observe_hist(const std::string& name, double v) {
    std::lock_guard<std::mutex> lk(m_);
    histograms_[name].observe(v);
  }

  /// Opt in to wall-clock timing histograms (see file comment). The flag
  /// gates obs::observe_hist_timing(), not observe_hist().
  void enable_timing(bool on) {
    std::lock_guard<std::mutex> lk(m_);
    timing_ = on;
  }
  bool timing_enabled() const {
    std::lock_guard<std::mutex> lk(m_);
    return timing_;
  }

  std::uint64_t counter(const std::string& name) const {
    std::lock_guard<std::mutex> lk(m_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  double gauge(const std::string& name) const {
    std::lock_guard<std::mutex> lk(m_);
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
  }
  /// By-value summary lookup; empty optional when never observed.
  std::optional<Summary> summary(const std::string& name) const {
    std::lock_guard<std::mutex> lk(m_);
    auto it = summaries_.find(name);
    if (it == summaries_.end()) return std::nullopt;
    return it->second;
  }
  /// By-value histogram lookup; empty optional when never observed.
  std::optional<Histogram> histogram(const std::string& name) const {
    std::lock_guard<std::mutex> lk(m_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) return std::nullopt;
    return it->second;
  }

  /// One coherent by-value copy of all four maps, taken under the lock:
  /// safe to iterate while other threads keep mutating the registry.
  Snapshot snapshot() const {
    std::lock_guard<std::mutex> lk(m_);
    return Snapshot{counters_, gauges_, summaries_, histograms_};
  }

  bool empty() const {
    std::lock_guard<std::mutex> lk(m_);
    return counters_.empty() && gauges_.empty() && summaries_.empty() &&
           histograms_.empty();
  }
  void reset() {
    std::lock_guard<std::mutex> lk(m_);
    counters_.clear();
    gauges_.clear();
    summaries_.clear();
    histograms_.clear();
  }

  /// Snapshot as a JSON object (sorted by name within each kind):
  /// {"counters":{...},"gauges":{...},"summaries":{"x":{"count":...}},
  ///  "histograms":{"y":{"count":...,"p50":...}}}
  std::string json() const;
  /// Write json() atomically to `path`; false if the write failed.
  bool write_file(const std::string& path) const;

  /// Prometheus-style text exposition of the whole registry: counters and
  /// gauges as single samples, summaries as _count/_sum/_min/_max, and
  /// histograms as quantile series:
  ///   dgr_serve_latency_us_mem{quantile="0.99"} 57.5
  /// Metric names are prefixed "dgr_" and sanitized ([^a-zA-Z0-9_] -> '_').
  std::string prometheus() const;

 private:
  mutable std::mutex m_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Summary> summaries_;
  std::map<std::string, Histogram> histograms_;
  bool timing_ = false;
};

}  // namespace dgr::obs
