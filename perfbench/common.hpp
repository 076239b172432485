#pragma once
/// \file common.hpp
/// \brief Shared pieces of the end-to-end benchmark: argument parsing,
/// timing statistics, process probes (peak RSS, CPU time, a calibration
/// loop), content digests, the span ledger used by traced runs, and the
/// result record every workload fills in.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

/// Strict parse of `--workload W --seed N --seconds S --trace 0|1`; throws
/// std::runtime_error on anything else.
Args parse_args(int argc, char** argv);

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Order statistics of a sample set. The tail is a fixed percentile, so
/// that runs with a few more or fewer samples report the same statistic;
/// tail_beyond() is the number of samples above it.
struct Samples {
  static constexpr double kTailPct = 90.0;
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  std::size_t size() const { return v.size(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  double tail() const { return quantile(kTailPct / 100.0); }
  double tail_beyond() const { return double(v.size()) * (1 - kTailPct / 100); }
};

double peak_rss_mb();
double process_cpu_s();

/// Wall time of a fixed single-threaded floating-point loop (median of
/// three): a host-drift probe, report-only.
double calib_ms();

/// FNV-1a 64 over raw bytes, chainable through `h`.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL);
std::string hex16(std::uint64_t v);

/// Span ledger for traced runs. span() times a call into one layer; a
/// layer's self time excludes the spans nested inside it, so the self times
/// of all layers add up to the traced wall time minus untraced glue.
class Tracer {
 public:
  template <class F>
  void span(const char* layer, F&& f) {
    child_.push_back(0.0);
    const double t0 = now_s();
    f();
    const double dt = now_s() - t0;
    const double nested = child_.back();
    child_.pop_back();
    if (!child_.empty()) child_.back() += dt;
    Acc& a = acc_[layer];
    a.self += dt - nested;
    a.incl += dt;
    ++a.calls;
  }
  /// Charge an interval measured by the caller (no nested spans) to
  /// `layer`, inside whatever span is open.
  void record(const char* layer, double dt) {
    if (!child_.empty()) child_.back() += dt;
    Acc& a = acc_[layer];
    a.self += dt;
    a.incl += dt;
    ++a.calls;
  }
  double self_s(const std::string& layer) const;
  double incl_s(const std::string& layer) const;
  long calls(const std::string& layer) const;
  double total_self_s() const;

 private:
  struct Acc {
    double self = 0, incl = 0;
    long calls = 0;
  };
  std::map<std::string, Acc> acc_;
  std::vector<double> child_;
};

/// Run `f` inside a span of `t`, or untraced when `t` is null.
template <class F>
void traced(Tracer* t, const char* layer, F&& f) {
  if (t)
    t->span(layer, f);
  else
    f();
}

/// What one run reports. `metrics` holds every end-to-end metric (untraced
/// runs) or every per-layer metric (traced runs); `info` carries
/// report-only values that are printed but not compared; `checks` are the
/// correctness values the driver script compares with references.
struct Result {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> metrics;
  std::map<std::string, double> info;
  std::map<std::string, double> checks;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  std::string json() const;
};

/// Lanes every workload runs its host pool with: two keeps runnable
/// threads well below the core count, which is what makes repeats agree.
inline constexpr int kLanes = 2;

}  // namespace perfbench
