#pragma once
/// \file obs.hpp
/// \brief Process-wide observability hooks. A TraceSession and a
/// MetricsRegistry can be installed (not owned) for the duration of a run;
/// instrumented code emits through the helpers below, which are cheap
/// no-ops (one pointer load and branch) when nothing is installed — the
/// solver and runtime hot paths pay nothing by default.
///
/// ScopedSpan is the one region timer. A closed span goes to two sinks:
/// the always-on flight recorder (obs/flightrec.hpp), which is the host
/// timeline, and, when the installed registry has enable_timing(true), a
/// summary of its name in microseconds. With exec_space::ExecSpace spanning
/// every labelled sweep, those summaries are the per-layer ledger (unzip,
/// rhs, zip, update, ...). The TraceSession holds only the virtual-time
/// timeline of the simulated ranks (obs/trace.hpp); no span reaches it.

#include <cstdint>

#include "common/clock.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dgr::obs {

/// Currently installed session/registry (nullptr when none).
TraceSession* trace();
MetricsRegistry* metrics();

/// Install (or uninstall with nullptr). The pointer is borrowed: the caller
/// keeps ownership and must uninstall before destroying the object.
void install_trace(TraceSession* session);
void install_metrics(MetricsRegistry* registry);

// Metric helpers: forward to the installed registry, no-op otherwise.
inline void count(const char* name, std::uint64_t n = 1) {
  if (MetricsRegistry* m = metrics()) m->add(name, n);
}
inline void gauge_set(const char* name, double v) {
  if (MetricsRegistry* m = metrics()) m->set(name, v);
}
inline void observe(const char* name, double v) {
  if (MetricsRegistry* m = metrics()) m->observe(name, v);
}
/// Histogram of deterministic values (virtual-clock durations, sizes):
/// recorded whenever a registry is installed.
inline void observe_hist(const char* name, double v) {
  if (MetricsRegistry* m = metrics()) m->observe_hist(name, v);
}
/// Histogram of WALL-CLOCK durations: recorded only when the installed
/// registry opted in via enable_timing(). The split keeps whole-registry
/// json() snapshots bitwise-comparable across thread counts in the
/// determinism tests while the serve daemon and benches still get real
/// latency quantiles.
inline void observe_hist_timing(const char* name, double v) {
  if (MetricsRegistry* m = metrics()) {
    if (m->timing_enabled()) m->observe_hist(name, v);
  }
}
/// Summary of a WALL-CLOCK duration, behind the same enable_timing() gate.
inline void observe_timing(const char* name, double v) {
  if (MetricsRegistry* m = metrics()) {
    if (m->timing_enabled()) m->observe(name, v);
  }
}

/// RAII host-time span (see the file comment). `name` and `cat` must be
/// static strings (the flight recorder stores the pointers) — which every
/// call site already satisfies.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* cat = "host")
      : name_(name), cat_(cat), t0_(monotonic_us()) {}
  ~ScopedSpan() {
    const double t1 = monotonic_us();
    flightrec::record_span(name_, cat_, t0_, t1 - t0_);
    observe_timing(name_, t1 - t0_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  double t0_;
};

}  // namespace dgr::obs
