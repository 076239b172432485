#pragma once
/// \file obs.hpp
/// \brief Process-wide observability hooks. A TraceSession and a
/// MetricsRegistry can be installed (not owned) for the duration of a run;
/// instrumented code emits through the helpers below, which are cheap
/// no-ops (one pointer load and branch) when nothing is installed — the
/// solver and runtime hot paths pay nothing by default.
///
/// ScopedSpan is the one region timer. A closed span goes to the installed
/// trace session (on the calling thread's track), to the always-on flight
/// recorder (obs/flightrec.hpp: the last moments before a crash are
/// reconstructable even when no session was ever installed) and, when the
/// installed registry has enable_timing(true), to a summary of its name in
/// microseconds. With exec_space::ExecSpace spanning every labelled sweep,
/// those summaries are the per-layer ledger (unzip, rhs, zip, update, ...).

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

/// Trace lane of the calling thread: exec::ThreadPool workers bind their
/// pool lane (>= 1) when they start; every other thread is lane 0. It is
/// also exec::this_lane(), the index of per-lane scratch.
void bind_thread_lane(int lane);
int thread_lane();

/// The calling thread's track in `session`: worker_track(lane) on a pool
/// worker, the host track on lane 0. Spans that workers open concurrently
/// therefore never interleave their B/E events on one track.
int thread_track(TraceSession& session);

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

/// RAII host-domain span (see the file comment). `name` and `cat` must be
/// static strings (the flight recorder stores the pointers) — which every
/// call site already satisfies.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* cat = "host")
      : session_(trace()), name_(name), cat_(cat), t0_(monotonic_us()) {
    if (session_) {
      track_ = thread_track(*session_);
      session_->span_begin(track_, name, cat, t0_);
    }
  }
  ~ScopedSpan() {
    const double t1 = monotonic_us();
    if (session_) session_->span_end(track_, t1);
    flightrec::record_span(name_, cat_, t0_, t1 - t0_);
    observe_timing(name_, t1 - t0_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceSession* session_;
  const char* name_;
  const char* cat_;
  double t0_;
  int track_ = -1;
};

}  // namespace dgr::obs
