#include "obs/obs.hpp"

namespace dgr::obs {

namespace {
TraceSession* g_trace = nullptr;
MetricsRegistry* g_metrics = nullptr;
thread_local int t_lane = 0;
}  // namespace

void bind_thread_lane(int lane) { t_lane = lane; }
int thread_lane() { return t_lane; }

int thread_track(TraceSession& session) {
  return t_lane > 0 ? session.worker_track(t_lane) : session.host_track();
}

TraceSession* trace() { return g_trace; }
MetricsRegistry* metrics() { return g_metrics; }
void install_trace(TraceSession* session) { g_trace = session; }
void install_metrics(MetricsRegistry* registry) { g_metrics = registry; }

}  // namespace dgr::obs
