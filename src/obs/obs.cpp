#include "obs/obs.hpp"

namespace dgr::obs {

namespace {
TraceSession* g_trace = nullptr;
MetricsRegistry* g_metrics = nullptr;
}  // namespace

TraceSession* trace() { return g_trace; }
MetricsRegistry* metrics() { return g_metrics; }
void install_trace(TraceSession* session) { g_trace = session; }
void install_metrics(MetricsRegistry* registry) { g_metrics = registry; }

}  // namespace dgr::obs
