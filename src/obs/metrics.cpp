#include "obs/metrics.hpp"

#include "common/file_io.hpp"
#include "common/json.hpp"
#include "common/log.hpp"

namespace dgr::obs {

std::string MetricsRegistry::json() const {
  using jsonu::num;
  using jsonu::quote;
  std::lock_guard<std::mutex> lk(m_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : counters_) {
    if (!first) out += ",";
    out += quote(k) + ":" + num(v);
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [k, v] : gauges_) {
    if (!first) out += ",";
    out += quote(k) + ":" + num(v);
    first = false;
  }
  out += "},\"summaries\":{";
  first = true;
  for (const auto& [k, s] : summaries_) {
    if (!first) out += ",";
    out += quote(k) + ":{\"count\":" + num(s.count) + ",\"sum\":" +
           num(s.sum) + ",\"min\":" + num(s.min) + ",\"max\":" + num(s.max) +
           ",\"mean\":" + num(s.mean()) + "}";
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [k, h] : histograms_) {
    if (!first) out += ",";
    out += quote(k) + ":" + h.json();
    first = false;
  }
  out += "}}";
  return out;
}

bool MetricsRegistry::write_file(const std::string& path) const {
  if (!write_file_atomic(path, {json(), "\n"})) {
    log::error("metrics: cannot write " + path);
    return false;
  }
  log::info("metrics: wrote " + path);
  return true;
}

namespace {

std::string prom_name(const std::string& name) {
  std::string out = "dgr_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::prometheus() const {
  using jsonu::num;
  std::lock_guard<std::mutex> lk(m_);
  std::string out;
  for (const auto& [k, v] : counters_) {
    const std::string n = prom_name(k);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + num(v) + "\n";
  }
  for (const auto& [k, v] : gauges_) {
    const std::string n = prom_name(k);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + num(v) + "\n";
  }
  for (const auto& [k, s] : summaries_) {
    const std::string n = prom_name(k);
    out += "# TYPE " + n + " summary\n";
    out += n + "_count " + num(s.count) + "\n";
    out += n + "_sum " + num(s.sum) + "\n";
    out += n + "_min " + num(s.count ? s.min : 0.0) + "\n";
    out += n + "_max " + num(s.count ? s.max : 0.0) + "\n";
  }
  for (const auto& [k, h] : histograms_) {
    const std::string n = prom_name(k);
    out += "# TYPE " + n + " summary\n";
    out += n + "{quantile=\"0.5\"} " + num(h.p50()) + "\n";
    out += n + "{quantile=\"0.9\"} " + num(h.p90()) + "\n";
    out += n + "{quantile=\"0.99\"} " + num(h.p99()) + "\n";
    out += n + "{quantile=\"0.999\"} " + num(h.p999()) + "\n";
    out += n + "_count " + num(h.count()) + "\n";
    out += n + "_min " + num(h.min()) + "\n";
    out += n + "_max " + num(h.max()) + "\n";
  }
  return out;
}

}  // namespace dgr::obs
