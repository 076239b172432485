#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error(flag + " requires a value");
    const std::string val = argv[++i];
    std::size_t used = 0;
    try {
      if (flag == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (flag == "--seed") {
        if (val.empty() || val[0] == '-') throw std::invalid_argument(val);
        a.seed = std::stoull(val, &used);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(val, &used);
        if (!(a.seconds > 0 && a.seconds <= 3600))
          throw std::invalid_argument(val);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (val != "0" && val != "1") throw std::invalid_argument(val);
        a.trace = val == "1";
        used = val.size();
      } else {
        throw std::runtime_error("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      throw std::runtime_error("bad value for " + flag + ": " + val);
    }
    if (flag != "--workload" && used != val.size())
      throw std::runtime_error("bad value for " + flag + ": " + val);
  }
  if (!have_workload || !have_seed || !have_seconds)
    throw std::runtime_error(
        "usage: perfbench --workload W --seed N --seconds S [--trace 0|1]");
  return a;
}

double Samples::quantile(double q) const {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  // Linear interpolation between closest ranks.
  const double pos = q * double(s.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (pos - double(lo)) * (s[hi] - s[lo]);
}

double Samples::mean() const {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / double(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec) + 1e-6 * double(ru.ru_utime.tv_usec) +
         double(ru.ru_stime.tv_sec) + 1e-6 * double(ru.ru_stime.tv_usec);
}

double calib_ms() {
  Samples s;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    volatile double sink = 0;
    double x = 1.0, y = 0.5;
    for (int i = 0; i < 4'000'000; ++i) {
      x = x * 1.0000001 + y;
      y = y * 0.9999999 - 1e-9 * x;
    }
    sink = x + y;
    (void)sink;
    s.add((now_s() - t0) * 1e3);
  }
  return s.median();
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double Tracer::self_s(const std::string& layer) const {
  const auto it = acc_.find(layer);
  return it == acc_.end() ? 0.0 : it->second.self;
}

double Tracer::incl_s(const std::string& layer) const {
  const auto it = acc_.find(layer);
  return it == acc_.end() ? 0.0 : it->second.incl;
}

long Tracer::calls(const std::string& layer) const {
  const auto it = acc_.find(layer);
  return it == acc_.end() ? 0 : it->second.calls;
}

double Tracer::total_self_s() const {
  double t = 0;
  for (const auto& [name, a] : acc_) t += a.self;
  return t;
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string object(const std::map<std::string, double>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ",";
    out += quote(k) + ":" + num(v);
    first = false;
  }
  return out + "}";
}

}  // namespace

std::string Result::json() const {
  std::string out = "{\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i)
    out += (i ? "," : "") + quote(failures[i]);
  out += "],\"metrics\":" + object(metrics) + ",\"info\":" + object(info) +
         ",\"checks\":" + object(checks) + "}";
  return out;
}

}  // namespace perfbench
