/// \file test_obs.cpp
/// \brief Observability tests: the Chrome-trace exporter pinned down by a
/// golden file (byte-exact), the MetricsRegistry JSON snapshot, the
/// log-scale Histogram (bucket math, quantiles vs a sorted reference,
/// bitwise-deterministic snapshots across thread counts), the Prometheus
/// exposition, the flight recorder (golden dump with ring wraparound,
/// crash-handler dump), the install/uninstall no-op contract of the RAII
/// span guards, DGR_LOG parsing, and the end-to-end guarantee that a
/// 2-rank evolve_distributed run produces valid, deterministic Chrome-trace
/// JSON (per-rank pids/tids, B/E pairing, monotone span timestamps per
/// track) that is byte-identical at any host thread count, the per-layer
/// ledger that the exec_space sweep spans feed on every backend and in the
/// dist engine, and the flight recorder's per-thread host timeline of a
/// threaded run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bssn/initial_data.hpp"
#include "common/error.hpp"
#include "common/json_read.hpp"
#include "common/log.hpp"
#include "dist/engine.hpp"
#include "exec/parallel.hpp"
#include "exec/pool.hpp"
#include "exec_space/exec_space.hpp"
#include "obs/obs.hpp"
#include "solver/bssn_ctx.hpp"

namespace dgr::obs {
namespace {

// ------------------------------------------------------------ exporter --

TEST(Trace, ChromeJsonGoldenFile) {
  TraceSession s;
  const int exec = s.add_track("rank 0", "exec");
  const int halo = s.add_track("rank 0", "halo");
  s.span_begin(exec, "compute", "exec", 0);
  s.span_end(exec, 10);
  s.flow_begin(exec, "msg", "comm", 2, 7);
  s.span_begin(halo, "halo hidden", "comm", 2, {{"bytes", "1024"}});
  s.span_end(halo, 8);
  s.flow_end(halo, "msg", "comm", 8, 7);
  s.counter(exec, "octants", 0, 64);
  s.instant(exec, "step", "engine", 10);

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"rank 0\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"exec\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"halo\"}},\n"
      "{\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0,\"name\":\"compute\","
      "\"cat\":\"exec\"},\n"
      "{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":10},\n"
      "{\"ph\":\"s\",\"pid\":1,\"tid\":1,\"ts\":2,\"name\":\"msg\","
      "\"cat\":\"comm\",\"id\":7},\n"
      "{\"ph\":\"B\",\"pid\":1,\"tid\":2,\"ts\":2,\"name\":\"halo hidden\","
      "\"cat\":\"comm\",\"args\":{\"bytes\":\"1024\"}},\n"
      "{\"ph\":\"E\",\"pid\":1,\"tid\":2,\"ts\":8},\n"
      "{\"ph\":\"f\",\"pid\":1,\"tid\":2,\"ts\":8,\"name\":\"msg\","
      "\"cat\":\"comm\",\"id\":7,\"bp\":\"e\"},\n"
      "{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":0,\"name\":\"octants\","
      "\"args\":{\"value\":64}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":10,\"name\":\"step\","
      "\"cat\":\"engine\",\"s\":\"t\"}\n"
      "]}\n";
  EXPECT_EQ(s.chrome_json(), expected);
}

TEST(Trace, PidsGroupByProcessName) {
  TraceSession s;
  const int a0 = s.add_track("rank 0", "exec");
  const int a1 = s.add_track("rank 0", "halo");
  const int b0 = s.add_track("rank 1", "exec");
  (void)a0;
  (void)a1;
  (void)b0;
  s.instant(a0, "x", "c", 0);
  s.instant(a1, "x", "c", 0);
  s.instant(b0, "x", "c", 0);
  const std::string j = s.chrome_json();
  // rank 0's two rows share pid 1 (tids 1, 2); rank 1 gets pid 2.
  EXPECT_NE(j.find("\"ph\":\"i\",\"pid\":1,\"tid\":1"), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\",\"pid\":1,\"tid\":2"), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\",\"pid\":2,\"tid\":1"), std::string::npos);
}

// ------------------------------------------------------------- metrics --

TEST(Metrics, JsonSnapshotIsSortedAndExact) {
  MetricsRegistry m;
  m.add("b.count", 2);
  m.add("a.count");
  m.set("g", 1.5);
  m.observe("lat", 2);
  m.observe("lat", 4);
  m.observe_hist("h", 2);
  EXPECT_EQ(m.json(),
            "{\"counters\":{\"a.count\":1,\"b.count\":2},"
            "\"gauges\":{\"g\":1.5},"
            "\"summaries\":{\"lat\":{\"count\":2,\"sum\":6,\"min\":2,"
            "\"max\":4,\"mean\":3}},"
            "\"histograms\":{\"h\":{\"count\":1,\"min\":2,\"max\":2,"
            "\"p50\":2,\"p90\":2,\"p99\":2,\"p999\":2}}}");
}

TEST(Metrics, AccessorsAndReset) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.add("c", 3);
  m.add("c", 4);
  EXPECT_EQ(m.counter("c"), 7u);
  EXPECT_EQ(m.counter("missing"), 0u);
  m.set("g", 2.0);
  m.set("g", -1.0);
  EXPECT_EQ(m.gauge("g"), -1.0);
  m.observe("s", 5.0);
  ASSERT_TRUE(m.summary("s").has_value());
  EXPECT_EQ(m.summary("s")->count, 1u);
  EXPECT_FALSE(m.summary("missing").has_value());
  m.observe_hist("h", 5.0);
  ASSERT_TRUE(m.histogram("h").has_value());
  EXPECT_EQ(m.histogram("h")->count(), 1u);
  EXPECT_FALSE(m.histogram("missing").has_value());
  m.reset();
  EXPECT_TRUE(m.empty());
}

TEST(Metrics, SnapshotIsByValueAndCoherent) {
  MetricsRegistry m;
  m.add("c", 1);
  m.set("g", 2.0);
  m.observe("s", 3.0);
  m.observe_hist("h", 4.0);
  const MetricsRegistry::Snapshot snap = m.snapshot();
  // Mutations after the snapshot must not show through the copy.
  m.add("c", 100);
  m.observe_hist("h", 400.0);
  EXPECT_EQ(snap.counters.at("c"), 1u);
  EXPECT_EQ(snap.gauges.at("g"), 2.0);
  EXPECT_EQ(snap.summaries.at("s").count, 1u);
  EXPECT_EQ(snap.histograms.at("h").count(), 1u);
  EXPECT_EQ(m.counter("c"), 101u);
}

TEST(Metrics, TimingFlagGatesObserveHistTiming) {
  MetricsRegistry m;
  install_metrics(&m);
  observe_hist_timing("wall.us", 12.0);  // default: timing disabled
  EXPECT_FALSE(m.histogram("wall.us").has_value());
  observe_hist("virtual.us", 12.0);  // value histograms are unconditional
  EXPECT_TRUE(m.histogram("virtual.us").has_value());
  m.enable_timing(true);
  EXPECT_TRUE(m.timing_enabled());
  observe_hist_timing("wall.us", 12.0);
  install_metrics(nullptr);
  ASSERT_TRUE(m.histogram("wall.us").has_value());
  EXPECT_EQ(m.histogram("wall.us")->count(), 1u);
}

// ----------------------------------------------------------- histogram --

TEST(Histogram, BucketBoundsAndIndexAgree) {
  // Every value lands in a bucket whose [lower, upper) brackets it, and
  // the exact bucket boundaries index into themselves (half-open).
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    const double lo = Histogram::bucket_lower(i);
    const double hi = Histogram::bucket_upper(i);
    ASSERT_LT(lo, hi);
    EXPECT_EQ(Histogram::bucket_index(lo), i);
    const double mid = lo + 0.4 * (hi - lo);
    EXPECT_EQ(Histogram::bucket_index(mid), i);
  }
  // Clamping: non-positive, NaN, below-range low; huge and +inf high.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-7.0), 0);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0);
  EXPECT_EQ(Histogram::bucket_index(1e-9), 0);
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(HUGE_VAL), Histogram::kBuckets - 1);
}

TEST(Histogram, QuantilesTrackSortedReference) {
  // A deterministic LCG stream spanning several orders of magnitude; the
  // histogram's quantiles must agree with the exact sorted-vector answer
  // to within the bucket resolution (2^(1/4)-1 ~ 19%).
  Histogram h;
  std::vector<double> ref;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const double u = double(x >> 11) / double(1ull << 53);  // [0, 1)
    const double v = std::exp(2.0 + 8.0 * u);               // ~7.4 .. 1.6e4
    h.observe(v);
    ref.push_back(v);
  }
  std::sort(ref.begin(), ref.end());
  for (const double p : {0.5, 0.9, 0.99, 0.999}) {
    const double exact =
        ref[std::size_t(std::ceil(p * double(ref.size())) - 1)];
    const double est = h.quantile(p);
    EXPECT_NEAR(est / exact, 1.0, 0.20)
        << "p=" << p << " exact=" << exact << " est=" << est;
  }
  EXPECT_EQ(h.count(), 20000u);
  EXPECT_EQ(h.min(), ref.front());
  EXPECT_EQ(h.max(), ref.back());
  // Degenerate single-value histogram answers exactly.
  Histogram one;
  one.observe(42.0);
  EXPECT_EQ(one.p50(), 42.0);
  EXPECT_EQ(one.p999(), 42.0);
  EXPECT_EQ(Histogram().quantile(0.5), 0.0);
}

TEST(Histogram, MergeMatchesCombinedFeed) {
  Histogram a, b, all;
  for (int i = 1; i <= 100; ++i) {
    (i % 2 ? a : b).observe(double(i));
    all.observe(double(i));
  }
  a.merge(b);
  EXPECT_EQ(a.json(), all.json());
  Histogram empty;
  a.merge(empty);  // merging an empty histogram is a no-op
  EXPECT_EQ(a.json(), all.json());
}

TEST(Histogram, SnapshotBitwiseIdenticalAcrossThreadCounts) {
  // The same observation multiset fed through the registry from 1-lane
  // and 4-lane parallel regions must produce byte-identical registry
  // JSON — the property that lets instrumented runs stay inside the
  // cross-thread-count determinism tests.
  const auto run = [](int threads) {
    exec::ThreadPool::set_global_threads(threads);
    MetricsRegistry reg;
    install_metrics(&reg);
    exec::parallel_for(0, 5000, 64, [](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i)
        observe_hist("det.h", 1.0 + double((i * 37) % 1000));
    });
    install_metrics(nullptr);
    return reg.json();
  };
  const std::string one = run(1);
  const std::string four = run(4);
  exec::ThreadPool::set_global_threads(exec::ThreadPool::configured_threads());
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("\"det.h\":{\"count\":5000"), std::string::npos);
}

// ---------------------------------------------------------- prometheus --

TEST(Metrics, PrometheusExposition) {
  MetricsRegistry m;
  m.add("serve.requests", 3);
  m.set("serve.queue-depth", 2.0);  // '-' sanitized to '_'
  m.observe("ens.wait", 4.0);
  m.observe("ens.wait", 6.0);
  for (int i = 0; i < 100; ++i) m.observe_hist("serve.latency_us.mem", 8.0);
  const std::string p = m.prometheus();
  EXPECT_NE(p.find("# TYPE dgr_serve_requests counter\n"
                   "dgr_serve_requests 3\n"),
            std::string::npos);
  EXPECT_NE(p.find("# TYPE dgr_serve_queue_depth gauge\n"
                   "dgr_serve_queue_depth 2\n"),
            std::string::npos);
  EXPECT_NE(p.find("dgr_ens_wait_count 2\n"), std::string::npos);
  EXPECT_NE(p.find("dgr_ens_wait_sum 10\n"), std::string::npos);
  EXPECT_NE(p.find("# TYPE dgr_serve_latency_us_mem summary\n"),
            std::string::npos);
  EXPECT_NE(p.find("dgr_serve_latency_us_mem{quantile=\"0.5\"} 8\n"),
            std::string::npos);
  EXPECT_NE(p.find("dgr_serve_latency_us_mem{quantile=\"0.999\"} 8\n"),
            std::string::npos);
  EXPECT_NE(p.find("dgr_serve_latency_us_mem_count 100\n"),
            std::string::npos);
}

// ------------------------------------------------------ flight recorder --

TEST(FlightRec, CapacityKnobIsStrict) {
  flightrec::reset();  // re-arm the DGR_FLIGHTREC_KB read
  ASSERT_EQ(setenv("DGR_FLIGHTREC_KB", "64", 1), 0);
  // A 32-byte entry: 2048 spans per 64 KiB ring.
  EXPECT_EQ(flightrec::capacity_entries(), 2048u);
  // Garbage must throw at first use instead of silently recording into the
  // default-sized ring (std::atol would have returned 0 for all of these).
  // A failed read leaves the capacity unset, so each variant re-reads.
  flightrec::reset();
  for (const char* bad : {"64MB", "64 ", "x", "", "0", "-4", "4.5"}) {
    ASSERT_EQ(setenv("DGR_FLIGHTREC_KB", bad, 1), 0);
    EXPECT_THROW(flightrec::capacity_entries(), Error) << bad;
  }
  ASSERT_EQ(unsetenv("DGR_FLIGHTREC_KB"), 0);
  EXPECT_GT(flightrec::capacity_entries(), 0u);  // default capacity
  flightrec::reset();
}

TEST(FlightRec, GoldenDumpWithRingWraparound) {
  flightrec::reset();
  flightrec::set_enabled(true);
  flightrec::set_capacity_bytes(4 * sizeof(flightrec::Entry));
  ASSERT_EQ(flightrec::capacity_entries(), 4u);
  // Six events into a 4-entry ring: the two oldest fall off the end.
  flightrec::record_span("e0", "t", 0.0, 1.0);
  flightrec::record_span("e1", "t", 1.0, 1.0);
  flightrec::record_span("e2", "t", 2.0, 1.0);
  flightrec::record_span("e3", "t", 3.0, 1.0);
  flightrec::record_span("e4", "t", 4.0, 1.0);
  flightrec::record_span("e5", "t", 5.0, 1.5);
  EXPECT_EQ(flightrec::recorded_entries(), 4u);
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"e2\",\"cat\":\"t\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
      "\"ts\":2,\"dur\":1},\n"
      "{\"name\":\"e3\",\"cat\":\"t\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
      "\"ts\":3,\"dur\":1},\n"
      "{\"name\":\"e4\",\"cat\":\"t\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
      "\"ts\":4,\"dur\":1},\n"
      "{\"name\":\"e5\",\"cat\":\"t\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
      "\"ts\":5,\"dur\":1.5}\n"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(flightrec::dump_json(), expected);

  // dump() writes the same bytes to disk, and the result parses as JSON
  // with the expected traceEvents array (Perfetto-loadable shape).
  const std::string path = testing::TempDir() + "dgr_flightrec_test.json";
  std::remove(path.c_str());
  ASSERT_TRUE(flightrec::dump(path));
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), expected);
  std::string err;
  const auto parsed = jsonu::parse(ss.str(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  ASSERT_NE(parsed->get("traceEvents"), nullptr);
  EXPECT_EQ(parsed->get("traceEvents")->arr.size(), 4u);
  EXPECT_EQ(parsed->get("traceEvents")->arr[3].get_str("name"), "e5");
  std::remove(path.c_str());
  flightrec::reset();
}

TEST(FlightRec, DisabledRecordsAndDumpsNothing) {
  flightrec::reset();
  flightrec::set_enabled(false);
  flightrec::record_span("dropped", "t", 0.0, 1.0);
  EXPECT_EQ(flightrec::recorded_entries(), 0u);
  EXPECT_FALSE(flightrec::dump(testing::TempDir() + "dgr_fr_disabled.json"));
  flightrec::set_enabled(true);
  flightrec::reset();
}

TEST(FlightRec, ScopedSpanFeedsRecorder) {
  flightrec::reset();
  flightrec::set_enabled(true);
  { ScopedSpan span("fr.span", "test"); }
  EXPECT_EQ(flightrec::recorded_entries(), 1u);
  EXPECT_NE(flightrec::dump_json().find("\"name\":\"fr.span\""),
            std::string::npos);
  flightrec::reset();
}

using FlightRecDeathTest = ::testing::Test;

TEST(FlightRecDeathTest, CrashHandlerDumpsAndReRaises) {
  const std::string path = testing::TempDir() + "dgr_flightrec_crash.json";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        flightrec::reset();
        flightrec::set_enabled(true);
        flightrec::install_crash_handler(path.c_str());
        flightrec::record_span("before-crash", "test", 1.0, 2.0);
        std::raise(SIGSEGV);
      },
      "");
  // The child dumped before dying of the original signal.
  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "crash handler did not write " << path;
  std::stringstream ss;
  ss << f.rdbuf();
  std::string err;
  const auto parsed = jsonu::parse(ss.str(), &err);
  ASSERT_TRUE(parsed.has_value()) << err << "\n" << ss.str();
  ASSERT_NE(parsed->get("traceEvents"), nullptr);
  ASSERT_EQ(parsed->get("traceEvents")->arr.size(), 1u);
  EXPECT_EQ(parsed->get("traceEvents")->arr[0].get_str("name"),
            "before-crash");
  std::remove(path.c_str());
}

// --------------------------------------------------------- RAII guards --

TEST(Obs, HelpersAreNoOpsWithoutInstall) {
  install_trace(nullptr);
  install_metrics(nullptr);
  EXPECT_EQ(trace(), nullptr);
  EXPECT_EQ(metrics(), nullptr);
  {
    ScopedSpan span("noop", "test");  // must not crash or allocate a session
    count("noop.counter");
    gauge_set("noop.gauge", 1.0);
    observe("noop.summary", 1.0);
    observe_hist("noop.hist", 1.0);
    observe_hist_timing("noop.hist.timing", 1.0);
  }
  EXPECT_EQ(trace(), nullptr);
}

TEST(Obs, MetricHelpersFeedInstalledRegistry) {
  MetricsRegistry m;
  install_metrics(&m);
  count("x.count", 5);
  gauge_set("x.gauge", 2.5);
  observe("x.obs", 7.0);
  install_metrics(nullptr);
  EXPECT_EQ(m.counter("x.count"), 5u);
  EXPECT_EQ(m.gauge("x.gauge"), 2.5);
  EXPECT_EQ(m.summary("x.obs")->count, 1u);
}

// ----------------------------------------------------------------- log --

TEST(Log, ParseLevelNamesAndDigits) {
  using log::Level;
  using log::parse_level;
  EXPECT_EQ(parse_level("debug"), Level::kDebug);
  EXPECT_EQ(parse_level("INFO"), Level::kInfo);
  EXPECT_EQ(parse_level("Warn"), Level::kWarn);
  EXPECT_EQ(parse_level("error"), Level::kError);
  EXPECT_EQ(parse_level("off"), Level::kOff);
  EXPECT_EQ(parse_level("2"), Level::kWarn);
  EXPECT_EQ(parse_level("bogus", Level::kError), Level::kError);
}

// ------------------------------------------- end-to-end distributed run --

struct ParsedEvent {
  char ph = 0;
  int pid = 0, tid = 0;
  double ts = 0;
};

// Minimal line-oriented parser for the exporter's one-event-per-line form.
std::vector<ParsedEvent> parse_events(const std::string& j) {
  std::vector<ParsedEvent> out;
  const auto field = [](const std::string& line, const std::string& key) {
    const auto pos = line.find("\"" + key + "\":");
    EXPECT_NE(pos, std::string::npos) << key << " missing in " << line;
    return line.substr(pos + key.size() + 3);
  };
  std::size_t start = 0;
  while (start < j.size()) {
    auto end = j.find('\n', start);
    if (end == std::string::npos) end = j.size();
    const std::string line = j.substr(start, end - start);
    start = end + 1;
    if (line.rfind("{\"ph\":\"", 0) != 0) continue;
    ParsedEvent e;
    e.ph = line[7];
    e.pid = std::atoi(field(line, "pid").c_str());
    e.tid = std::atoi(field(line, "tid").c_str());
    if (e.ph != 'M') e.ts = std::atof(field(line, "ts").c_str());
    out.push_back(e);
  }
  return out;
}

/// Spans pair up: every E closes an open B on its own track, none stays
/// open, and B/E timestamps are monotone per track. Flow and instant
/// events ride between spans and are exempt from the ordering. Returns the
/// pids that carry spans.
std::set<int> expect_paired_spans(const std::vector<ParsedEvent>& events) {
  std::map<std::pair<int, int>, int> open;
  std::map<std::pair<int, int>, double> last_ts;
  std::set<int> pids_with_spans;
  for (const auto& e : events) {
    if (e.ph != 'B' && e.ph != 'E') continue;
    const auto key = std::make_pair(e.pid, e.tid);
    int& depth = open[key];
    if (e.ph == 'B') {
      ++depth;
      pids_with_spans.insert(e.pid);
    } else {
      EXPECT_GT(depth, 0) << "E without open B on pid " << e.pid << " tid "
                          << e.tid;
      if (depth > 0) --depth;
    }
    auto it = last_ts.find(key);
    if (it != last_ts.end()) {
      EXPECT_GE(e.ts, it->second) << "non-monotone span ts on pid " << e.pid;
    }
    last_ts[key] = e.ts;
  }
  for (const auto& [key, depth] : open) {
    EXPECT_EQ(depth, 0) << "unclosed span";
  }
  return pids_with_spans;
}

/// Octree refined to `finest` around a puncture near the origin.
std::shared_ptr<mesh::Mesh> puncture_mesh(int finest = 3) {
  oct::Domain dom{16.0};
  return std::make_shared<mesh::Mesh>(
      oct::build_puncture_octree(dom, {{{0.05, 0.03, 0.02}, finest}}, 2),
      dom);
}

bssn::BssnState puncture_state(const mesh::Mesh& m) {
  bssn::BssnState s(m.num_dofs());
  bssn::set_punctures(m, {{1.0, {0.05, 0.03, 0.02}, {0, 0, 0}, {0, 0, 0}}},
                      s);
  return s;
}

std::string run_two_rank_trace() {
  auto m = puncture_mesh();
  const bssn::BssnState s = puncture_state(*m);
  TraceSession session;
  install_trace(&session);
  dist::DistConfig dcfg;
  dcfg.ranks = 2;
  dcfg.execute = false;
  dcfg.schedule_evals = 4;
  dist::evolve_distributed(m, s, solver::SolverConfig{}, dcfg);
  install_trace(nullptr);
  return session.chrome_json();
}

TEST(Trace, TwoRankDistributedRunExportsValidSchedule) {
  const std::string j = run_two_rank_trace();

  // Frame: header and footer of the Chrome trace format.
  EXPECT_EQ(j.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", 0), 0u);
  ASSERT_GE(j.size(), 4u);
  EXPECT_EQ(j.substr(j.size() - 4), "\n]}\n");

  // Both ranks present as named processes with exec + halo rows.
  EXPECT_NE(j.find("\"args\":{\"name\":\"rank 0\"}"), std::string::npos);
  EXPECT_NE(j.find("\"args\":{\"name\":\"rank 1\"}"), std::string::npos);
  EXPECT_NE(j.find("\"args\":{\"name\":\"exec\"}"), std::string::npos);
  EXPECT_NE(j.find("\"args\":{\"name\":\"halo\"}"), std::string::npos);
  // The schedule's span vocabulary.
  EXPECT_NE(j.find("\"name\":\"compute\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"isend\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"halo hidden\""), std::string::npos);

  const auto events = parse_events(j);
  ASSERT_FALSE(events.empty());
  // Spans on at least the two rank processes.
  EXPECT_GE(expect_paired_spans(events).size(), 2u);

  // Every flow start has a matching finish ('s' and 'f' counts agree).
  std::size_t n_s = 0, n_f = 0;
  for (const auto& e : events) {
    if (e.ph == 's') ++n_s;
    if (e.ph == 'f') ++n_f;
  }
  EXPECT_GT(n_s, 0u);
  EXPECT_EQ(n_s, n_f);
}

TEST(Trace, TwoRankDistributedRunIsDeterministic) {
  EXPECT_EQ(run_two_rank_trace(), run_two_rank_trace());
}

TEST(Metrics, DistributedRunFeedsRegistry) {
  auto m = puncture_mesh();
  const bssn::BssnState s = puncture_state(*m);
  MetricsRegistry reg;
  install_metrics(&reg);
  dist::DistConfig dcfg;
  dcfg.ranks = 2;
  dcfg.execute = false;
  dcfg.schedule_evals = 2;
  const auto res = dist::evolve_distributed(m, s, solver::SolverConfig{},
                                            dcfg);
  install_metrics(nullptr);
  EXPECT_EQ(reg.counter("dist.messages"), res.messages);
  EXPECT_GT(reg.counter("dist.messages"), 0u);
  EXPECT_EQ(reg.gauge("dist.ranks"), 2.0);
  EXPECT_EQ(reg.gauge("dist.t_virtual"), res.t_virtual);
}

// ------------------------------------------------------ per-layer ledger --

/// One execute-mode RK4 step of the 2-rank engine, no regrid.
void run_two_rank_step(std::shared_ptr<const mesh::Mesh> m) {
  dist::DistConfig dcfg;
  dcfg.ranks = 2;
  dcfg.t_end = solver::SolverConfig{}.cfl * m->finest_spacing();
  dcfg.do_regrid = false;
  const bssn::BssnState s = puncture_state(*m);
  dist::evolve_distributed(std::move(m), s, solver::SolverConfig{}, dcfg);
}

TEST(Ledger, Rk4StepTimesEveryLayerOnEveryBackend) {
  auto m = puncture_mesh(/*finest=*/2);
  solver::SolverConfig cfg;
  cfg.chunk_octants = 16;
  const std::uint64_t chunks =
      (m->num_octants() + cfg.chunk_octants - 1) / cfg.chunk_octants;
  ASSERT_GT(chunks, 1u);
  simgpu::GpuRuntime rt;
  for (const exec_space::ExecSpace& es :
       {exec_space::ExecSpace::serial(), exec_space::ExecSpace::host(),
        exec_space::ExecSpace::simgpu(rt)}) {
    const std::string what = exec_space::backend_name(es.backend());
    solver::BssnCtx ctx(m, cfg, es);
    ctx.state() = puncture_state(*m);
    MetricsRegistry reg;
    install_metrics(&reg);
    ctx.rk4_step();  // timing off: spans leave the registry alone
    EXPECT_TRUE(reg.snapshot().summaries.empty()) << what;
    reg.enable_timing(true);
    ctx.rk4_step();
    install_metrics(nullptr);
    // One span per sweep: four RHS evaluations of `chunks` chunks each,
    // and the seven AXPY sweeps of the step.
    for (const char* layer : {"unzip", "rhs", "zip", "update"}) {
      const auto sum = reg.summary(layer);
      ASSERT_TRUE(sum.has_value()) << what << " " << layer;
      EXPECT_EQ(sum->count, layer == std::string("update") ? 7 : 4 * chunks)
          << what << " " << layer;
      EXPECT_GT(sum->sum, 0.0) << what << " " << layer;
    }
  }
}

TEST(Ledger, DistributedRunTimesEveryLayer) {
  auto m = puncture_mesh(/*finest=*/2);
  MetricsRegistry reg;
  install_metrics(&reg);
  run_two_rank_step(m);
  EXPECT_TRUE(reg.snapshot().summaries.empty());
  reg.enable_timing(true);
  run_two_rank_step(m);
  install_metrics(nullptr);
  for (const char* layer : {"unzip", "rhs", "zip", "update"}) {
    const auto sum = reg.summary(layer);
    ASSERT_TRUE(sum.has_value()) << layer;
    EXPECT_GT(sum->sum, 0.0) << layer;
  }
  EXPECT_EQ(reg.summary("update")->count, 2u * 7u);  // per rank per step
}

/// The virtual-time export of one traced execute-mode two-rank step run on
/// a pool of `threads` lanes.
std::string traced_two_rank_step(int threads) {
  auto m = puncture_mesh(/*finest=*/2);
  exec::ThreadPool::set_global_threads(threads);
  TraceSession session;
  install_trace(&session);
  run_two_rank_step(m);
  install_trace(nullptr);
  exec::ThreadPool::set_global_threads(exec::ThreadPool::configured_threads());
  return session.chrome_json();
}

TEST(Trace, TwoRankExecuteStepExportIsThreadCountIndependent) {
  // The ranks' numerics run on pool workers, but every trace event comes
  // from the thread that calls evolve_distributed, in virtual time.
  const std::string one = traced_two_rank_step(1);
  EXPECT_NE(one.find("\"name\":\"compute\""), std::string::npos);
  EXPECT_NE(one.find("\"name\":\"halo hidden\""), std::string::npos);
  EXPECT_EQ(one, traced_two_rank_step(3));
}

TEST(FlightRec, TwoRankExecuteRunNestsSpansPerThread) {
  // Rank numerics run on pool workers, each recording into its own ring,
  // so the dump's rows (one tid per thread) hold properly nested spans, and
  // no sweep-layer span inside another (a sweep never opens a sweep on its
  // own thread): a ring shared by concurrently running ranks would hold
  // overlapping ones.
  auto m = puncture_mesh(/*finest=*/2);
  exec::ThreadPool::set_global_threads(3);
  flightrec::reset();
  flightrec::set_enabled(true);
  run_two_rank_step(m);
  const std::string dump = flightrec::dump_json();
  flightrec::reset();
  exec::ThreadPool::set_global_threads(exec::ThreadPool::configured_threads());

  std::string err;
  const auto doc = jsonu::parse(dump, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const jsonu::JValue* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  struct Span {
    std::string name;
    double t0, t1;
  };
  std::map<int, std::vector<Span>> by_tid;
  bool saw_unzip = false;
  for (const jsonu::JValue& e : events->arr) {
    ASSERT_EQ(e.get_str("ph"), "X");
    const double ts = *e.get_num("ts");
    by_tid[int(*e.get_num("tid"))].push_back(
        {e.get_str("name"), ts, ts + *e.get_num("dur")});
    saw_unzip |= e.get_str("name") == "unzip";
  }
  EXPECT_TRUE(saw_unzip);
  const std::set<std::string> layers = {"unzip", "rhs", "zip", "update"};
  // ts + dur rounds, so containment and disjointness get one nanosecond.
  constexpr double kTol = 1e-3;
  for (const auto& [tid, spans] : by_tid)
    for (std::size_t i = 0; i < spans.size(); ++i)
      for (std::size_t j = i + 1; j < spans.size(); ++j) {
        const Span& a = spans[i];
        const Span& b = spans[j];
        if (a.t1 <= b.t0 + kTol || b.t1 <= a.t0 + kTol) continue;  // disjoint
        const bool a_in_b = b.t0 <= a.t0 + kTol && a.t1 <= b.t1 + kTol;
        const bool b_in_a = a.t0 <= b.t0 + kTol && b.t1 <= a.t1 + kTol;
        EXPECT_TRUE(a_in_b || b_in_a)
            << a.name << " and " << b.name << " overlap on tid " << tid;
        EXPECT_FALSE(layers.count(a.name) && layers.count(b.name))
            << a.name << " nested with " << b.name << " on tid " << tid;
      }
}

}  // namespace
}  // namespace dgr::obs
