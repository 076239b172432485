#pragma once
/// \file bench_common.hpp
/// \brief Shared helpers for the per-table / per-figure benchmark harness.
/// Every bench prints the paper's reported values next to our measured or
/// modeled values; EXPERIMENTS.md records the comparison. Grids are scaled
/// down to single-core scale (see DESIGN.md, "Scaled-down experiment
/// parameters") — shapes and ratios are the reproduction target, not
/// absolute numbers.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bssn/initial_data.hpp"
#include "common/error.hpp"
#include "common/file_io.hpp"
#include "common/json.hpp"
#include "common/page_array.hpp"
#include "common/parse.hpp"
#include "common/timer.hpp"
#include "exec/pool.hpp"
#include "mesh/mesh.hpp"
#include "obs/obs.hpp"
#include "octree/refinement.hpp"
#include "simd/simd.hpp"
#include "solver/bssn_ctx.hpp"

namespace dgr::bench {

inline void header(const std::string& id, const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("==============================================================\n");
}

inline void note(const std::string& text) {
  std::printf("  [note] %s\n", text.c_str());
}

/// Machine-readable bench telemetry. Every bench constructs one of these;
/// when the binary is invoked with `--json [path]`, the reporter
///   - installs an obs::MetricsRegistry for the bench's lifetime, so the
///     instrumented libraries (solver, simgpu runtime, dist engine) feed it
///     automatically,
///   - records paper-value/our-value pairs via pair(),
///   - and on destruction writes the canonical `BENCH_<name>.json` (plus a
///     copy at the requested path, if different) — the file the perf
///     trajectory is regressed on.
/// enable_trace() additionally installs an obs::TraceSession whose
/// virtual-time timeline is exported to `BENCH_<name>.trace.json` and
/// referenced from the bench JSON ("trace" key). Without `--json`,
/// everything is a no-op and the bench behaves exactly as before.
///
/// `--threads N` sizes the host execution pool (exec::set_global_threads,
/// overriding DGR_THREADS) before the bench body runs. Every report
/// records `bench.threads` and the bench's end-to-end wall time as
/// `bench.host_seconds`, so single- vs multi-thread runs of the same bench
/// are directly comparable; all modeled "ours" values stay bitwise
/// identical across thread counts (the src/exec determinism contract).
/// It also records the process's peak resident set as `bench.peak_rss_mb`
/// (getrusage ru_maxrss at destruction) and, beside it, the bytes held in
/// page-mapped solver buffers (dgr::PageArray) at destruction and at
/// their high-water mark as `bench.mapped_mb` and `bench.mapped_peak_mb`.
/// All three are report-only rows; the mapped ones are sums of buffer
/// sizes, so they depend on neither the host nor malloc.
class Reporter {
 public:
  Reporter(std::string name, int argc, char** argv) : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        enabled_ = true;
        if (i + 1 < argc && argv[i + 1][0] != '-') out_path_ = argv[i + 1];
      }
      if (std::string(argv[i]) == "--threads") {
        // Strictly validated: "--threads garbage" / "--threads -3" used to
        // sail through std::atoi as 0 lanes; now they are hard errors.
        if (i + 1 >= argc) {
          std::fprintf(stderr, "error: --threads requires a value\n");
          std::exit(2);
        }
        try {
          exec::ThreadPool::set_global_threads(static_cast<int>(
              dgr::parse_count(argv[i + 1], "--threads", 1, exec::kMaxThreads)));
        } catch (const Error& e) {
          std::fprintf(stderr, "error: %s\n", e.what());
          std::exit(2);
        }
      }
    }
    if (enabled_) {
      // Benches are single-run reports, not cross-thread-count determinism
      // comparisons, so wall-clock latency histograms are welcome here.
      metrics_.enable_timing(true);
      obs::install_metrics(&metrics_);
    }
    std::printf("  [simd] width=%d (%s), flags: %s\n", simd_active_width(),
                simd_backend_name(simd_active_width()), simd_march());
  }

  ~Reporter() {
    metric("threads", double(exec::lanes()));
    metric("simd_width", double(simd_active_width()));
    metric("host_seconds", wall_.seconds());
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metric("peak_rss_mb", double(ru.ru_maxrss) / 1024.0);  // Linux: KiB
    metric("mapped_mb", double(page_map::live_bytes()) / (1 << 20));
    metric("mapped_peak_mb", double(page_map::peak_bytes()) / (1 << 20));
    if (obs::metrics() == &metrics_) obs::install_metrics(nullptr);
    if (obs::trace() == trace_.get()) obs::install_trace(nullptr);
    if (enabled_) write();
  }

  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  bool json_enabled() const { return enabled_; }

  /// Record one paper-value/our-value comparison row. Pass NAN for `paper`
  /// when the paper reports no value (serialized as null).
  void pair(const std::string& key, double paper, double ours,
            const std::string& unit = "") {
    pairs_.push_back({key, paper, ours, unit});
  }

  /// Record a standalone measured value.
  void metric(const std::string& key, double v) {
    metrics_.set("bench." + key, v);
  }

  /// Print a note and record it in the JSON report.
  void note(const std::string& text) {
    bench::note(text);
    notes_.push_back(text);
  }

  /// Install a TraceSession (owned by the reporter) whose timeline is
  /// exported next to the JSON on destruction. Returns nullptr when --json
  /// was not given.
  obs::TraceSession* enable_trace() {
    if (!enabled_) return nullptr;
    if (!trace_) {
      trace_ = std::make_unique<obs::TraceSession>();
      obs::install_trace(trace_.get());
    }
    return trace_.get();
  }

  /// Canonical output paths (directory of the --json argument, if any).
  std::string json_path() const { return dir() + "BENCH_" + name_ + ".json"; }
  std::string trace_path() const {
    return dir() + "BENCH_" + name_ + ".trace.json";
  }

 private:
  struct Pair {
    std::string key;
    double paper, ours;
    std::string unit;
  };

  std::string dir() const {
    const auto slash = out_path_.rfind('/');
    return slash == std::string::npos ? "" : out_path_.substr(0, slash + 1);
  }

  std::string json() const {
    using jsonu::num;
    using jsonu::quote;
    std::string out = "{\"schema\":\"dgr-bench-v1\",\"bench\":";
    out += quote(name_);
    // SIMD provenance preamble: which vector width the run dispatched to
    // (DGR_SIMD env override included) and the flags the binary was built
    // with — two runs of the same bench are only comparable when these
    // match, so they ride in every report.
    out += ",\"simd_width\":" + num(double(simd_active_width()));
    out += ",\"simd_backend\":" + quote(simd_backend_name(simd_active_width()));
    out += ",\"march\":" + quote(simd_march());
    out += ",\"pairs\":[";
    bool first = true;
    for (const Pair& p : pairs_) {
      if (!first) out += ",";
      out += "{\"name\":" + quote(p.key) + ",\"paper\":" + num(p.paper) +
             ",\"ours\":" + num(p.ours);
      if (!p.unit.empty()) out += ",\"unit\":" + quote(p.unit);
      if (std::isfinite(p.paper) && p.paper != 0 && std::isfinite(p.ours))
        out += ",\"ratio\":" + num(p.ours / p.paper);
      out += "}";
      first = false;
    }
    out += "],\"notes\":[";
    first = true;
    for (const std::string& n : notes_) {
      if (!first) out += ",";
      out += quote(n);
      first = false;
    }
    out += "],\"metrics\":" + metrics_.json();
    if (trace_written_) out += ",\"trace\":" + quote(trace_path());
    out += "}\n";
    return out;
  }

  void write() {
    if (trace_ && trace_->event_count() > 0)
      trace_written_ = trace_->write_chrome_trace(trace_path());
    const std::string body = json();
    const auto dump = [&](const std::string& path) {
      if (write_file_atomic(path, {body}))
        std::printf("  [json] wrote %s\n", path.c_str());
      else
        std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    };
    dump(json_path());
    if (!out_path_.empty() && out_path_ != json_path()) dump(out_path_);
  }

  std::string name_, out_path_;
  WallTimer wall_;
  bool enabled_ = false;
  bool trace_written_ = false;
  std::vector<Pair> pairs_;
  std::vector<std::string> notes_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::TraceSession> trace_;
};

/// The span ledger of one call: runs `f` with a fresh timing-enabled
/// registry installed (the previous one is restored afterwards) and
/// returns its snapshot, whose summaries hold the call's span times in
/// microseconds by layer (unzip, rhs, zip, update, ...).
template <class F>
obs::MetricsRegistry::Snapshot span_ledger(F&& f) {
  obs::MetricsRegistry ledger;
  ledger.enable_timing(true);
  obs::MetricsRegistry* outer = obs::metrics();
  obs::install_metrics(&ledger);
  f();
  obs::install_metrics(outer);
  return ledger.snapshot();
}

/// The Table III adaptivity grids m1..m5 as meshes.
inline std::shared_ptr<mesh::Mesh> adaptivity_mesh(int family) {
  oct::Domain dom{400.0};
  return std::make_shared<mesh::Mesh>(oct::build_adaptivity_grid(dom, family),
                                      dom);
}

/// A scaled-down binary-black-hole mesh: two punctures separated by `sep`
/// on a domain of half-extent `half`, cascaded to `finest` levels.
inline std::shared_ptr<mesh::Mesh> bbh_mesh(Real q, Real half, Real sep,
                                            int base_level, int finest) {
  const Real m1 = q / (1 + q), m2 = 1 / (1 + q);
  std::vector<oct::Puncture> ps = {
      {{sep * m2, 0.011, 0.007}, finest},
      {{-sep * m1, 0.011, 0.007}, finest},
  };
  oct::Domain dom{half};
  return std::make_shared<mesh::Mesh>(
      oct::build_puncture_octree(dom, ps, base_level), dom);
}

/// Initialize a solver state with a scaled BBH configuration.
inline void init_bbh_state(const mesh::Mesh& m, Real q, Real sep,
                           bssn::BssnState& state) {
  auto bhs = bssn::make_binary(q, sep);
  // Keep punctures slightly off the x-axis grid line, as in bbh_mesh.
  for (auto& b : bhs) {
    b.pos[1] = 0.011;
    b.pos[2] = 0.007;
  }
  bssn::set_punctures(m, bhs, state);
}

}  // namespace dgr::bench
