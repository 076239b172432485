#pragma once
/// \file perfdiff.hpp
/// \brief The perf-trajectory diff engine behind tools/dgr_perfdiff: load
/// two directories of BENCH_*.json reports (bench_common::Reporter's
/// dgr-bench-v1 schema), pair them by bench name, and compare every
/// paper-value pair, counter, gauge, summary, and histogram quantile as a
/// flat list of keyed rows. Rows whose key matches the gate regex are
/// REGRESSION-GATED: a change past the threshold in the metric's "worse"
/// direction fails the run. Everything else is report-only, so the full
/// trajectory stays visible while only machine-independent metrics (exact
/// request counts, hit rates, bitwise-identity diffs, virtual-clock times,
/// modeled efficiencies) gate CI.
///
/// Row keys are "<kind>:<name>" with kinds pair / counter / gauge /
/// summary / hist, e.g.
///   pair:state_max_abs_diff        (the "ours" value of a Reporter pair)
///   gauge:bench.hit_rate
///   summary:ensemble.lookup_us.mean
///   hist:serve.latency_us.mem.p99
///
/// Worse-direction inference from the metric name: latency/time/error-ish
/// names (…_us, …seconds, latency, err, mismatch, shed, lost, spill,
/// queue, bytes, diff) regress upward; rate/throughput/efficiency-ish
/// names (rate, throughput, rps, eff, speedup, gflops, answered, drained,
/// recoveries) regress downward; anything else is two-sided — any drift
/// past the threshold regresses. A gated metric with base 0 regresses on
/// ANY worse nonzero (you cannot express "0 errors grew by 10%").

#include <cstddef>
#include <string>
#include <vector>

namespace dgr::obs::perfdiff {

struct Options {
  double threshold_pct = 10.0;  ///< max tolerated worse-direction drift
  std::string gate = ".*";      ///< ECMAScript regex over row keys
};

enum class Direction { kLowerBetter, kHigherBetter, kTwoSided };

struct Row {
  std::string bench;  ///< "serve_load"
  std::string key;    ///< "gauge:bench.hit_rate"
  double base = 0;
  double cur = 0;
  double delta_pct = 0;  ///< signed, relative to |base|; 0 when base==cur
  Direction dir = Direction::kTwoSided;
  bool gated = false;
  bool regression = false;
  bool missing = false;  ///< present in base, absent in current
};

struct Report {
  std::vector<Row> rows;
  /// Structural problems (unreadable report, bench present in the
  /// baseline but absent from the current run). Each one fails the diff.
  std::vector<std::string> problems;
  int benches_compared = 0;

  std::size_t regressions() const;
  bool ok() const { return regressions() == 0 && problems.empty(); }
  /// Human-readable table; `all_rows` includes unchanged/ungated rows.
  std::string text(bool all_rows = false) const;
};

/// Infer the worse direction from a row key (see file comment).
Direction infer_direction(const std::string& key);

/// Diff one parsed pair of reports (JSON text of the same bench).
/// Malformed JSON is reported via `problems`.
void diff_reports(const std::string& bench, const std::string& base_json,
                  const std::string& cur_json, const Options& opt,
                  Report& report);

/// Diff every BENCH_*.json in `base_dir` against `cur_dir`.
Report diff_dirs(const std::string& base_dir, const std::string& cur_dir,
                 const Options& opt);

/// The dgr_perfdiff CLI: BASE_DIR CUR_DIR [--threshold PCT] [--gate RE]
/// [--all]. Returns the process exit code: 0 clean, 1 regressions or
/// structural problems, 2 usage/IO errors. Prints to stdout/stderr.
int run_cli(int argc, char** argv);

}  // namespace dgr::obs::perfdiff
