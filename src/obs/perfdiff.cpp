#include "obs/perfdiff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <regex>

#include "common/error.hpp"
#include "common/file_io.hpp"
#include "common/json_read.hpp"

namespace dgr::obs::perfdiff {

namespace fs = std::filesystem;

namespace {

// A bench report is a few hundred KB at most; a larger file is not one.
constexpr std::size_t kMaxReportBytes = std::size_t{64} << 20;

bool contains_any(const std::string& s,
                  std::initializer_list<const char*> needles) {
  for (const char* n : needles)
    if (s.find(n) != std::string::npos) return true;
  return false;
}

bool ends_with(const std::string& s, const std::string& suf) {
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

/// One flattened metric from a dgr-bench-v1 report.
struct Flat {
  std::string key;
  double value;
};

void flatten(const jsonu::JValue& root, std::vector<Flat>& out) {
  if (const jsonu::JValue* pairs = root.get("pairs")) {
    for (const jsonu::JValue& p : pairs->arr) {
      const std::string name = p.get_str("name");
      const auto ours = p.get_num("ours");
      if (!name.empty() && ours) out.push_back({"pair:" + name, *ours});
    }
  }
  const jsonu::JValue* metrics = root.get("metrics");
  if (!metrics) return;
  if (const jsonu::JValue* c = metrics->get("counters"))
    for (const auto& [k, v] : c->obj)
      if (v.is_num()) out.push_back({"counter:" + k, v.num});
  if (const jsonu::JValue* g = metrics->get("gauges"))
    for (const auto& [k, v] : g->obj)
      if (v.is_num()) out.push_back({"gauge:" + k, v.num});
  if (const jsonu::JValue* s = metrics->get("summaries"))
    for (const auto& [k, v] : s->obj) {
      if (const auto n = v.get_num("count"))
        out.push_back({"summary:" + k + ".count", *n});
      if (const auto n = v.get_num("mean"))
        out.push_back({"summary:" + k + ".mean", *n});
    }
  if (const jsonu::JValue* h = metrics->get("histograms"))
    for (const auto& [k, v] : h->obj)
      for (const char* q : {"count", "p50", "p90", "p99", "p999"})
        if (const auto n = v.get_num(q))
          out.push_back({"hist:" + k + "." + q, *n});
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

Direction infer_direction(const std::string& key) {
  // Two-sided when the name smells of both directions ("hit_rate_us"
  // style ambiguity) — any drift then counts against it.
  const bool lower_better =
      ends_with(key, "_us") || ends_with(key, "_s") ||
      contains_any(key, {"_us.", "seconds", "latency", "time", "err",
                         "mismatch", "shed", "lost", "spill", "queue",
                         "bytes", "diff", "overhead"});
  const bool higher_better =
      contains_any(key, {"rate", "throughput", "rps", "eff", "speedup",
                         "gflops", "answered", "drained", "recoveries"});
  if (lower_better && !higher_better) return Direction::kLowerBetter;
  if (higher_better && !lower_better) return Direction::kHigherBetter;
  return Direction::kTwoSided;
}

std::size_t Report::regressions() const {
  return std::size_t(std::count_if(rows.begin(), rows.end(),
                                   [](const Row& r) { return r.regression; }));
}

std::string Report::text(bool all_rows) const {
  std::string out;
  for (const std::string& p : problems) out += "PROBLEM  " + p + "\n";
  for (const Row& r : rows) {
    if (!all_rows && !r.regression && !r.gated) continue;
    const char* tag = r.regression ? "REGRESS " : (r.gated ? "ok      "
                                                           : "info    ");
    out += tag + r.bench + " " + r.key + "  base=" + fmt(r.base);
    if (r.missing) {
      out += "  cur=MISSING";
    } else {
      out += "  cur=" + fmt(r.cur) + "  (" + (r.delta_pct >= 0 ? "+" : "") +
             fmt(r.delta_pct) + "%)";
    }
    out += "\n";
  }
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "perfdiff: %d bench(es), %zu row(s), %zu regression(s), "
                "%zu problem(s)\n",
                benches_compared, rows.size(), regressions(),
                problems.size());
  out += buf;
  return out;
}

void diff_reports(const std::string& bench, const std::string& base_json,
                  const std::string& cur_json, const Options& opt,
                  Report& report) {
  std::string err;
  const auto base = jsonu::parse(base_json, &err);
  if (!base) {
    report.problems.push_back(bench + ": baseline unparsable (" + err + ")");
    return;
  }
  const auto cur = jsonu::parse(cur_json, &err);
  if (!cur) {
    report.problems.push_back(bench + ": current unparsable (" + err + ")");
    return;
  }
  std::vector<Flat> bflat, cflat;
  flatten(*base, bflat);
  flatten(*cur, cflat);
  std::map<std::string, double> cur_by_key;
  for (const Flat& f : cflat) cur_by_key.emplace(f.key, f.value);

  const std::regex gate(opt.gate.empty() ? ".*" : opt.gate);
  report.benches_compared += 1;
  for (const Flat& b : bflat) {
    Row row;
    row.bench = bench;
    row.key = b.key;
    row.base = b.value;
    row.dir = infer_direction(b.key);
    row.gated = std::regex_search(b.key, gate);
    const auto it = cur_by_key.find(b.key);
    if (it == cur_by_key.end()) {
      row.missing = true;
      row.cur = std::nan("");
      row.regression = row.gated;
      report.rows.push_back(row);
      continue;
    }
    row.cur = it->second;
    const double delta = row.cur - row.base;
    row.delta_pct = row.base != 0 ? 100.0 * delta / std::fabs(row.base)
                                  : (delta == 0 ? 0.0 : HUGE_VAL *
                                                            (delta > 0 ? 1
                                                                       : -1));
    double worse_pct = 0;  // drift in the metric's worse direction, in %
    switch (row.dir) {
      case Direction::kLowerBetter: worse_pct = row.delta_pct; break;
      case Direction::kHigherBetter: worse_pct = -row.delta_pct; break;
      case Direction::kTwoSided: worse_pct = std::fabs(row.delta_pct); break;
    }
    row.regression = row.gated && worse_pct > opt.threshold_pct;
    report.rows.push_back(row);
  }
}

namespace {

std::map<std::string, std::string> bench_files(const std::string& dir,
                                               std::string* err) {
  std::map<std::string, std::string> out;  // bench name -> path
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    const std::string fn = e.path().filename().string();
    if (fn.rfind("BENCH_", 0) != 0 || !ends_with(fn, ".json")) continue;
    if (ends_with(fn, ".trace.json")) continue;
    out.emplace(fn.substr(6, fn.size() - 6 - 5), e.path().string());
  }
  if (ec && err) *err = dir + ": " + ec.message();
  return out;
}

}  // namespace

Report diff_dirs(const std::string& base_dir, const std::string& cur_dir,
                 const Options& opt) {
  Report report;
  std::string err;
  const auto base = bench_files(base_dir, &err);
  if (!err.empty()) report.problems.push_back(err);
  err.clear();
  const auto cur = bench_files(cur_dir, &err);
  if (!err.empty()) report.problems.push_back(err);
  if (base.empty())
    report.problems.push_back(base_dir + ": no BENCH_*.json baselines");
  for (const auto& [bench, bpath] : base) {
    const auto it = cur.find(bench);
    if (it == cur.end()) {
      report.problems.push_back(bench + ": no current report in " + cur_dir);
      continue;
    }
    try {
      diff_reports(bench, read_file(bpath, kMaxReportBytes),
                   read_file(it->second, kMaxReportBytes), opt, report);
    } catch (const Error& e) {  // a missing, oversized or short report
      report.problems.push_back(bench + ": " + e.what());
    }
  }
  return report;
}

int run_cli(int argc, char** argv) {
  Options opt;
  std::vector<std::string> dirs;
  bool all_rows = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--threshold") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --threshold requires a value\n");
        return 2;
      }
      // Reject empty values, trailing garbage, negatives, and non-finite
      // forms ("nan"/"inf" satisfy strtod and are not < 0 — a nan
      // threshold silently disables every gate comparison).
      char* tail = nullptr;
      opt.threshold_pct = std::strtod(argv[++i], &tail);
      if (!tail || tail == argv[i] || *tail ||
          !std::isfinite(opt.threshold_pct) || opt.threshold_pct < 0) {
        std::fprintf(stderr, "error: bad --threshold '%s'\n", argv[i]);
        return 2;
      }
    } else if (a == "--gate") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --gate requires a value\n");
        return 2;
      }
      opt.gate = argv[++i];
    } else if (a == "--all") {
      all_rows = true;
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "usage: dgr_perfdiff BASE_DIR CUR_DIR [--threshold PCT] "
          "[--gate REGEX] [--all]\n"
          "Diff two directories of BENCH_*.json perf reports. Rows whose\n"
          "key matches --gate regress the run when they drift more than\n"
          "--threshold %% in the metric's worse direction.\n"
          "exit: 0 clean, 1 regressions/problems, 2 usage/IO error\n");
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "error: unknown flag %s\n", a.c_str());
      return 2;
    } else {
      dirs.push_back(a);
    }
  }
  if (dirs.size() != 2) {
    std::fprintf(stderr,
                 "usage: dgr_perfdiff BASE_DIR CUR_DIR [--threshold PCT] "
                 "[--gate REGEX] [--all]\n");
    return 2;
  }
  try {
    const Report rep = diff_dirs(dirs[0], dirs[1], opt);
    std::fputs(rep.text(all_rows).c_str(), stdout);
    return rep.ok() ? 0 : 1;
  } catch (const std::regex_error& e) {
    std::fprintf(stderr, "error: bad --gate regex: %s\n", e.what());
    return 2;
  }
}

}  // namespace dgr::obs::perfdiff
