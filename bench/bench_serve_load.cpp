/// \file bench_serve_load.cpp
/// \brief Load generator for the waveform service (src/serve): replays a
/// seeded request stream with a controlled duplicate fraction against a
/// dgr_serve socket and reports p50/p99 latency split by cache outcome,
/// throughput, cache hit rate, shed count, and a bitwise-identity check
/// (every response carrying the same config hash must carry the same
/// waveform digest — cache hits are bit-identical to recomputes or the
/// run fails).
///
/// Self-hosts an in-process server on a private socket by default;
/// `--socket PATH` targets an external dgr_serve instead (the CI smoke
/// job does this). Flags (all strictly parsed):
///
///   --requests N    total EVOLVE requests            (default 1000)
///   --dup P         duplicate percentage 0..95       (default 50)
///   --clients N     concurrent client connections    (default 4)
///   --steps N       RK4 steps per unique scenario    (default 1)
///   --shutdown      send SHUTDOWN when done (drains the server)
///   --json [path]   machine-readable report (bench_common Reporter)
///   --threads N     host pool lanes

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/clock.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "ensemble/scenario.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

using namespace dgr;

namespace {

struct Options {
  long requests = 1000;
  long dup_pct = 50;
  long clients = 4;
  long steps = 1;
  bool shutdown = false;
  std::string socket;  // empty: self-host
};

/// One answered request, classified by the server's `source` field.
struct Sample {
  std::string source;
  double latency_us = 0;
};

ensemble::ScenarioConfig base_scenario(long steps) {
  ensemble::ScenarioConfig cfg;
  cfg.base_level = 1;
  cfg.finest_level = 2;
  cfg.domain_half = 8.0;
  cfg.steps = static_cast<int>(steps);
  cfg.extract_every = 1;
  cfg.extraction_radius = 3.0;
  return cfg;
}

std::string field(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return "";
  const auto start = pos + needle.size();
  const auto end = line.find(' ', start);
  return line.substr(start, end == std::string::npos ? std::string::npos
                                                     : end - start);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("serve_load", argc, argv);
  bench::header("serve_load", "waveform service under replayed load");

  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&](const char* flag) -> const char* {
        DGR_CHECK_MSG(i + 1 < argc, flag << " requires a value");
        return argv[++i];
      };
      if (a == "--requests")
        opt.requests = dgr::parse_count(value("--requests"), "--requests",
                                          1, 10'000'000);
      else if (a == "--dup")
        opt.dup_pct = dgr::parse_count(value("--dup"), "--dup", 0, 95);
      else if (a == "--clients")
        opt.clients = dgr::parse_count(value("--clients"), "--clients", 1,
                                         256);
      else if (a == "--steps")
        opt.steps = dgr::parse_count(value("--steps"), "--steps", 1, 1000);
      else if (a == "--socket")
        opt.socket = value("--socket");
      else if (a == "--shutdown")
        opt.shutdown = true;
      else if (a == "--json") {
        if (i + 1 < argc && argv[i + 1][0] != '-') ++i;  // Reporter's arg
      } else if (a == "--threads") {
        ++i;  // Reporter's arg
      } else {
        DGR_CHECK_MSG(false, "unknown flag " << a);
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // Self-host unless pointed at an external server.
  std::unique_ptr<serve::Server> hosted;
  std::string socket_path = opt.socket;
  if (socket_path.empty()) {
    serve::ServeConfig scfg;
    socket_path = "/tmp/dgr_bench_serve_" + std::to_string(::getpid()) +
                  ".sock";
    scfg.socket_path = socket_path;
    scfg.queue_max = 1 << 16;  // measure latency, not admission control
    hosted = std::make_unique<serve::Server>(scfg);
    hosted->start();
    bench::note("self-hosting server on " + socket_path);
  } else {
    bench::note("targeting external server at " + socket_path);
  }

  // The seeded request stream: a request is a duplicate of an
  // already-issued scenario with probability dup_pct, else a fresh unique
  // scenario (spins carry the uniqueness — full double entropy).
  Rng rng(0xD62ULL);
  std::vector<ensemble::ScenarioConfig> stream;
  std::vector<ensemble::ScenarioConfig> uniques;
  stream.reserve(static_cast<std::size_t>(opt.requests));
  for (long i = 0; i < opt.requests; ++i) {
    const bool dup = !uniques.empty() &&
                     rng.uniform() * 100.0 < static_cast<double>(opt.dup_pct);
    if (dup) {
      stream.push_back(uniques[rng.uniform_int(uniques.size())]);
    } else {
      ensemble::ScenarioConfig cfg = base_scenario(opt.steps);
      cfg.spin1[2] = rng.uniform(-0.1, 0.1);
      cfg.spin2[2] = rng.uniform(-0.1, 0.1);
      uniques.push_back(cfg);
      stream.push_back(cfg);
    }
  }
  std::printf("  requests=%ld unique=%zu dup=%ld%% clients=%ld steps=%ld\n",
              opt.requests, uniques.size(), opt.dup_pct, opt.clients,
              opt.steps);

  // Clients replay disjoint slices of the stream concurrently; every
  // response is checked against the per-hash digest registry.
  std::mutex m;
  std::vector<Sample> samples;
  std::map<std::string, std::string> digest_by_hash;
  std::atomic<long> shed{0}, errors{0}, mismatches{0};
  samples.reserve(stream.size());

  WallTimer wall;
  std::vector<std::thread> clients;
  for (long c = 0; c < opt.clients; ++c) {
    clients.emplace_back([&, c] {
      serve::Client cl;
      try {
        cl.connect(socket_path);
      } catch (const Error&) {
        errors.fetch_add(1);
        return;
      }
      for (std::size_t i = static_cast<std::size_t>(c); i < stream.size();
           i += static_cast<std::size_t>(opt.clients)) {
        const std::string req = serve::format_evolvex(stream[i]);
        const double t0 = monotonic_us();
        std::string resp;
        try {
          resp = cl.request(req);
        } catch (const Error&) {
          errors.fetch_add(1);
          return;  // connection gone; stop this client
        }
        const double dt = monotonic_us() - t0;
        if (resp.rfind("OK ", 0) == 0) {
          const std::string hash = field(resp, "hash");
          const std::string digest = field(resp, "digest");
          std::lock_guard<std::mutex> lk(m);
          samples.push_back({field(resp, "source"), dt});
          auto [it, fresh] = digest_by_hash.emplace(hash, digest);
          if (!fresh && it->second != digest) mismatches.fetch_add(1);
        } else if (resp.rfind("BUSY", 0) == 0) {
          shed.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double wall_s = wall.seconds();

  if (opt.shutdown || hosted) {
    try {
      serve::Client cl;
      cl.connect(socket_path);
      const std::string resp = cl.request("SHUTDOWN");
      bench::note("shutdown: " + resp);
    } catch (const Error& e) {
      bench::note(std::string("shutdown failed: ") + e.what());
    }
  }
  if (hosted) {
    hosted->wait();
    bench::note(hosted->stats().drained ? "drain: clean"
                                        : "drain: INCOMPLETE");
    rep.metric("drained", hosted->stats().drained ? 1 : 0);
  }

  // Classification: hits are served-from-cache responses (mem|disk); a
  // coalesced join waits on the in-flight evolution, so it belongs to
  // neither latency bucket but does count as deduplicated for hit rate.
  // Quantiles come from the shared log-scale obs::Histogram (the same
  // estimator the live daemon's METRICS exposition uses) instead of a
  // hand-rolled sorted-vector percentile.
  obs::Histogram hit_us, miss_us;
  long n_mem = 0, n_disk = 0, n_join = 0, n_miss = 0;
  for (const Sample& s : samples) {
    if (s.source == "mem" || s.source == "disk") {
      hit_us.observe(s.latency_us);
      (s.source == "mem" ? n_mem : n_disk)++;
    } else if (s.source == "join") {
      ++n_join;
    } else {
      miss_us.observe(s.latency_us);
      ++n_miss;
    }
  }
  const long answered = static_cast<long>(samples.size());
  const double hit_rate =
      answered ? double(n_mem + n_disk + n_join) / double(answered) : 0;
  const double p50_hit = hit_us.p50();
  const double p99_hit = hit_us.p99();
  const double p50_miss = miss_us.p50();
  const double p99_miss = miss_us.p99();
  const double throughput = wall_s > 0 ? answered / wall_s : 0;

  std::printf("  answered=%ld (miss=%ld mem=%ld disk=%ld join=%ld) "
              "shed=%ld errors=%ld\n",
              answered, n_miss, n_mem, n_disk, n_join, shed.load(),
              errors.load());
  std::printf("  hit_rate=%.3f throughput=%.1f req/s wall=%.2fs\n", hit_rate,
              throughput, wall_s);
  std::printf("  latency p50/p99 (us): hit %.1f / %.1f   miss %.1f / %.1f\n",
              p50_hit, p99_hit, p50_miss, p99_miss);
  if (p50_hit > 0)
    std::printf("  p50 miss/hit ratio: %.0fx\n", p50_miss / p50_hit);
  if (mismatches.load() > 0)
    std::printf("  DIGEST MISMATCHES: %ld (cache served non-identical "
                "bytes!)\n",
                mismatches.load());
  else
    std::printf("  digests consistent: every hit bitwise-identical to its "
                "recompute\n");

  rep.metric("requests", double(opt.requests));
  rep.metric("answered", double(answered));
  rep.metric("unique", double(uniques.size()));
  rep.metric("hit_rate", hit_rate);
  rep.metric("throughput_rps", throughput);
  rep.metric("p50_hit_us", p50_hit);
  rep.metric("p99_hit_us", p99_hit);
  rep.metric("p50_miss_us", p50_miss);
  rep.metric("p99_miss_us", p99_miss);
  rep.metric("shed", double(shed.load()));
  rep.metric("errors", double(errors.load()));
  rep.metric("digest_mismatches", double(mismatches.load()));

  // Hard failures: lost responses or a cache hit that was not bitwise
  // identical to the recompute.
  if (mismatches.load() > 0 || errors.load() > 0) return 1;
  return 0;
}
