/// \file serve_workload.cpp
/// \brief serve_mix: the waveform service under closed-loop load.
///
/// One job is a session: a fresh in-process serve::Server on a private
/// AF_UNIX socket (relative to the working directory), a cache budget of
/// about half the session's unique waveforms with disk spill, and two
/// client connections that replay a seeded request stream (about 90%
/// duplicates) closed-loop, each client sending its next request only after
/// the previous one is answered. Requests are not pipelined: the server
/// writes a batch's responses together, so a hit pipelined behind a miss
/// would report the miss's latency. Sessions repeat until the run's time
/// is up, each cold and each with its own stream (derived from the run's
/// seed), so a run averages over many arrangements of misses in the stream.
/// Every hit's digest must equal the digest of its session's miss, and two
/// uniques per run are recomputed directly at one lane. Traced runs replay
/// the ensemble and protocol calls directly.

#include <unistd.h>

#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "ensemble/cache.hpp"
#include "ensemble/driver.hpp"
#include "ensemble/scenario.hpp"
#include "exec/pool.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dgr;

constexpr int kUniques = 8;
constexpr int kRequests = 80;
constexpr int kClients = 2;
constexpr int kSetupReps = 5;

ensemble::ScenarioConfig base_scenario() {
  ensemble::ScenarioConfig cfg;
  cfg.base_level = 1;
  cfg.finest_level = 2;
  cfg.domain_half = 8.0;
  cfg.steps = 1;
  cfg.regrid_every = 2;
  cfg.extract_every = 1;
  cfg.extraction_radius = 3.0;
  return cfg;
}

/// The seeded stream: exactly kUniques distinct scenarios (spins carry the
/// uniqueness), each request new with probability 0.1, else a duplicate of
/// one already issued, drawn with Zipf weights 1/(k+1) over issue order so
/// that a hot set stays in memory while the cold tail is spilled.
std::vector<ensemble::ScenarioConfig> make_stream(std::uint64_t seed) {
  Rng rng(0x5E4E0000ULL ^ seed);
  std::vector<ensemble::ScenarioConfig> uniques, stream;
  for (int i = 0; i < kRequests; ++i) {
    const int left = kUniques - static_cast<int>(uniques.size());
    const bool fresh = uniques.empty() ||
                       (left > 0 && (rng.uniform() < 0.1 ||
                                     kRequests - i <= left));
    if (fresh) {
      ensemble::ScenarioConfig cfg = base_scenario();
      cfg.spin1[2] = rng.uniform(-0.1, 0.1);
      cfg.spin2[2] = rng.uniform(-0.1, 0.1);
      uniques.push_back(cfg);
      stream.push_back(cfg);
    } else {
      double total = 0;
      for (std::size_t k = 0; k < uniques.size(); ++k) total += 1.0 / (k + 1);
      double u = rng.uniform() * total;
      std::size_t k = 0;
      while (k + 1 < uniques.size() && (u -= 1.0 / (k + 1)) > 0) ++k;
      stream.push_back(uniques[k]);
    }
  }
  return stream;
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

struct Reply {
  std::string source, hash, digest;
  double latency_s = 0;
  bool ok = false;
};

struct Session {
  double wall_s = 0;
  std::vector<Reply> replies;
  long lost = 0;  ///< requests without an OK response (BUSY, ERR, I/O)
  ensemble::WaveformCache::Stats cache;
};

/// Working files of this process: socket and spill directories live under
/// the current directory, named by pid and session.
std::string local_name(const std::string& stem, int id) {
  return stem + "-" + std::to_string(::getpid()) + "-" + std::to_string(id);
}

serve::ServeConfig serve_config(std::size_t cache_bytes,
                                const std::string& sock,
                                const std::string& spill) {
  serve::ServeConfig scfg;
  scfg.socket_path = sock;
  scfg.queue_max = 1 << 16;  // measure latency, not shedding
  // One evolution at a time: a miss then always borrows the idle lane, so
  // session time does not hinge on whether two clients' misses overlap.
  scfg.ensemble.concurrency = 1;
  scfg.ensemble.cache_bytes = cache_bytes;
  scfg.ensemble.spill_dir = spill;
  scfg.defaults = base_scenario();
  return scfg;
}

Session run_session(const std::vector<ensemble::ScenarioConfig>& stream,
                    std::size_t cache_bytes, int id) {
  const std::string sock = local_name("pb.sock", id);
  const std::string spill = local_name("pb-spill", id);
  std::filesystem::create_directories(spill);
  Session s;
  {
    serve::Server server(serve_config(cache_bytes, sock, spill));
    server.start();
    std::mutex m;
    std::vector<std::thread> clients;
    const double t0 = now_s();
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        std::vector<std::size_t> mine;
        for (std::size_t i = c; i < stream.size(); i += kClients)
          mine.push_back(i);
        std::vector<Reply> local;
        long lost = 0;
        try {
          serve::Client cl;
          cl.connect(sock);
          for (std::size_t i : mine) {
            const double ts = now_s();
            const std::string resp =
                cl.request(serve::format_evolvex(stream[i]));
            Reply rp;
            rp.latency_s = now_s() - ts;
            rp.ok = resp.rfind("OK ", 0) == 0;
            rp.source = field(resp, "source");
            rp.hash = field(resp, "hash");
            rp.digest = field(resp, "digest");
            if (!rp.ok) ++lost;
            local.push_back(rp);
          }
          cl.send_line("QUIT");
        } catch (const std::exception&) {
          lost += static_cast<long>(mine.size() - local.size());
        }
        std::lock_guard<std::mutex> lk(m);
        s.replies.insert(s.replies.end(), local.begin(), local.end());
        s.lost += lost;
      });
    for (auto& t : clients) t.join();
    s.wall_s = now_s() - t0;
    s.cache = server.driver().cache().stats();
  }
  std::filesystem::remove_all(spill);
  return s;
}

/// Budget for about half the uniques, from one probe evolution's size.
std::size_t cache_budget(const ensemble::Waveform& probe) {
  return probe.byte_size() * kUniques / 2;
}

ensemble::ScenarioConfig probe_scenario(int k) {
  ensemble::ScenarioConfig p = base_scenario();
  p.spin1[2] = 0.25 + 0.01 * k;  // outside the stream's spin range
  return p;
}

/// Service set-up: two probe evolutions run concurrently through a driver
/// (warming both pool lanes, so the peak footprint does not hinge on
/// whether two misses happen to overlap later), the cache budget sized
/// from the probe waveform, and a server started and answering PING.
std::size_t setup_once() {
  ensemble::EnsembleConfig ecfg;
  ensemble::EnsembleDriver warm(ecfg);
  auto a = warm.submit(probe_scenario(0));
  auto b = warm.submit(probe_scenario(1));
  b.future.get();
  const std::size_t budget = cache_budget(*a.future.get());
  const std::string sock = local_name("pb-setup.sock", 0);
  serve::Server server(serve_config(budget, sock, ""));
  server.start();
  serve::Client cl;
  cl.connect(sock);
  if (cl.request("PING") != "PONG") throw std::runtime_error("no PONG");
  cl.send_line("QUIT");
  return budget;
}

/// Stream of session `id` (1-based) of the run with seed `seed`.
std::vector<ensemble::ScenarioConfig> session_stream(std::uint64_t seed,
                                                     int id) {
  return make_stream(seed * 1000 + static_cast<std::uint64_t>(id));
}

void untraced_run(const Args& a, Result& r) {
  Samples setup;
  std::size_t budget = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    budget = setup_once();
    setup.add(now_s() - t0);
  }

  Samples job_s, req_ms, mem_ms, disk_ms, miss_ms, unit_us;
  std::map<std::string, std::string> digest_of;  // hash -> digest
  long hits = 0, answered = 0, spills = 0;
  const double t_begin = now_s();
  const double cpu_begin = process_cpu_s();
  int id = 0;
  while (job_s.size() < 2 || now_s() - t_begin < a.seconds) {
    ++id;
    const Session s = run_session(session_stream(a.seed, id), budget, id);
    job_s.add(s.wall_s);
    unit_us.add(s.wall_s * 1e6 / double(kRequests));
    r.attempted += kRequests;
    r.failed += s.lost;
    if (s.lost > 0) r.failures.push_back("lost or refused responses");
    for (const Reply& rp : s.replies) {
      if (!rp.ok) continue;
      ++answered;
      req_ms.add(rp.latency_s * 1e3);
      if (rp.source == "mem" || rp.source == "disk") {
        (rp.source == "mem" ? mem_ms : disk_ms).add(rp.latency_s * 1e3);
        ++hits;
      } else if (rp.source == "miss") {
        miss_ms.add(rp.latency_s * 1e3);
      }
      auto [it, fresh] = digest_of.emplace(rp.hash, rp.digest);
      r.check(fresh || it->second == rp.digest,
              "hit digest differs from its recompute");
    }
    spills += long(s.cache.spills);
  }
  r.info["exec.cpu_util"] =
      (process_cpu_s() - cpu_begin) / ((now_s() - t_begin) * kLanes);
  r.check(digest_of.size() == std::size_t(kUniques) * id,
          "unexpected number of uniques");

  // Recompute two uniques directly at one lane: the digest over the wire
  // must be the digest of the bytes run_scenario produces.
  exec::ThreadPool::set_global_threads(1);
  const auto stream = session_stream(a.seed, 1);
  for (int i = 0; i < 2; ++i) {
    const auto& cfg = stream[static_cast<std::size_t>(i) * 7];
    const auto key = ensemble::ScenarioKey::of(cfg);
    const std::string dg =
        hex16(ensemble::fnv1a64(ensemble::serialize(
            ensemble::run_scenario(cfg))));
    r.check(digest_of[key.hex()] == dg,
            "wire digest differs from a 1-lane recompute");
  }

  // Request latencies form three classes: memory hits (tens of us), disk
  // hits (a few hundred us) and misses, which evolve (about 0.3 s). A pooled
  // quantile sits on the steep edge between classes and swings with the
  // seed's mix, so the typical request is reported as the memory-hit
  // median. Misses are bimodal themselves (a miss queued behind the other
  // client's miss waits for it), so the slow class is reported by its
  // mean, which moves in proportion to the queued share instead of jumping
  // between the modes.
  r.metrics["setup_s"] = setup.median();
  r.metrics["job_s"] = job_s.median();
  r.metrics["op_ms_p50"] = mem_ms.median();
  r.metrics["op_ms_tail"] = miss_ms.mean();
  r.metrics["unit_cost_us"] = unit_us.median();
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  r.info["op_samples"] = double(mem_ms.size() + miss_ms.size());
  r.info["serve.disk_hit_ms_p50"] = disk_ms.median();
  r.info["serve.req_ms_p50"] = req_ms.median();
  r.info["serve.req_ms_p90"] = req_ms.tail();
  r.info["serve.miss_ms_p50"] = miss_ms.median();
  r.info["jobs"] = double(job_s.size());
  r.info["serve.throughput_rps"] = 1e6 / unit_us.median();
  r.info["serve.hit_rate"] = double(hits) / double(std::max(1L, answered));
  r.info["serve.spills_per_session"] = double(spills) / double(job_s.size());
}

void traced_run(const Args& a, Result& r) {
  for (const auto& n : per_layer_names()) r.metrics[n] = 0.0;
  const auto stream = session_stream(a.seed, 1);
  const std::size_t budget =
      cache_budget(ensemble::run_scenario(probe_scenario(0)));

  // One session through the socket: the service-level split.
  const Session s = run_session(stream, budget, 1);
  Samples hit_us, miss_ms;
  long hits = 0, answered = 0;
  for (const Reply& rp : s.replies) {
    if (!rp.ok) continue;
    ++answered;
    if (rp.source == "mem" || rp.source == "disk") {
      hit_us.add(rp.latency_s * 1e6);
      ++hits;
    } else if (rp.source == "miss") {
      miss_ms.add(rp.latency_s * 1e3);
    }
  }
  r.attempted += kRequests;
  r.failed += s.lost;
  r.metrics["serve.hit_us_p50"] = hit_us.median();
  r.metrics["serve.hit_us_tail"] = hit_us.tail();
  r.metrics["serve.miss_ms_p50"] = miss_ms.median();
  r.metrics["serve.throughput_rps"] = double(answered) / s.wall_s;
  r.info["serve.hit_rate"] = double(hits) / double(std::max(1L, answered));

  // Exact cache counts: the stream replayed serially through a driver with
  // the session's budget, so the hit/evict/spill sequence is fixed by the
  // stream alone (two concurrent clients make it timing-dependent).
  {
    const std::string spill = local_name("pb-spill", 0);
    std::filesystem::create_directories(spill);
    ensemble::EnsembleConfig ecfg;
    ecfg.cache_bytes = budget;
    ecfg.spill_dir = spill;
    ensemble::EnsembleDriver driver(ecfg);
    long cached = 0;
    for (const auto& cfg : stream) {
      ensemble::Source src = ensemble::Source::kComputed;
      driver.evolve(cfg, &src);
      cached += src == ensemble::Source::kMemory ||
                src == ensemble::Source::kDisk;
    }
    const auto cs = driver.cache().stats();
    r.metrics["ensemble.hit_rate"] = double(cached) / double(stream.size());
    r.metrics["ensemble.evictions"] = double(cs.evictions);
    r.metrics["ensemble.spills"] = double(cs.spills);
    r.metrics["ensemble.disk_hits"] = double(cs.hits_disk);
    std::filesystem::remove_all(spill);
  }

  // Direct replays of the layer calls.
  Tracer tr;
  const int n_run = 3;
  std::vector<std::shared_ptr<const ensemble::Waveform>> wfs;
  for (int i = 0; i < n_run; ++i)
    tr.span("ensemble.run_scenario", [&] {
      wfs.push_back(std::make_shared<const ensemble::Waveform>(
          ensemble::run_scenario(stream[static_cast<std::size_t>(i)])));
    });
  r.metrics["ensemble.run_scenario_ms"] =
      tr.self_s("ensemble.run_scenario") * 1e3 / n_run;

  ensemble::WaveformCache cache(std::size_t{1} << 30);
  const auto key = ensemble::ScenarioKey::of(stream[0]);
  cache.put(key, wfs[0]);
  const int n_get = 2000;
  for (int i = 0; i < n_get; ++i)
    tr.span("ensemble.cache_get", [&] {
      if (!cache.get(key)) throw std::runtime_error("cache lost an entry");
    });
  r.metrics["ensemble.cache_get_us"] =
      tr.self_s("ensemble.cache_get") * 1e6 / n_get;

  {
    ensemble::EnsembleConfig ecfg;
    ecfg.cache_bytes = std::size_t{1} << 30;
    ensemble::EnsembleDriver driver(ecfg);
    driver.evolve(stream[0]);
    for (int i = 0; i < n_get; ++i)
      tr.span("ensemble.submit_hit", [&] {
        auto t = driver.submit(stream[0]);
        t.future.get();
      });
    r.metrics["ensemble.submit_hit_us"] =
        tr.self_s("ensemble.submit_hit") * 1e6 / n_get;
  }

  std::vector<std::string> lines;
  for (const auto& cfg : stream) lines.push_back(serve::format_evolvex(cfg));
  const auto defaults = base_scenario();
  for (int rep = 0; rep < 10; ++rep)
    for (const auto& line : lines)
      tr.span("serve.parse", [&] {
        const auto req = serve::parse_request(line, defaults);
        if (req.kind != serve::Request::Kind::kEvolve)
          throw std::runtime_error("parse_request misread EVOLVEX");
      });
  r.metrics["serve.parse_us"] =
      tr.self_s("serve.parse") * 1e6 / double(tr.calls("serve.parse"));

  {
    const std::string sock = local_name("pb-ping.sock", 0);
    serve::Server server(serve_config(budget, sock, ""));
    server.start();
    serve::Client cl;
    cl.connect(sock);
    const int n_ping = 500;
    for (int i = 0; i < n_ping; ++i)
      tr.span("serve.ping", [&] {
        if (cl.request("PING") != "PONG")
          throw std::runtime_error("PING not answered");
      });
    cl.send_line("QUIT");
    r.metrics["serve.ping_rtt_us"] = tr.self_s("serve.ping") * 1e6 / n_ping;
  }
  r.check(s.lost == 0, "lost or refused responses");
}

}  // namespace

void run_serve_workload(const Args& a, Result& r) {
  exec::ThreadPool::set_global_threads(kLanes);
  const double calib = calib_ms();
  if (a.trace) {
    traced_run(a, r);
    r.metrics["host.calib_ms"] = calib;
  } else {
    untraced_run(a, r);
    r.info["host.calib_ms"] = calib;
  }
}

}  // namespace perfbench
