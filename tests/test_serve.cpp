/// \file test_serve.cpp
/// \brief Tests for the waveform-service front-end: strict protocol
/// parsing (the common/parse.hpp parsers behind every knob),
/// bit-exact EVOLVE/EVOLVEX round trips, and the socket server end to end
/// — hit/miss digest equality, request batching, admission-control load
/// shedding with no lost responses, and graceful drain.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/file_io.hpp"
#include "common/json_read.hpp"
#include "common/parse.hpp"
#include "ensemble/scenario.hpp"
#include "obs/obs.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

using namespace dgr;
using namespace dgr::serve;

namespace {

ensemble::ScenarioConfig tiny_scenario() {
  ensemble::ScenarioConfig cfg;
  cfg.base_level = 1;
  cfg.finest_level = 2;
  cfg.domain_half = 8.0;
  cfg.steps = 2;
  cfg.extract_every = 1;
  cfg.extraction_radius = 3.0;
  return cfg;
}

std::string test_socket(const char* tag) {
  return "/tmp/dgr_test_serve_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}


/// Split "OK hash=... source=... ..." into {key: value} (verb under "").
std::map<std::string, std::string> fields(const std::string& line) {
  std::map<std::string, std::string> out;
  std::size_t pos = 0;
  bool first = true;
  while (pos < line.size()) {
    std::size_t sp = line.find(' ', pos);
    if (sp == std::string::npos) sp = line.size();
    const std::string tok = line.substr(pos, sp - pos);
    const auto eq = tok.find('=');
    if (first && eq == std::string::npos) out[""] = tok;
    else if (eq != std::string::npos)
      out[tok.substr(0, eq)] = tok.substr(eq + 1);
    first = false;
    pos = sp + 1;
  }
  return out;
}

}  // namespace

// ------------------------------------------------------- strict parsing

TEST(Protocol, ParseCountAcceptsBoundedIntegers) {
  EXPECT_EQ(parse_count("42", "n", 1, 100), 42);
  EXPECT_EQ(parse_count("1", "n", 1, 100), 1);
  EXPECT_EQ(parse_count("-3", "n", -10, 10), -3);
}

TEST(Protocol, ParseCountRejectsGarbage) {
  EXPECT_THROW(parse_count("", "n", 1, 100), Error);
  EXPECT_THROW(parse_count(nullptr, "n", 1, 100), Error);
  EXPECT_THROW(parse_count("4x", "n", 1, 100), Error);
  EXPECT_THROW(parse_count("x4", "n", 1, 100), Error);
  EXPECT_THROW(parse_count(" 4", "n", 1, 100), Error);
  EXPECT_THROW(parse_count("4.0", "n", 1, 100), Error);
  EXPECT_THROW(parse_count("0", "n", 1, 100), Error);    // below lo
  EXPECT_THROW(parse_count("101", "n", 1, 100), Error);  // above hi
  EXPECT_THROW(parse_count("99999999999999999999", "n", 1, 100), Error);
}

TEST(Protocol, ParseRealRejectsGarbage) {
  EXPECT_EQ(parse_real("0.25", "x"), 0.25);
  EXPECT_EQ(parse_real("-1e-3", "x"), -1e-3);
  EXPECT_THROW(parse_real("", "x"), Error);
  EXPECT_THROW(parse_real("1.5oops", "x"), Error);
  EXPECT_THROW(parse_real("nanx", "x"), Error);
}

TEST(Protocol, EnvCountUnsetVsInvalid) {
  ::unsetenv("DGR_TEST_SERVE_KNOB");
  EXPECT_EQ(env_count("DGR_TEST_SERVE_KNOB", 7, 1, 100), 7);
  ::setenv("DGR_TEST_SERVE_KNOB", "12", 1);
  EXPECT_EQ(env_count("DGR_TEST_SERVE_KNOB", 7, 1, 100), 12);
  ::setenv("DGR_TEST_SERVE_KNOB", "garbage", 1);
  EXPECT_THROW(env_count("DGR_TEST_SERVE_KNOB", 7, 1, 100), Error);
  ::unsetenv("DGR_TEST_SERVE_KNOB");
}

TEST(Protocol, HexRoundTrip) {
  const std::string bytes("\x00\x7f\xff\x10", 4);
  EXPECT_EQ(from_hex(to_hex(bytes)), bytes);
  EXPECT_THROW(from_hex("abc"), Error);   // odd length
  EXPECT_THROW(from_hex("zz"), Error);    // not hex
}

// ------------------------------------------------------ request parsing

TEST(Protocol, EvolveFormatParseRoundTripIsBitExact) {
  ensemble::ScenarioConfig cfg = tiny_scenario();
  cfg.q = 1.0 + 1.0 / 3.0;  // not representable in short decimal... unless
  cfg.eps = 2e-3 + std::numeric_limits<double>::epsilon();
  cfg.spin1[2] = -0.0;
  cfg.spin2[0] = 0.123456789012345678;  // rounds to a specific double

  const Request req = parse_request(format_evolve(cfg), tiny_scenario());
  EXPECT_EQ(req.kind, Request::Kind::kEvolve);
  // jsonu::num emits shortest round-trip decimals; the canonical encodings
  // (bit patterns) must therefore match exactly.
  EXPECT_EQ(ensemble::encode(req.cfg), ensemble::encode(cfg));

  const Request reqx = parse_request(format_evolvex(cfg), tiny_scenario());
  EXPECT_EQ(ensemble::encode(reqx.cfg), ensemble::encode(cfg));
  EXPECT_FALSE(reqx.full);
  EXPECT_TRUE(
      parse_request(format_evolvex(cfg, true), tiny_scenario()).full);
}

TEST(Protocol, EvolveDefaultsApplyToOmittedFields) {
  const ensemble::ScenarioConfig defaults = tiny_scenario();
  const Request req = parse_request("EVOLVE q=2 steps=5", defaults);
  EXPECT_EQ(req.cfg.q, 2.0);
  EXPECT_EQ(req.cfg.steps, 5);
  EXPECT_EQ(req.cfg.base_level, defaults.base_level);
  EXPECT_EQ(req.cfg.extraction_radius, defaults.extraction_radius);
}

TEST(Protocol, ParseRequestRejectsMalformedLines) {
  const ensemble::ScenarioConfig d = tiny_scenario();
  EXPECT_THROW(parse_request("", d), Error);
  EXPECT_THROW(parse_request("FROBNICATE", d), Error);
  EXPECT_THROW(parse_request("PING now", d), Error);
  EXPECT_THROW(parse_request("EVOLVE q", d), Error);
  EXPECT_THROW(parse_request("EVOLVE bogus=1", d), Error);
  EXPECT_THROW(parse_request("EVOLVE q=abc", d), Error);
  EXPECT_THROW(parse_request("EVOLVE steps=0", d), Error);
  EXPECT_THROW(parse_request("EVOLVE base=9", d), Error);
  EXPECT_THROW(parse_request("EVOLVEX nothex", d), Error);
  EXPECT_THROW(parse_request("EVOLVEX ab full=2", d), Error);
}

TEST(Protocol, EvolveRejectsNonFiniteOrNegativeEps) {
  // The regrid tolerance is checked at parse, before admission, rather
  // than by solver::evolve once the job runs. So is every other real
  // field: each of these ran to a 0-step waveform, to t_final = inf, or
  // on NaN data before it was checked.
  const ensemble::ScenarioConfig d = tiny_scenario();
  for (const char* field :
       {"eps=nan", "eps=inf", "eps=-1", "cfl=nan", "cfl=0", "cfl=-0.25",
        "cfl=inf", "half=nan", "half=-16", "ko=nan", "ko=-0.1", "s1x=nan",
        "s2z=1.5", "radius=nan", "radius=0", "radius=8", "q=0.5", "q=inf",
        "sep=0", "sep=nan", "base=2 finest=1"})
    EXPECT_THROW(parse_request(std::string("EVOLVE ") + field, d), Error)
        << field;
  ensemble::ScenarioConfig bad = d;
  bad.eps = -1e-3;
  EXPECT_THROW(parse_request(format_evolvex(bad), d), Error);
  EXPECT_THROW(ensemble::run_scenario(bad), Error);
  EXPECT_EQ(parse_request("EVOLVE eps=0", d).cfg.eps, 0.0);
  EXPECT_NO_THROW(parse_request("EVOLVE ko=0 s1x=0.6 s1y=0.8 radius=7.9", d));
}

TEST(Protocol, EvolvexRejectsOutOfBoundsConfigs) {
  const ensemble::ScenarioConfig defaults = tiny_scenario();
  // A hex config must clear the same admission bounds as EVOLVE fields —
  // steps near INT_MAX passes run_scenario's steps>0 envelope but would
  // tie up the pool for an effectively unbounded evolution.
  ensemble::ScenarioConfig bad = defaults;
  bad.steps = 1 << 30;
  EXPECT_THROW(parse_request(format_evolvex(bad), defaults), Error);
  bad = defaults;
  bad.finest_level = 12;
  EXPECT_THROW(parse_request(format_evolvex(bad), defaults), Error);
  bad = defaults;
  bad.regrid_every = 0;
  EXPECT_THROW(parse_request(format_evolvex(bad), defaults), Error);
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (int k = 0; k < 12; ++k) {
    bad = defaults;
    switch (k) {
      case 0: bad.cfl = nan; break;
      case 1: bad.cfl = 0; break;
      case 2: bad.cfl = -0.25; break;
      case 3: bad.cfl = inf; break;
      case 4: bad.domain_half = nan; break;
      case 5: bad.domain_half = -16; break;
      case 6: bad.ko_sigma = nan; break;
      case 7: bad.spin1[0] = nan; break;
      case 8: bad.extraction_radius = nan; break;
      case 9: bad.q = 0.5; break;
      case 10: bad.separation = 0; break;
      case 11: bad.base_level = 3; break;  // finest 2 < base
    }
    EXPECT_THROW(parse_request(format_evolvex(bad), defaults), Error) << k;
  }
  EXPECT_NO_THROW(parse_request(format_evolvex(defaults), defaults));
}

// --------------------------------------------------------- server e2e

TEST(Server, PingStatsAndHitMissDigestEquality) {
  ServeConfig cfg;
  cfg.socket_path = test_socket("basic");
  cfg.defaults = tiny_scenario();
  cfg.ensemble.concurrency = 2;
  Server server(cfg);
  server.start();

  Client c;
  c.connect(cfg.socket_path);
  EXPECT_EQ(c.request("PING"), "PONG");

  // Miss, then hit: same hash, same digest (bitwise-identical waveform),
  // different source.
  const auto miss = fields(c.request("EVOLVE"));
  ASSERT_EQ(miss.at(""), "OK") << "miss response";
  EXPECT_EQ(miss.at("source"), "miss");
  const auto hit = fields(c.request("EVOLVE"));
  ASSERT_EQ(hit.at(""), "OK") << "hit response";
  EXPECT_EQ(hit.at("source"), "mem");
  EXPECT_EQ(hit.at("hash"), miss.at("hash"));
  EXPECT_EQ(hit.at("digest"), miss.at("digest"))
      << "cache hit must be bitwise identical to the recompute";
  EXPECT_GT(std::stoul(miss.at("samples")), 0u);

  // The digest over the wire matches a local recompute of the same config.
  const ensemble::Waveform local = ensemble::run_scenario(cfg.defaults);
  const std::uint64_t local_digest =
      ensemble::fnv1a64(ensemble::serialize(local));
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(local_digest));
  EXPECT_EQ(miss.at("digest"), hex);

  const auto stats = fields(c.request("STATS"));
  EXPECT_EQ(stats.at(""), "STATS");
  EXPECT_EQ(stats.at("requests"), "2");
  EXPECT_EQ(stats.at("evolutions"), "1");
  EXPECT_EQ(stats.at("hits_mem"), "1");

  // Malformed lines get ERR, and the connection survives.
  EXPECT_EQ(c.request("NONSENSE").substr(0, 3), "ERR");
  EXPECT_EQ(c.request("PING"), "PONG");

  server.request_shutdown();
  server.wait();
  EXPECT_TRUE(server.stats().drained);
}

TEST(Server, FullResponseStreamsBitExactSamples) {
  ServeConfig cfg;
  cfg.socket_path = test_socket("full");
  cfg.defaults = tiny_scenario();
  Server server(cfg);
  server.start();

  Client c;
  c.connect(cfg.socket_path);
  const auto ok = fields(c.request("EVOLVE full=1"));
  ASSERT_EQ(ok.at(""), "OK");
  const auto header = fields(c.recv_line());
  ASSERT_EQ(header.at(""), "SAMPLES");

  const ensemble::Waveform local = ensemble::run_scenario(cfg.defaults);
  const std::size_t n = local.psi4_22.times.size();
  ASSERT_EQ(std::stoul(ok.at("samples")), n);

  for (std::size_t i = 0; i < n; ++i) {
    const std::string line = c.recv_line();
    char want[64];
    std::snprintf(
        want, sizeof(want), "%016llx %016llx %016llx",
        static_cast<unsigned long long>(
            std::bit_cast<std::uint64_t>(local.psi4_22.times[i])),
        static_cast<unsigned long long>(
            std::bit_cast<std::uint64_t>(local.psi4_22.values[i].real())),
        static_cast<unsigned long long>(
            std::bit_cast<std::uint64_t>(local.psi4_22.values[i].imag())));
    EXPECT_EQ(line, want) << "sample " << i << " not bit-exact";
  }
  EXPECT_EQ(c.recv_line(), "END");

  server.request_shutdown();
  server.wait();
}

TEST(Server, BatchedPipelinedRequestsAnswerInOrder) {
  ServeConfig cfg;
  cfg.socket_path = test_socket("batch");
  cfg.defaults = tiny_scenario();
  Server server(cfg);
  server.start();

  Client c;
  c.connect(cfg.socket_path);
  // One write carrying several requests: the handler batches them, and the
  // duplicate EVOLVEs coalesce or hit — exactly one evolution runs.
  c.send_line("PING\nEVOLVE\nEVOLVE\nPING");
  EXPECT_EQ(c.recv_line(), "PONG");
  const auto r1 = fields(c.recv_line());
  const auto r2 = fields(c.recv_line());
  EXPECT_EQ(c.recv_line(), "PONG");
  ASSERT_EQ(r1.at(""), "OK");
  ASSERT_EQ(r2.at(""), "OK");
  EXPECT_EQ(r1.at("digest"), r2.at("digest"));

  const auto stats = fields(c.request("STATS"));
  EXPECT_EQ(stats.at("evolutions"), "1")
      << "duplicate EVOLVEs in one batch must not recompute";

  server.request_shutdown();
  server.wait();
}

TEST(Server, BurstLargerThanMaxBatchIsFullyAnswered) {
  ServeConfig cfg;
  cfg.socket_path = test_socket("burst");
  cfg.defaults = tiny_scenario();
  Server server(cfg);
  server.start();

  Client c;
  c.connect(cfg.socket_path);
  // One write carrying more than two batches of lines, then wait for every
  // response: the handler must keep draining its buffer between batches
  // instead of blocking in recv() on a client that is itself waiting.
  constexpr int kPings = 2 * kMaxBatch + 3;
  std::string burst;
  for (int i = 0; i < kPings; ++i) burst += "PING\n";
  c.send_line(burst + "EVOLVE");
  for (int i = 0; i < kPings; ++i)
    EXPECT_EQ(c.recv_line(), "PONG") << "response " << i;
  EXPECT_EQ(fields(c.recv_line()).at(""), "OK");

  server.request_shutdown();
  server.wait();
}

TEST(Server, OverlongRequestLineIsRejectedAndClosed) {
  ServeConfig cfg;
  cfg.socket_path = test_socket("overlong");
  cfg.defaults = tiny_scenario();
  Server server(cfg);
  server.start();

  // A raw client streams 1 MiB that never contains a newline.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                cfg.socket_path.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const timeval timeout{10, 0};  // a server that keeps reading fails here
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  static_assert(kMaxRequestLineBytes < (1u << 20));
  const std::string junk(std::size_t(1) << 20, 'x');
  std::size_t sent = 0;
  while (sent < junk.size()) {
    const ssize_t n = ::send(fd, junk.data() + sent, junk.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;  // the server has closed the connection
    sent += static_cast<std::size_t>(n);
  }
  // The error line, then end of stream. Closing with the client's bytes
  // unread makes a Unix socket report ECONNRESET after the queued reply
  // instead of a plain EOF; both mean the server hung up.
  std::string reply;
  char buf[256];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    reply.append(buf, static_cast<std::size_t>(n));
  EXPECT_TRUE(n == 0 || errno == ECONNRESET) << std::strerror(errno);
  ::close(fd);
  EXPECT_EQ(reply, "ERR line too long\n");
  EXPECT_EQ(server.stats().errors, 1u);

  // Other connections are unaffected.
  Client c;
  c.connect(cfg.socket_path);
  EXPECT_EQ(c.request("PING"), "PONG");

  server.request_shutdown();
  server.wait();
}

TEST(Server, LoadSheddingLosesNoResponses) {
  ServeConfig cfg;
  cfg.socket_path = test_socket("shed");
  cfg.defaults = tiny_scenario();
  cfg.queue_max = 2;  // tiny admission window: shedding must kick in
  cfg.ensemble.concurrency = 1;
  Server server(cfg);
  server.start();

  constexpr int kClients = 6;
  constexpr int kPerClient = 4;
  std::atomic<int> ok{0}, busy{0}, other{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Client c;
      c.connect(cfg.socket_path);
      for (int i = 0; i < kPerClient; ++i) {
        // Unique config per request: all misses, so evolutions back up
        // against the admission window.
        ensemble::ScenarioConfig s = cfg.defaults;
        s.steps = 2 + (t * kPerClient + i) % 7;
        const std::string resp = c.request(format_evolvex(s));
        if (resp.rfind("OK ", 0) == 0) ok.fetch_add(1);
        else if (resp.rfind("BUSY ", 0) == 0) busy.fetch_add(1);
        else other.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();

  // Every request got exactly one explicit response: admitted or shed,
  // never dropped.
  EXPECT_EQ(ok.load() + busy.load(), kClients * kPerClient);
  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(ok.load(), 0);

  const auto ss = server.stats();
  EXPECT_EQ(ss.requests, static_cast<std::uint64_t>(ok.load()));
  EXPECT_EQ(ss.shed, static_cast<std::uint64_t>(busy.load()));

  server.request_shutdown();
  server.wait();
  EXPECT_TRUE(server.stats().drained);
}

TEST(Server, ConnectionsBeyondTheCapAreRefusedWithBusy) {
  ServeConfig cfg;
  cfg.socket_path = test_socket("conncap");
  cfg.defaults = tiny_scenario();
  Server server(cfg);
  server.start();

  std::vector<std::unique_ptr<Client>> idle;
  for (int i = 0; i < kMaxConnections; ++i) {
    idle.push_back(std::make_unique<Client>());
    idle.back()->connect(cfg.socket_path);
  }
  // One past the cap: an explicit BUSY, then end of stream.
  Client over;
  over.connect(cfg.socket_path);
  EXPECT_EQ(over.recv_line(),
            "BUSY connections=" + std::to_string(kMaxConnections));
  try {
    over.recv_line();
    ADD_FAILURE() << "expected end of stream";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("closed by server"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(server.stats().refused, 1u);
  EXPECT_EQ(server.stats().connections,
            static_cast<std::uint64_t>(kMaxConnections));

  // Closing one idle connection frees its slot once its handler sees EOF.
  idle.back()->close();
  idle.pop_back();
  std::string reply;
  for (int attempt = 0; attempt < 500 && reply != "PONG"; ++attempt) {
    Client c;
    c.connect(cfg.socket_path);
    try {
      reply = c.request("PING");
    } catch (const Error&) {
      reply.clear();  // refused before the PING went out
    }
    if (reply != "PONG")
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(reply, "PONG");
  // The held connections were never disturbed.
  EXPECT_EQ(idle.front()->request("PING"), "PONG");

  idle.clear();
  server.request_shutdown();
  server.wait();
}

TEST(Protocol, ParseMetricsAndDumpVerbs) {
  const ensemble::ScenarioConfig d = tiny_scenario();
  EXPECT_EQ(parse_request("METRICS", d).kind, Request::Kind::kMetrics);
  EXPECT_THROW(parse_request("METRICS now", d), Error);

  const Request bare = parse_request("DUMP", d);
  EXPECT_EQ(bare.kind, Request::Kind::kDump);
  EXPECT_TRUE(bare.dump_path.empty());
  const Request with_path = parse_request("DUMP /tmp/fr.json", d);
  EXPECT_EQ(with_path.kind, Request::Kind::kDump);
  EXPECT_EQ(with_path.dump_path, "/tmp/fr.json");
  EXPECT_THROW(parse_request("DUMP a b", d), Error);
}

TEST(Server, GracefulDrainRefusesNewWork) {
  ServeConfig cfg;
  cfg.socket_path = test_socket("drain");
  cfg.defaults = tiny_scenario();
  Server server(cfg);
  server.start();

  Client c;
  c.connect(cfg.socket_path);
  EXPECT_EQ(c.request("SHUTDOWN"), "OK draining");
  // The same (already-open) connection gets explicit DRAINING rejects.
  EXPECT_EQ(c.request("EVOLVE"), "DRAINING");
  server.wait();
  EXPECT_TRUE(server.stats().drained);
  EXPECT_TRUE(server.draining());
}

// ----------------------------------------------------------- telemetry

TEST(Server, StatsReportsHitRateInflightAndQueueDepth) {
  ServeConfig cfg;
  cfg.socket_path = test_socket("telemetry_stats");
  cfg.defaults = tiny_scenario();
  Server server(cfg);
  server.start();

  Client c;
  c.connect(cfg.socket_path);
  ASSERT_EQ(fields(c.request("EVOLVE")).at(""), "OK");  // miss
  ASSERT_EQ(fields(c.request("EVOLVE")).at("source"), "mem");  // hit

  const auto stats = fields(c.request("STATS"));
  ASSERT_EQ(stats.at(""), "STATS");
  // 1 hit of 2 answered requests; no work in flight once both answered.
  EXPECT_EQ(stats.at("hit_rate"), "0.5");
  EXPECT_EQ(stats.at("inflight"), "0");
  EXPECT_EQ(stats.at("queue_depth"), "0");

  server.request_shutdown();
  server.wait();
}

TEST(Server, MetricsVerbServesPrometheusTextFromLiveRegistry) {
  obs::MetricsRegistry reg;
  reg.enable_timing(true);  // a daemon-style registry: wall-clock quantiles
  obs::install_metrics(&reg);

  ServeConfig cfg;
  cfg.socket_path = test_socket("telemetry_prom");
  cfg.defaults = tiny_scenario();
  Server server(cfg);
  server.start();

  Client c;
  c.connect(cfg.socket_path);
  ASSERT_EQ(fields(c.request("EVOLVE")).at(""), "OK");
  ASSERT_EQ(fields(c.request("EVOLVE")).at("source"), "mem");

  c.send_line("METRICS");
  std::string text;
  for (std::string line = c.recv_line(); line != "END";
       line = c.recv_line()) {
    text += line;
    text += "\n";
  }
  // Latency histograms by cache outcome, with quantile labels.
  EXPECT_NE(text.find("# TYPE dgr_serve_latency_us_miss summary"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dgr_serve_latency_us_miss{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("dgr_serve_latency_us_mem{quantile=\"0.99\"}"),
            std::string::npos);
  // Live service gauges refreshed at exposition time.
  EXPECT_NE(text.find("dgr_serve_hit_rate 0.5"), std::string::npos);
  EXPECT_NE(text.find("dgr_serve_queue_depth 0"), std::string::npos);
  EXPECT_NE(text.find("dgr_serve_inflight 0"), std::string::npos);

  // The connection survives the multi-line response.
  EXPECT_EQ(c.request("PING"), "PONG");

  server.request_shutdown();
  server.wait();
  obs::install_metrics(nullptr);
  // The wall-clock wait is a timing summary: this registry has timing on.
  const auto wait = reg.summary("serve.wait_us");
  ASSERT_TRUE(wait.has_value());
  EXPECT_EQ(wait->count, 2u);
}

TEST(Server, RegistryWithTimingOffRecordsNoWaitTime) {
  // A registry with timing off keeps only deterministic rows: no wall-clock
  // summary of the served EVOLVE may reach it.
  obs::MetricsRegistry reg;
  obs::install_metrics(&reg);
  ServeConfig cfg;
  cfg.socket_path = test_socket("telemetry_untimed");
  cfg.defaults = tiny_scenario();
  Server server(cfg);
  server.start();
  Client c;
  c.connect(cfg.socket_path);
  ASSERT_EQ(fields(c.request("EVOLVE")).at(""), "OK");
  server.request_shutdown();
  server.wait();
  obs::install_metrics(nullptr);
  EXPECT_GT(reg.counter("serve.requests"), 0u);
  EXPECT_FALSE(reg.summary("serve.wait_us").has_value());
}

TEST(Server, MetricsVerbWithoutRegistryIsJustEnd) {
  ASSERT_EQ(obs::metrics(), nullptr);
  ServeConfig cfg;
  cfg.socket_path = test_socket("telemetry_noreg");
  cfg.defaults = tiny_scenario();
  Server server(cfg);
  server.start();

  Client c;
  c.connect(cfg.socket_path);
  EXPECT_EQ(c.request("METRICS"), "END");
  EXPECT_EQ(c.request("PING"), "PONG");

  server.request_shutdown();
  server.wait();
}

TEST(Server, DumpWritesPerfettoLoadableFlightRecording) {
  obs::flightrec::reset();
  obs::flightrec::set_enabled(true);

  ServeConfig cfg;
  cfg.socket_path = test_socket("telemetry_dump");
  cfg.defaults = tiny_scenario();
  Server server(cfg);
  server.start();

  Client c;
  c.connect(cfg.socket_path);
  ASSERT_EQ(fields(c.request("EVOLVE")).at(""), "OK");
  obs::flightrec::record_span("test.marker", "test", 1.0, 0.5);

  const std::string path = testing::TempDir() + "dgr_serve_flightrec_" +
                           std::to_string(::getpid()) + ".json";
  const auto resp = fields(c.request("DUMP " + path));
  ASSERT_EQ(resp.at(""), "OK") << "DUMP response";
  EXPECT_EQ(resp.at("flightrec"), path);

  std::string err;
  const auto doc = jsonu::parse(read_file(path, 1 << 26), &err);
  ASSERT_TRUE(doc.has_value()) << "flightrec dump must parse: " << err;
  const jsonu::JValue* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_arr());
  EXPECT_FALSE(events->arr.empty());
  EXPECT_EQ(doc->get_str("displayTimeUnit"), "ms");
  bool saw_marker = false;
  for (const jsonu::JValue& e : events->arr)
    if (e.get_str("name") == "test.marker") saw_marker = true;
  EXPECT_TRUE(saw_marker) << "span recorded before DUMP must appear";
  std::remove(path.c_str());

  // An unwritable destination is an explicit ERR, not a broken connection.
  EXPECT_EQ(c.request("DUMP /nonexistent-dir/fr.json").substr(0, 3), "ERR");
  EXPECT_EQ(c.request("PING"), "PONG");

  server.request_shutdown();
  server.wait();
}
