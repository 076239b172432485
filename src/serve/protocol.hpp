#pragma once
/// \file protocol.hpp
/// \brief The dgr_serve line protocol and its strict parsers. One request
/// per newline-terminated line, one (or, with full=1, several) response
/// lines per request:
///
///   PING                      -> PONG
///   STATS                     -> STATS key=value ...
///   METRICS                   -> Prometheus-style text exposition of the
///                                live registry (latency quantiles by
///                                cache outcome, hit rate, queue depth,
///                                in-flight count), terminated by END
///   DUMP [path]               -> OK flightrec=<path>; writes the flight
///                                recorder's ring buffers as Perfetto-
///                                loadable JSON (ERR when disabled/empty)
///   EVOLVE k=v ...            -> OK hash=<16hex> source=miss|join|mem|disk
///                                wait_us=<n> samples=<n> digest=<16hex>
///   EVOLVEX <hex>             -> same, config given as the hex canonical
///                                encoding (exact bit round trip)
///   SHUTDOWN                  -> OK draining   (graceful drain begins)
///   QUIT                      -> connection closed
///
/// Overload responses: BUSY depth=<n> (admission control shed), BUSY
/// connections=<n> (connection cap; sent on accept, then the connection
/// closes) and DRAINING (server is shutting down). Malformed input gets
/// ERR <msg>.
///
/// EVOLVE fields (all optional, server defaults apply): q, sep, s1x s1y
/// s1z, s2x s2y s2z, half, base, finest, eps, steps, regrid, extract,
/// radius, cfl, ko, full. Doubles are parsed with std::from_chars over the
/// full token — shortest round-trip decimals (jsonu::num) reproduce the
/// exact bits; EVOLVEX skips text entirely. Integers and every
/// DGR_SERVE_* environment knob go through the strict dgr::parse_count /
/// parse_real / env_count parsers of common/parse.hpp — garbage never
/// silently becomes zero.

#include <cstdint>
#include <string>

#include "ensemble/scenario.hpp"

namespace dgr::serve {

struct Request {
  enum class Kind { kPing, kStats, kMetrics, kDump, kEvolve, kShutdown,
                    kQuit };
  Kind kind = Kind::kPing;
  ensemble::ScenarioConfig cfg;  ///< kEvolve only
  bool full = false;             ///< stream waveform samples after OK
  std::string dump_path;         ///< kDump only; "" = server default
};

/// Parse one request line against the server's default scenario; throws
/// dgr::Error with a client-presentable message on malformed input.
/// EVOLVE/EVOLVEX configs are checked with ensemble::validate_scenario()
/// at parse, before admission — a hex-encoded config cannot smuggle in an
/// unbounded or empty evolution that admission control could never shed.
Request parse_request(const std::string& line,
                      const ensemble::ScenarioConfig& defaults);

/// Client-side formatter for an EVOLVE line: every double emitted with
/// jsonu::num (shortest round trip), so parse_request reproduces `cfg`
/// bit-for-bit.
std::string format_evolve(const ensemble::ScenarioConfig& cfg,
                          bool full = false);

/// Client-side formatter for EVOLVEX (dgr::to_hex of the canonical encoding).
std::string format_evolvex(const ensemble::ScenarioConfig& cfg,
                           bool full = false);

/// A minimal blocking line-protocol client over a Unix-domain socket, used
/// by the load generator, the tests, and scripting. Not thread-safe; one
/// per client thread.
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to the server socket; throws dgr::Error on failure.
  void connect(const std::string& socket_path);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Send one line (newline appended); throws on I/O failure.
  void send_line(const std::string& line);
  /// Receive one line (without the newline); throws on EOF / I/O failure.
  std::string recv_line();
  /// send_line + recv_line.
  std::string request(const std::string& line);

 private:
  int fd_ = -1;
  std::string buf_;
};

}  // namespace dgr::serve
