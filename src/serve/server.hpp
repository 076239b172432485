#pragma once
/// \file server.hpp
/// \brief The waveform-service front-end: a Unix-domain-socket line
/// protocol server (protocol.hpp) over the ensemble driver.
///
/// Architecture. One accept loop (polling, so shutdown is prompt) spawns a
/// handler thread per connection. A handler drains every complete request
/// line already buffered on its socket and submits them to the ensemble
/// driver as one batch before writing any response — pipelined clients get
/// request batching (and in-flight coalescing across the batch) for free;
/// responses are written in request order.
///
/// Admission control. The server tracks admitted-but-unanswered EVOLVE
/// requests; at `queue_max` it sheds load with an explicit `BUSY depth=N`
/// response instead of queueing unboundedly — no request is ever silently
/// dropped. Cache hits resolve immediately, so shedding bites exactly when
/// evolutions back up.
///
/// Graceful drain. SHUTDOWN (or request_shutdown()) stops accepting
/// connections, answers new EVOLVEs with DRAINING, lets every admitted
/// request finish, then wakes wait(). Per-request observability feeds the
/// installed obs::MetricsRegistry: serve.requests / serve.shed /
/// serve.source.* counters, serve.wait_us / serve.batch summaries, and
/// (when the registry opted into wall-clock timing) per-cache-outcome
/// latency histograms serve.latency_us.{miss,join,mem,disk} — the
/// quantiles behind the METRICS Prometheus exposition. After a completed
/// drain the flight recorder is dumped (flightrec_on_drain), so a
/// gracefully stopped daemon leaves its last-moments timeline next to a
/// crashed one's.
///
/// Bounded input. A request line longer than kMaxRequestLineBytes (with or
/// without its newline yet) is answered `ERR line too long`, counted in
/// serve.errors, and the connection is closed, so a client that never
/// sends a newline holds at most that much server memory. Lines are
/// consumed through an offset cursor and each received byte is scanned for
/// a newline once, so a pipelined burst costs linear time.
///
/// Bounded connections. At most kMaxConnections connections are open at
/// once (each holds a handler thread). A connection accepted beyond that
/// is answered `BUSY connections=<n>` and closed at once, counted in
/// Stats::refused and serve.refused.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ensemble/driver.hpp"
#include "serve/protocol.hpp"

namespace dgr::serve {

/// Longest request line the server accepts (an EVOLVEX request with every
/// key is about 270 bytes).
inline constexpr std::size_t kMaxRequestLineBytes = 64 * 1024;

/// Most connections open at once; also the listen() backlog.
inline constexpr int kMaxConnections = 64;

/// Most request lines pulled from one socket read into a single batch.
inline constexpr int kMaxBatch = 64;

struct ServeConfig {
  std::string socket_path = "/tmp/dgr_serve.sock";
  /// Admission bound: max admitted EVOLVEs awaiting a response.
  int queue_max = 64;
  ensemble::EnsembleConfig ensemble;
  /// Defaults applied to EVOLVE requests with omitted fields.
  ensemble::ScenarioConfig defaults;
  /// Flight-recorder dump destination for DUMP and the drain dump; ""
  /// falls back to obs::flightrec::dump_path() (DGR_FLIGHTREC_PATH or
  /// ./flightrec.json).
  std::string flightrec_path;
  /// Dump the flight recorder after a completed graceful drain. Off by
  /// default so embedded servers (tests, benches) don't write files as a
  /// side effect; the dgr_serve daemon turns it on.
  bool flightrec_on_drain = false;
};

class Server {
 public:
  struct Stats {
    std::uint64_t connections = 0;
    std::uint64_t refused = 0;   ///< connections closed with BUSY at accept
    std::uint64_t requests = 0;  ///< EVOLVE requests admitted
    std::uint64_t shed = 0;      ///< EVOLVE requests rejected with BUSY
    std::uint64_t errors = 0;    ///< malformed request lines
    bool drained = false;        ///< graceful drain completed
  };

  explicit Server(ServeConfig cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket and start accepting; throws dgr::Error on failure.
  void start();
  /// Block until a graceful shutdown has fully drained.
  void wait();
  /// Begin graceful drain (idempotent, callable from any thread or from a
  /// signal-watcher).
  void request_shutdown();
  bool draining() const { return draining_.load(); }

  const ServeConfig& config() const { return cfg_; }
  ensemble::EnsembleDriver& driver() { return *driver_; }
  Stats stats() const;

 private:
  void accept_loop();
  void handle_connection(int fd);
  /// Join handler threads whose connections have closed (they enqueue
  /// their id in finished_ as their last act), so a long-lived daemon
  /// serving many short connections doesn't accumulate joinable threads.
  void reap_handlers();
  std::string stats_line();
  /// METRICS response body: refresh the live serve.* gauges in the
  /// installed registry, then its Prometheus exposition + "END".
  std::string metrics_text();
  /// DUMP response: write the flight recorder to `path` (or the config /
  /// global default) and report the destination.
  std::string dump_response(const std::string& path);

  ServeConfig cfg_;
  std::unique_ptr<ensemble::EnsembleDriver> driver_;
  int listen_fd_ = -1;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<int> pending_{0};  ///< admitted EVOLVEs not yet answered
  /// Open connections: raised by the accept loop, lowered by handlers.
  std::atomic<int> open_connections_{0};
  std::thread acceptor_;
  std::mutex conn_m_;
  std::vector<std::thread> handlers_;          ///< guarded by conn_m_
  std::vector<std::thread::id> finished_;      ///< guarded by conn_m_
  mutable std::mutex stats_m_;
  std::condition_variable drained_cv_;
  Stats stats_;
  bool drain_done_ = false;  ///< guarded by stats_m_
};

}  // namespace dgr::serve
