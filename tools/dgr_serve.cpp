/// \file dgr_serve.cpp
/// \brief The waveform-service daemon: serves the dgr_serve line protocol
/// (src/serve) over a Unix-domain socket, backed by the ensemble driver
/// and the content-addressed waveform cache.
///
/// Configuration precedence: built-in default < DGR_SERVE_* environment <
/// command-line flag. Every numeric knob is strictly parsed
/// (common/parse.hpp) — garbage is a startup error, not a silent zero:
///
///   --socket PATH / DGR_SERVE_SOCKET        socket path
///   --concurrency N / DGR_SERVE_CONCURRENCY evolutions at once, each on every
///                                           lane (default 1)
///   --cache-mb N / DGR_SERVE_CACHE_MB       in-memory cache budget (MiB)
///   --queue-max N / DGR_SERVE_QUEUE_MAX     admission-control bound
///   --spill-dir PATH / DGR_SERVE_SPILL_DIR  on-disk spill directory
///   --threads N                             host pool lanes (else DGR_THREADS)
///   --json PATH                             metrics snapshot on exit
///   --flightrec PATH / DGR_FLIGHTREC_PATH   flight-recorder dump path
///
/// SIGINT/SIGTERM (or a client SHUTDOWN) begin a graceful drain: admitted
/// requests finish, new ones get DRAINING, then the process exits 0 after
/// writing the metrics snapshot.
///
/// Telemetry. The daemon's registry opts into wall-clock timing, so the
/// METRICS verb exposes live latency quantiles by cache outcome. The
/// flight recorder runs always-on (DGR_FLIGHTREC=off disables): a crash
/// (SIGSEGV/SIGABRT), a completed drain, or a client DUMP leaves a
/// Perfetto-loadable flightrec.json of the last moments per thread.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "exec/pool.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;
void on_signal(int) { g_signal = 1; }

const char* arg_value(int argc, char** argv, int& i, const char* flag) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "error: %s requires a value\n", flag);
    std::exit(2);
  }
  return argv[++i];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dgr;

  serve::ServeConfig cfg;
  std::string json_path;
  try {
    // Environment first, flags override.
    if (const char* e = std::getenv("DGR_SERVE_SOCKET")) cfg.socket_path = e;
    if (const char* e = std::getenv("DGR_SERVE_SPILL_DIR"))
      cfg.ensemble.spill_dir = e;
    cfg.ensemble.concurrency = static_cast<int>(
        dgr::env_count("DGR_SERVE_CONCURRENCY", 1, 1, 4096));
    cfg.ensemble.cache_bytes =
        static_cast<std::size_t>(
            dgr::env_count("DGR_SERVE_CACHE_MB", 64, 1, 1 << 20))
        << 20;
    cfg.queue_max = static_cast<int>(
        dgr::env_count("DGR_SERVE_QUEUE_MAX", 64, 1, 1 << 20));

    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--socket") {
        cfg.socket_path = arg_value(argc, argv, i, "--socket");
      } else if (a == "--spill-dir") {
        cfg.ensemble.spill_dir = arg_value(argc, argv, i, "--spill-dir");
      } else if (a == "--concurrency") {
        cfg.ensemble.concurrency = static_cast<int>(dgr::parse_count(
            arg_value(argc, argv, i, "--concurrency"), "--concurrency", 1,
            4096));
      } else if (a == "--cache-mb") {
        cfg.ensemble.cache_bytes =
            static_cast<std::size_t>(dgr::parse_count(
                arg_value(argc, argv, i, "--cache-mb"), "--cache-mb", 1,
                1 << 20))
            << 20;
      } else if (a == "--queue-max") {
        cfg.queue_max = static_cast<int>(
            dgr::parse_count(arg_value(argc, argv, i, "--queue-max"),
                               "--queue-max", 1, 1 << 20));
      } else if (a == "--threads") {
        exec::ThreadPool::set_global_threads(static_cast<int>(
            dgr::parse_count(arg_value(argc, argv, i, "--threads"),
                             "--threads", 1, exec::kMaxThreads)));
      } else if (a == "--json") {
        json_path = arg_value(argc, argv, i, "--json");
      } else if (a == "--flightrec") {
        cfg.flightrec_path = arg_value(argc, argv, i, "--flightrec");
      } else {
        std::fprintf(stderr, "error: unknown flag %s\n", a.c_str());
        return 2;
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  obs::MetricsRegistry metrics;
  // A daemon is a single long-lived run, not a determinism comparison:
  // opt into wall-clock latency histograms for the METRICS exposition.
  metrics.enable_timing(true);
  obs::install_metrics(&metrics);

  // Crash dumps and the post-drain dump share the configured destination.
  cfg.flightrec_on_drain = true;
  obs::flightrec::install_crash_handler(
      cfg.flightrec_path.empty() ? nullptr : cfg.flightrec_path.c_str());

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  try {
    serve::Server server(cfg);
    server.start();
    std::printf("dgr_serve listening on %s (threads=%d concurrency=%d "
                "cache=%zuMiB queue_max=%d spill=%s)\n",
                cfg.socket_path.c_str(), exec::lanes(),
                server.driver().config().concurrency,
                server.driver().config().cache_bytes >> 20, cfg.queue_max,
                cfg.ensemble.spill_dir.empty()
                    ? "off"
                    : cfg.ensemble.spill_dir.c_str());
    std::fflush(stdout);

    // The signal handler only sets a flag; this watcher turns it into a
    // graceful drain on the main thread.
    while (!server.draining()) {
      if (g_signal) server.request_shutdown();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.wait();
    const auto ss = server.stats();
    std::printf("dgr_serve drained: %llu requests, %llu shed, %llu errors\n",
                static_cast<unsigned long long>(ss.requests),
                static_cast<unsigned long long>(ss.shed),
                static_cast<unsigned long long>(ss.errors));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    obs::install_metrics(nullptr);
    return 1;
  }

  obs::install_metrics(nullptr);
  if (!json_path.empty()) {
    if (metrics.write_file(json_path))
      std::printf("dgr_serve wrote metrics to %s\n", json_path.c_str());
    else
      std::fprintf(stderr, "dgr_serve: cannot write %s\n", json_path.c_str());
  }
  return 0;
}
