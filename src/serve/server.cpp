#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/obs.hpp"

namespace dgr::serve {

namespace {

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // peer went away; nothing useful left to do
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

Server::Server(ServeConfig cfg) : cfg_(std::move(cfg)) {
  driver_ = std::make_unique<ensemble::EnsembleDriver>(cfg_.ensemble);
}

Server::~Server() {
  request_shutdown();
  if (acceptor_.joinable()) wait();
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::unlink(cfg_.socket_path.c_str());
}

void Server::start() {
  DGR_CHECK_MSG(listen_fd_ < 0, "server already started");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  DGR_CHECK_MSG(listen_fd_ >= 0, "socket(): " << std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  DGR_CHECK_MSG(cfg_.socket_path.size() < sizeof(addr.sun_path),
                "socket path too long: " << cfg_.socket_path);
  std::strncpy(addr.sun_path, cfg_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(cfg_.socket_path.c_str());  // stale socket from a previous run
  DGR_CHECK_MSG(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0,
                "bind(" << cfg_.socket_path << "): " << std::strerror(errno));
  DGR_CHECK_MSG(::listen(listen_fd_, kMaxConnections) == 0,
                "listen(): " << std::strerror(errno));
  acceptor_ = std::thread([this] { accept_loop(); });
}

void Server::request_shutdown() { draining_.store(true); }

void Server::wait() {
  std::unique_lock<std::mutex> lk(stats_m_);
  drained_cv_.wait(lk, [&] { return drain_done_; });
}

void Server::reap_handlers() {
  // Joining happens outside conn_m_ so a handler finishing right now can
  // still take the lock to enqueue its id; anything in finished_ has
  // already done so and is past its last statement.
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lk(conn_m_);
    if (finished_.empty()) return;
    for (const std::thread::id id : finished_) {
      for (auto it = handlers_.begin(); it != handlers_.end(); ++it) {
        if (it->get_id() == id) {
          done.push_back(std::move(*it));
          handlers_.erase(it);
          break;
        }
      }
    }
    finished_.clear();
  }
  for (std::thread& t : done) t.join();
}

void Server::accept_loop() {
  while (!draining_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 100);
    reap_handlers();
    if (r <= 0) continue;  // timeout or EINTR: re-check draining_
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Only this loop raises the count, so the cap is exact.
    const int open = open_connections_.load();
    if (open >= kMaxConnections) {
      {
        std::lock_guard<std::mutex> lk(stats_m_);
        ++stats_.refused;
      }
      obs::count("serve.refused");
      send_all(fd, "BUSY connections=" + std::to_string(open) + "\n");
      ::close(fd);
      continue;
    }
    open_connections_.fetch_add(1);
    // A receive timeout keeps handlers responsive to drain even when the
    // client holds the connection open without sending.
    timeval tv{0, 200 * 1000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    {
      std::lock_guard<std::mutex> lk(stats_m_);
      ++stats_.connections;
    }
    obs::count("serve.connections");
    std::lock_guard<std::mutex> lk(conn_m_);
    handlers_.emplace_back([this, fd] { handle_connection(fd); });
  }
  // Drain: no new connections; every admitted request finishes; handler
  // threads exit once their clients disconnect or go idle.
  driver_->drain();
  {
    // Join outside conn_m_: a handler exiting right now needs the lock to
    // enqueue its id in finished_.
    std::vector<std::thread> rest;
    {
      std::lock_guard<std::mutex> lk(conn_m_);
      rest.swap(handlers_);
    }
    for (std::thread& t : rest) t.join();
    std::lock_guard<std::mutex> lk(conn_m_);
    finished_.clear();
  }
  stopped_.store(true);
  obs::gauge_set("serve.drained", 1.0);
  // A gracefully drained daemon leaves the same last-moments timeline a
  // crashed one would (dump() no-ops when disabled or nothing recorded).
  if (cfg_.flightrec_on_drain) obs::flightrec::dump(cfg_.flightrec_path);
  // Last: wait() may return as soon as drain_done_ is set, and its caller
  // may then swap the metrics registry.
  {
    std::lock_guard<std::mutex> lk(stats_m_);
    stats_.drained = true;
    drain_done_ = true;
  }
  drained_cv_.notify_all();
}

std::string Server::stats_line() {
  const auto ds = driver_->stats();
  const auto cs = driver_->cache().stats();
  Stats ss;
  {
    std::lock_guard<std::mutex> lk(stats_m_);
    ss = stats_;
  }
  std::string s = "STATS";
  s += " requests=" + std::to_string(ss.requests);
  s += " shed=" + std::to_string(ss.shed);
  s += " errors=" + std::to_string(ss.errors);
  s += " connections=" + std::to_string(ss.connections);
  s += " refused=" + std::to_string(ss.refused);
  s += " pending=" + std::to_string(pending_.load());
  s += " evolutions=" + std::to_string(ds.evolutions);
  s += " coalesced=" + std::to_string(ds.coalesced);
  s += " hits_mem=" + std::to_string(cs.hits_memory);
  s += " hits_disk=" + std::to_string(cs.hits_disk);
  s += " misses=" + std::to_string(cs.misses);
  s += " evictions=" + std::to_string(cs.evictions);
  s += " spills=" + std::to_string(cs.spills);
  s += " cache_bytes=" + std::to_string(cs.bytes);
  // Deduplication rate over admitted EVOLVEs: cache hits (mem + disk) and
  // coalesced joins all avoided an evolution.
  const std::uint64_t hits = cs.hits_memory + cs.hits_disk + ds.coalesced;
  s += " hit_rate=" +
       jsonu::num(ss.requests ? double(hits) / double(ss.requests) : 0.0);
  s += " inflight=" + std::to_string(pending_.load());
  s += " queue_depth=" + std::to_string(driver_->queue_depth());
  s += " draining=" + std::to_string(draining_.load() ? 1 : 0);
  return s;
}

std::string Server::metrics_text() {
  obs::MetricsRegistry* reg = obs::metrics();
  if (!reg) return "END";
  // Point-in-time gauges ride along with the accumulated counters and
  // latency histograms, so one METRICS scrape answers "how loaded is it
  // right now" as well as "how has it been behaving".
  const auto ds = driver_->stats();
  const auto cs = driver_->cache().stats();
  const std::uint64_t hits = cs.hits_memory + cs.hits_disk + ds.coalesced;
  std::uint64_t requests;
  {
    std::lock_guard<std::mutex> lk(stats_m_);
    requests = stats_.requests;
  }
  reg->set("serve.hit_rate",
           requests ? double(hits) / double(requests) : 0.0);
  reg->set("serve.inflight", double(pending_.load()));
  reg->set("serve.queue_depth", double(driver_->queue_depth()));
  return reg->prometheus() + "END";
}

std::string Server::dump_response(const std::string& path) {
  std::string dest = path.empty() ? cfg_.flightrec_path : path;
  if (dest.empty()) dest = obs::flightrec::dump_path();
  if (!obs::flightrec::dump(dest))
    return "ERR flightrec dump failed (disabled, empty, or unwritable)";
  return "OK flightrec=" + dest;
}

void Server::handle_connection(int fd) {
  // One queued response per request line, written strictly in request
  // order after the whole batch has been submitted to the driver.
  struct Pending {
    bool is_ticket = false;
    std::string text;  // immediate responses (PONG, STATS, BUSY, ERR, ...)
    ensemble::EnsembleDriver::Ticket ticket;
    bool full = false;
    double t_submit_us = 0;
  };

  const auto count_error = [this] {
    {
      std::lock_guard<std::mutex> lk(stats_m_);
      ++stats_.errors;
    }
    obs::count("serve.errors");
  };

  // buf[head, size) is unconsumed input; buf[head, scan) holds no newline.
  std::string buf;
  std::size_t head = 0, scan = 0;
  bool open = true;
  while (open && !stopped_.load()) {
    // Only read from the socket while no complete line is buffered: a
    // pipelined burst larger than kMaxBatch is answered batch by batch
    // from buf without ever blocking in recv() on a client that is
    // waiting for those very responses.
    std::size_t nl;
    bool overlong = false;
    while ((nl = buf.find('\n', scan)) == std::string::npos) {
      scan = buf.size();
      if (scan - head > kMaxRequestLineBytes) {
        overlong = true;
        break;
      }
      buf.erase(0, head);  // consumed lines leave once per refill
      scan -= head;
      head = 0;
      char chunk[8192];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (draining_.load() || stopped_.load()) {
          open = false;  // idle client during drain: close
          break;
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {  // EOF or hard error
        open = false;
        break;
      }
      buf.append(chunk, static_cast<std::size_t>(n));
    }
    if (!open) break;

    // Batch: up to kMaxBatch complete lines from buf; the remainder is
    // processed on the next iteration before any further recv().
    std::vector<std::string> lines;
    while (!overlong && nl != std::string::npos &&
           static_cast<int>(lines.size()) < kMaxBatch) {
      if (nl - head > kMaxRequestLineBytes) {
        overlong = true;
        break;
      }
      lines.emplace_back(buf, head, nl - head);
      head = nl + 1;
      nl = buf.find('\n', head);
    }
    scan = nl == std::string::npos ? buf.size() : nl;

    std::vector<Pending> batch;
    batch.reserve(lines.size());
    int evolves_submitted = 0;
    for (const std::string& line : lines) {
      Pending p;
      Request req;
      try {
        req = parse_request(line, cfg_.defaults);
      } catch (const Error& e) {
        p.text = std::string("ERR ") + e.what();
        count_error();
        batch.push_back(std::move(p));
        continue;
      }
      switch (req.kind) {
        case Request::Kind::kPing:
          p.text = "PONG";
          break;
        case Request::Kind::kStats:
          p.text = stats_line();
          break;
        case Request::Kind::kMetrics:
          p.text = metrics_text();
          break;
        case Request::Kind::kDump:
          p.text = dump_response(req.dump_path);
          break;
        case Request::Kind::kQuit:
          open = false;
          break;
        case Request::Kind::kShutdown:
          p.text = "OK draining";
          request_shutdown();
          break;
        case Request::Kind::kEvolve: {
          if (draining_.load()) {
            p.text = "DRAINING";
            break;
          }
          // Admission control: shed with an explicit reject once the
          // unanswered-request window is full. fetch_add + re-check keeps
          // the bound exact under concurrent handlers.
          const int depth = pending_.fetch_add(1);
          if (depth >= cfg_.queue_max) {
            pending_.fetch_sub(1);
            p.text = "BUSY depth=" + std::to_string(depth);
            {
              std::lock_guard<std::mutex> lk(stats_m_);
              ++stats_.shed;
            }
            obs::count("serve.shed");
            break;
          }
          {
            std::lock_guard<std::mutex> lk(stats_m_);
            ++stats_.requests;
          }
          obs::count("serve.requests");
          p.is_ticket = true;
          p.full = req.full;
          p.t_submit_us = monotonic_us();
          p.ticket = driver_->submit(req.cfg);
          obs::count((std::string("serve.source.") +
                      ensemble::source_name(p.ticket.source))
                         .c_str());
          ++evolves_submitted;
          break;
        }
      }
      if (!open) break;
      batch.push_back(std::move(p));
    }
    if (overlong && open) {
      // Answered after the lines before it, then the connection closes.
      Pending p;
      p.text = "ERR line too long";
      count_error();
      batch.push_back(std::move(p));
      open = false;
    }
    if (evolves_submitted > 0) obs::observe("serve.batch", evolves_submitted);

    std::string out;
    for (Pending& p : batch) {
      if (!p.is_ticket) {
        if (!p.text.empty()) out += p.text + "\n";
        continue;
      }
      std::string resp;
      try {
        const auto wf = p.ticket.future.get();
        const double wait_us = monotonic_us() - p.t_submit_us;
        obs::observe_timing("serve.wait_us", wait_us);
        // Latency quantiles split by cache outcome (the METRICS view of
        // the service's cache effectiveness). Literal names: the flight
        // recorder and registry keep the pointers/strings they're given.
        switch (p.ticket.source) {
          case ensemble::Source::kComputed:
            obs::observe_hist_timing("serve.latency_us.miss", wait_us);
            break;
          case ensemble::Source::kCoalesced:
            obs::observe_hist_timing("serve.latency_us.join", wait_us);
            break;
          case ensemble::Source::kMemory:
            obs::observe_hist_timing("serve.latency_us.mem", wait_us);
            break;
          case ensemble::Source::kDisk:
            obs::observe_hist_timing("serve.latency_us.disk", wait_us);
            break;
        }
        const std::string blob = ensemble::serialize(*wf);
        resp = "OK hash=" + ensemble::hex16(p.ticket.hash) +
               " source=" + ensemble::source_name(p.ticket.source) +
               " wait_us=" + jsonu::num(wait_us) +
               " samples=" + std::to_string(wf->psi4_22.times.size()) +
               " digest=" + ensemble::hex16(ensemble::fnv1a64(blob));
        if (p.full) {
          resp += "\nSAMPLES " + std::to_string(wf->psi4_22.times.size());
          // Bit patterns in hex: the textual stream is bitwise-faithful.
          const auto bits = [](Real x) {
            return ensemble::hex16(std::bit_cast<std::uint64_t>(x));
          };
          for (std::size_t i = 0; i < wf->psi4_22.times.size(); ++i)
            resp += "\n" + bits(wf->psi4_22.times[i]) + " " +
                    bits(wf->psi4_22.values[i].real()) + " " +
                    bits(wf->psi4_22.values[i].imag());
          resp += "\nEND";
        }
      } catch (const std::exception& e) {
        resp = std::string("ERR evolve failed: ") + e.what();
        count_error();
      }
      pending_.fetch_sub(1);
      out += resp + "\n";
    }
    if (!out.empty()) send_all(fd, out);
  }
  ::close(fd);
  open_connections_.fetch_sub(1);
  std::lock_guard<std::mutex> lk(conn_m_);
  finished_.push_back(std::this_thread::get_id());
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> lk(stats_m_);
  return stats_;
}

}  // namespace dgr::serve
