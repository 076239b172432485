#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/parse.hpp"

namespace dgr::serve {

namespace {

std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

void apply_field(ensemble::ScenarioConfig& cfg, bool& full,
                 const std::string& key, const std::string& val) {
  const char* v = val.c_str();
  const std::string what = "EVOLVE field '" + key + "'";
  const char* w = what.c_str();
  if (key == "q") cfg.q = parse_real(v, w);
  else if (key == "sep") cfg.separation = parse_real(v, w);
  else if (key == "s1x") cfg.spin1[0] = parse_real(v, w);
  else if (key == "s1y") cfg.spin1[1] = parse_real(v, w);
  else if (key == "s1z") cfg.spin1[2] = parse_real(v, w);
  else if (key == "s2x") cfg.spin2[0] = parse_real(v, w);
  else if (key == "s2y") cfg.spin2[1] = parse_real(v, w);
  else if (key == "s2z") cfg.spin2[2] = parse_real(v, w);
  else if (key == "half") cfg.domain_half = parse_real(v, w);
  else if (key == "base") cfg.base_level = int(parse_count(v, w, 1, 8));
  else if (key == "finest") cfg.finest_level = int(parse_count(v, w, 1, 8));
  else if (key == "eps") cfg.eps = parse_real(v, w);
  else if (key == "steps") cfg.steps = int(parse_count(v, w, 1, 100000));
  else if (key == "regrid") cfg.regrid_every = int(parse_count(v, w, 1, 1 << 20));
  else if (key == "extract") cfg.extract_every = int(parse_count(v, w, 1, 1 << 20));
  else if (key == "radius") cfg.extraction_radius = parse_real(v, w);
  else if (key == "cfl") cfg.cfl = parse_real(v, w);
  else if (key == "ko") cfg.ko_sigma = parse_real(v, w);
  else if (key == "subcycle") cfg.subcycle = parse_count(v, w, 0, 1) != 0;
  else if (key == "full") full = parse_count(v, w, 0, 1) != 0;
  else DGR_CHECK_MSG(false, "unknown EVOLVE field '" << key << "'");
}

}  // namespace

Request parse_request(const std::string& line,
                      const ensemble::ScenarioConfig& defaults) {
  const auto toks = split_ws(line);
  DGR_CHECK_MSG(!toks.empty(), "empty request");
  Request req;
  const std::string& verb = toks[0];
  if (verb == "PING") {
    DGR_CHECK_MSG(toks.size() == 1, "PING takes no arguments");
    req.kind = Request::Kind::kPing;
  } else if (verb == "STATS") {
    DGR_CHECK_MSG(toks.size() == 1, "STATS takes no arguments");
    req.kind = Request::Kind::kStats;
  } else if (verb == "METRICS") {
    DGR_CHECK_MSG(toks.size() == 1, "METRICS takes no arguments");
    req.kind = Request::Kind::kMetrics;
  } else if (verb == "DUMP") {
    DGR_CHECK_MSG(toks.size() <= 2, "DUMP takes at most a path argument");
    req.kind = Request::Kind::kDump;
    if (toks.size() == 2) req.dump_path = toks[1];
  } else if (verb == "SHUTDOWN") {
    DGR_CHECK_MSG(toks.size() == 1, "SHUTDOWN takes no arguments");
    req.kind = Request::Kind::kShutdown;
  } else if (verb == "QUIT") {
    req.kind = Request::Kind::kQuit;
  } else if (verb == "EVOLVE") {
    req.kind = Request::Kind::kEvolve;
    req.cfg = defaults;
    for (std::size_t i = 1; i < toks.size(); ++i) {
      const auto eq = toks[i].find('=');
      DGR_CHECK_MSG(eq != std::string::npos && eq > 0,
                    "EVOLVE fields are key=value, got '" << toks[i] << "'");
      apply_field(req.cfg, req.full, toks[i].substr(0, eq),
                  toks[i].substr(eq + 1));
    }
    ensemble::validate_scenario(req.cfg);
  } else if (verb == "EVOLVEX") {
    DGR_CHECK_MSG(toks.size() == 2 || toks.size() == 3,
                  "EVOLVEX expects a hex config (and optional full=1)");
    req.kind = Request::Kind::kEvolve;
    req.cfg = ensemble::decode(from_hex(toks[1]));
    ensemble::validate_scenario(req.cfg);
    if (toks.size() == 3) {
      DGR_CHECK_MSG(toks[2] == "full=1" || toks[2] == "full=0",
                    "EVOLVEX trailing token must be full=0|1");
      req.full = toks[2] == "full=1";
    }
  } else {
    DGR_CHECK_MSG(false, "unknown request '" << verb << "'");
  }
  return req;
}

std::string format_evolve(const ensemble::ScenarioConfig& cfg, bool full) {
  using jsonu::num;
  std::string s = "EVOLVE";
  s += " q=" + num(cfg.q);
  s += " sep=" + num(cfg.separation);
  s += " s1x=" + num(cfg.spin1[0]) + " s1y=" + num(cfg.spin1[1]) +
       " s1z=" + num(cfg.spin1[2]);
  s += " s2x=" + num(cfg.spin2[0]) + " s2y=" + num(cfg.spin2[1]) +
       " s2z=" + num(cfg.spin2[2]);
  s += " half=" + num(cfg.domain_half);
  s += " base=" + num(cfg.base_level);
  s += " finest=" + num(cfg.finest_level);
  s += " eps=" + num(cfg.eps);
  s += " steps=" + num(cfg.steps);
  s += " regrid=" + num(cfg.regrid_every);
  s += " extract=" + num(cfg.extract_every);
  s += " radius=" + num(cfg.extraction_radius);
  s += " cfl=" + num(cfg.cfl);
  s += " ko=" + num(cfg.ko_sigma);
  s += " subcycle=" + num(cfg.subcycle ? 1 : 0);
  if (full) s += " full=1";
  return s;
}

std::string format_evolvex(const ensemble::ScenarioConfig& cfg, bool full) {
  std::string s = "EVOLVEX " + to_hex(ensemble::encode(cfg));
  if (full) s += " full=1";
  return s;
}

// ----------------------------------------------------------------- Client

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

void Client::connect(const std::string& socket_path) {
  close();
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  DGR_CHECK_MSG(fd_ >= 0, "socket(): " << std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  DGR_CHECK_MSG(socket_path.size() < sizeof(addr.sun_path),
                "socket path too long: " << socket_path);
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    close();
    DGR_CHECK_MSG(false, "connect(" << socket_path
                                    << "): " << std::strerror(err));
  }
}

void Client::send_line(const std::string& line) {
  DGR_CHECK_MSG(fd_ >= 0, "client not connected");
  std::string out = line + "\n";
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    DGR_CHECK_MSG(n > 0, "send(): " << std::strerror(errno));
    off += static_cast<std::size_t>(n);
  }
}

std::string Client::recv_line() {
  DGR_CHECK_MSG(fd_ >= 0, "client not connected");
  for (;;) {
    const auto nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    DGR_CHECK_MSG(n > 0, (n == 0 ? "connection closed by server"
                                 : std::strerror(errno)));
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string Client::request(const std::string& line) {
  send_line(line);
  return recv_line();
}

}  // namespace dgr::serve
