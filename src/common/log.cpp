#include "common/log.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace dgr::log {

namespace {
bool g_level_set = false;
Level g_level = Level::kWarn;

const char* level_name(Level l) {
  switch (l) {
    case Level::kDebug: return "DEBUG";
    case Level::kInfo: return "INFO";
    case Level::kWarn: return "WARN";
    case Level::kError: return "ERROR";
    default: return "?";
  }
}

Level level_from_env() {
  const char* e = std::getenv("DGR_LOG");
  if (!e || !*e) return Level::kWarn;
  // Strict knob: an unknown DGR_LOG token throws instead of silently
  // logging at the kWarn default (parse_level keeps its fallback form for
  // CLI callers that supply their own default). A valid token parses the
  // same under any fallback; only garbage echoes the fallback back.
  const Level a = parse_level(e, Level::kWarn);
  const Level b = parse_level(e, Level::kError);
  DGR_CHECK_MSG(a == b,
                "DGR_LOG must be one of debug|info|warn|error|off, got \""
                    << e << "\"");
  return a;
}
}  // namespace

Level parse_level(const std::string& name, Level fallback) {
  std::string s;
  for (char c : name) s += static_cast<char>(std::tolower((unsigned char)c));
  if (s == "debug" || s == "0") return Level::kDebug;
  if (s == "info" || s == "1") return Level::kInfo;
  if (s == "warn" || s == "warning" || s == "2") return Level::kWarn;
  if (s == "error" || s == "3") return Level::kError;
  if (s == "off" || s == "none" || s == "silent" || s == "4")
    return Level::kOff;
  return fallback;
}

void set_level(Level lvl) {
  g_level = lvl;
  g_level_set = true;
}

Level level() {
  if (!g_level_set) {
    g_level = level_from_env();
    g_level_set = true;
  }
  return g_level;
}

void write(Level lvl, const std::string& msg) {
  if (lvl < level()) return;
  std::fprintf(stderr, "[dgr %s] %s\n", level_name(lvl), msg.c_str());
}

}  // namespace dgr::log
