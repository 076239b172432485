#pragma once
/// \file log.hpp
/// \brief Minimal leveled logging to stderr, silenced by default in tests.
///
/// The threshold defaults to the `DGR_LOG` environment variable
/// (debug|info|warn|error|off, case-insensitive, or the numeric level
/// 0..4), falling back to warn; set_level() always overrides.

#include <string>

namespace dgr::log {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log threshold; messages below it are dropped.
void set_level(Level lvl);
Level level();

/// Parse a level name or digit; returns `fallback` on unrecognized input.
Level parse_level(const std::string& name, Level fallback = Level::kWarn);

void write(Level lvl, const std::string& msg);

inline void debug(const std::string& m) { write(Level::kDebug, m); }
inline void info(const std::string& m) { write(Level::kInfo, m); }
inline void warn(const std::string& m) { write(Level::kWarn, m); }
inline void error(const std::string& m) { write(Level::kError, m); }

}  // namespace dgr::log
