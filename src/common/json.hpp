#pragma once
/// \file json.hpp
/// \brief Minimal JSON writing helpers shared by the trace exporter, the
/// flight recorder, the metrics snapshot, and the bench reporter. Numbers are
/// formatted with std::to_chars (shortest round-trip), so serialized output
/// is deterministic for deterministic inputs.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>

namespace dgr::jsonu {

/// Append `s` as a quoted, escaped JSON string.
inline void append_string(std::string& out, const std::string& s) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

inline std::string quote(const std::string& s) {
  std::string out;
  append_string(out, s);
  return out;
}

/// Shortest round-trip decimal representation; non-finite values become
/// null (JSON has no NaN/Inf).
inline std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

inline std::string num(std::uint64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

inline std::string num(std::int64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

inline std::string num(int v) { return num(static_cast<std::int64_t>(v)); }

}  // namespace dgr::jsonu
