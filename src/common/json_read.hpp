#pragma once
/// \file json_read.hpp
/// \brief Minimal recursive-descent JSON reader, the counterpart of the
/// write-only helpers in json.hpp. The repo's own artifacts (BENCH_*.json
/// bench reports, flightrec.json dumps, metrics snapshots) are the target
/// corpus: standard JSON, no extensions, documents of at most a few MB.
/// Parsing is strict — trailing garbage, unterminated strings, or bad
/// escapes fail rather than guess — because a perf gate that silently
/// half-reads a report is worse than one that errors.
///
/// JValue is a small tagged tree. Numbers are always doubles (bench
/// values and quantiles all fit); object keys keep first-wins semantics.
/// Header-only so tools/ and tests/ can use it without a new library.

#include <cstddef>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace dgr::jsonu {

struct JValue {
  enum class Kind { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JValue> arr;
  std::map<std::string, JValue> obj;

  bool is_num() const { return kind == Kind::kNum; }
  bool is_arr() const { return kind == Kind::kArr; }

  /// Object member lookup; nullptr when absent or not an object.
  const JValue* get(const std::string& key) const {
    if (kind != Kind::kObj) return nullptr;
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
  /// Numeric member as optional (absent, null, or non-numeric → nullopt).
  std::optional<double> get_num(const std::string& key) const {
    const JValue* v = get(key);
    if (!v || v->kind != Kind::kNum) return std::nullopt;
    return v->num;
  }
  std::string get_str(const std::string& key,
                      const std::string& fallback = "") const {
    const JValue* v = get(key);
    return v && v->kind == Kind::kStr ? v->str : fallback;
  }
};

namespace detail {

struct Parser {
  const char* p;
  const char* end;
  std::string* err;

  bool fail(const char* msg) {
    if (err && err->empty()) *err = msg;
    return false;
  }
  void skip_ws() {
    while (p < end &&
           (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
      ++p;
  }
  bool lit(const char* s, std::size_t n) {
    if (std::size_t(end - p) < n) return false;
    for (std::size_t i = 0; i < n; ++i)
      if (p[i] != s[i]) return false;
    p += n;
    return true;
  }

  bool parse_string(std::string& out) {
    if (p >= end || *p != '"') return fail("expected string");
    ++p;
    out.clear();
    while (p < end && *p != '"') {
      char c = *p++;
      if (c == '\\') {
        if (p >= end) return fail("bad escape");
        const char e = *p++;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            // BMP-only \uXXXX, encoded as UTF-8; enough for our corpus
            // (writers in this repo never emit surrogate pairs).
            if (end - p < 4) return fail("bad \\u escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = *p++;
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= unsigned(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= unsigned(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= unsigned(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            if (cp < 0x80) {
              out += char(cp);
            } else if (cp < 0x800) {
              out += char(0xC0 | (cp >> 6));
              out += char(0x80 | (cp & 0x3F));
            } else {
              out += char(0xE0 | (cp >> 12));
              out += char(0x80 | ((cp >> 6) & 0x3F));
              out += char(0x80 | (cp & 0x3F));
            }
            break;
          }
          default: return fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    if (p >= end) return fail("unterminated string");
    ++p;  // closing quote
    return true;
  }

  bool parse_value(JValue& out, int depth) {
    if (depth > 64) return fail("nesting too deep");
    skip_ws();
    if (p >= end) return fail("unexpected end of input");
    switch (*p) {
      case 'n':
        if (!lit("null", 4)) return fail("bad literal");
        out.kind = JValue::Kind::kNull;
        return true;
      case 't':
        if (!lit("true", 4)) return fail("bad literal");
        out.kind = JValue::Kind::kBool;
        out.b = true;
        return true;
      case 'f':
        if (!lit("false", 5)) return fail("bad literal");
        out.kind = JValue::Kind::kBool;
        out.b = false;
        return true;
      case '"':
        out.kind = JValue::Kind::kStr;
        return parse_string(out.str);
      case '[': {
        ++p;
        out.kind = JValue::Kind::kArr;
        skip_ws();
        if (p < end && *p == ']') {
          ++p;
          return true;
        }
        while (true) {
          out.arr.emplace_back();
          if (!parse_value(out.arr.back(), depth + 1)) return false;
          skip_ws();
          if (p < end && *p == ',') {
            ++p;
            continue;
          }
          if (p < end && *p == ']') {
            ++p;
            return true;
          }
          return fail("expected ',' or ']'");
        }
      }
      case '{': {
        ++p;
        out.kind = JValue::Kind::kObj;
        skip_ws();
        if (p < end && *p == '}') {
          ++p;
          return true;
        }
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) return false;
          skip_ws();
          if (p >= end || *p != ':') return fail("expected ':'");
          ++p;
          JValue v;
          if (!parse_value(v, depth + 1)) return false;
          out.obj.emplace(std::move(key), std::move(v));  // first key wins
          skip_ws();
          if (p < end && *p == ',') {
            ++p;
            continue;
          }
          if (p < end && *p == '}') {
            ++p;
            return true;
          }
          return fail("expected ',' or '}'");
        }
      }
      default: {
        // Number: delegate validation + shortest-round-trip parsing to
        // strtod over a bounded copy (JSON numbers are a strict subset of
        // strtod's grammar apart from leading '+'/hex, rejected below).
        if (*p != '-' && (*p < '0' || *p > '9')) return fail("bad value");
        const char* start = p;
        if (p < end && *p == '-') ++p;
        while (p < end && ((*p >= '0' && *p <= '9') || *p == '.' ||
                           *p == 'e' || *p == 'E' || *p == '+' || *p == '-'))
          ++p;
        const std::string tok(start, p);
        char* tail = nullptr;
        out.num = std::strtod(tok.c_str(), &tail);
        if (tail != tok.c_str() + tok.size()) return fail("bad number");
        out.kind = JValue::Kind::kNum;
        return true;
      }
    }
  }
};

}  // namespace detail

/// Parse a complete JSON document. On failure returns nullopt and, when
/// `err` is given, a one-line reason.
inline std::optional<JValue> parse(const std::string& text,
                                   std::string* err = nullptr) {
  detail::Parser ps{text.data(), text.data() + text.size(), err};
  JValue root;
  if (!ps.parse_value(root, 0)) return std::nullopt;
  ps.skip_ws();
  if (ps.p != ps.end) {
    if (err && err->empty()) *err = "trailing garbage";
    return std::nullopt;
  }
  return root;
}

}  // namespace dgr::jsonu
