#include "common/parse.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"

namespace dgr {

long parse_count(const char* s, const char* what, long lo, long hi) {
  DGR_CHECK_MSG(s != nullptr && *s != '\0',
                what << " expects an integer, got an empty value");
  long v = 0;
  const char* end = s + std::strlen(s);
  const auto r = std::from_chars(s, end, v, 10);
  DGR_CHECK_MSG(r.ec == std::errc() && r.ptr == end,
                what << " expects an integer, got \"" << s << "\"");
  DGR_CHECK_MSG(v >= lo && v <= hi, what << " must be in [" << lo << ", "
                                         << hi << "], got " << v);
  return v;
}

double parse_real(const char* s, const char* what) {
  DGR_CHECK_MSG(s != nullptr && *s != '\0',
                what << " expects a number, got an empty value");
  double v = 0;
  const char* end = s + std::strlen(s);
  const auto r = std::from_chars(s, end, v);
  DGR_CHECK_MSG(r.ec == std::errc() && r.ptr == end,
                what << " expects a number, got \"" << s << "\"");
  return v;
}

long env_count(const char* name, long fallback, long lo, long hi) {
  const char* e = std::getenv(name);
  if (!e) return fallback;
  return parse_count(e, name, lo, hi);
}

}  // namespace dgr
