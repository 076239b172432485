#pragma once
/// \file bytes.hpp
/// \brief The one binary codec (DSC2 scenarios, DWF1 waveforms, DSP1 spill
/// files, DGR_CPT1 checkpoints) and the one hex codec. ByteReader checks
/// every read against the bytes left, so short or garbage input throws
/// dgr::Error naming its format. Fields are little-endian, copied with
/// memcpy: the static_assert keeps a big-endian host from writing another
/// format.

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/types.hpp"

namespace dgr {

static_assert(std::endian::native == std::endian::little,
              "the binary formats are little-endian and copied with memcpy");

class ByteWriter {
 public:
  explicit ByteWriter(std::size_t reserve = 0) { out_.reserve(reserve); }

  ByteWriter& u8(std::uint8_t v) { return put(v); }
  ByteWriter& u32(std::uint32_t v) { return put(v); }
  ByteWriter& u64(std::uint64_t v) { return put(v); }
  /// The IEEE-754 bit pattern: -0.0 and NaN payloads round-trip.
  ByteWriter& real(Real v) { return put(v); }
  ByteWriter& raw(std::string_view b) {
    out_.append(b);
    return *this;
  }

  const std::string& bytes() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  template <class T>
  ByteWriter& put(T v) {
    char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    out_.append(b, sizeof(T));
    return *this;
  }
  std::string out_;
};

/// Reads over `in`, which must outlive the reader (raw() returns views).
class ByteReader {
 public:
  ByteReader(std::string_view in, std::string_view format)
      : in_(in), format_(format) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  Real real() { return get<Real>(); }
  std::string_view raw(std::size_t n) {
    need(n);
    pos_ += n;
    return in_.substr(pos_ - n, n);
  }
  void magic(std::string_view m) {
    DGR_CHECK_MSG(in_.substr(pos_, m.size()) == m, format_ << ": bad magic");
    pos_ += m.size();
  }
  /// A u64 count of `elem_bytes`-byte elements, refused unless the bytes
  /// left can hold them, so no caller allocates for a count it cannot back.
  std::size_t count(std::size_t elem_bytes) {
    const std::uint64_t n = u64();
    DGR_CHECK_MSG(n <= left() / elem_bytes,
                  format_ << ": count " << n << " x " << elem_bytes
                          << " bytes exceeds the " << left() << " left");
    return static_cast<std::size_t>(n);
  }
  std::size_t left() const { return in_.size() - pos_; }
  /// Trailing bytes are an error.
  void finish() const {
    DGR_CHECK_MSG(left() == 0, format_ << ": " << left() << " trailing bytes");
  }

 private:
  void need(std::size_t n) const {
    DGR_CHECK_MSG(n <= left(), format_ << ": truncated, need " << n
                                       << " bytes at offset " << pos_);
  }
  template <class T>
  T get() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, in_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  std::string_view in_, format_;
  std::size_t pos_ = 0;
};

/// Two lowercase hex digits per byte.
inline std::string to_hex(std::string_view bytes) {
  std::string out;
  out.reserve(2 * bytes.size());
  for (unsigned char c : bytes) {
    out.push_back("0123456789abcdef"[c >> 4]);
    out.push_back("0123456789abcdef"[c & 0xf]);
  }
  return out;
}

/// Inverse of to_hex (either case); throws dgr::Error on an odd length or
/// a non-hex digit.
inline std::string from_hex(std::string_view hex) {
  const auto digit = [](char c) {
    return c >= '0' && c <= '9'   ? c - '0'
           : c >= 'a' && c <= 'f' ? c - 'a' + 10
           : c >= 'A' && c <= 'F' ? c - 'A' + 10
                                  : -1;
  };
  DGR_CHECK_MSG(hex.size() % 2 == 0, "hex payload has odd length");
  std::string out;
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = digit(hex[i]), lo = digit(hex[i + 1]);
    DGR_CHECK_MSG(hi >= 0 && lo >= 0, "invalid hex digit in payload");
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

}  // namespace dgr
