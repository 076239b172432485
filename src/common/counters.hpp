#pragma once
/// \file counters.hpp
/// \brief Flop and byte counters backing the empirical arithmetic-intensity
/// measurements (paper §III-D, Table III, Fig. 14).
///
/// Kernels report how many double-precision flops they executed and how many
/// bytes they moved between "slow" (global/RAM) and "fast" (cache/registers)
/// memory. The counters feed the slow–fast memory model of §III-D to produce
/// modeled A100 kernel times and roofline points.

#include <cstdint>

namespace dgr {

/// Accumulated operation counts for one kernel invocation (or a sum of them).
struct OpCounts {
  std::uint64_t flops = 0;        ///< double-precision flops
  std::uint64_t bytes_read = 0;   ///< bytes read from slow (global) memory
  std::uint64_t bytes_written = 0;///< bytes written to slow (global) memory
  std::uint64_t shared_bytes = 0; ///< fast-memory traffic (shared/L2 proxy)

  std::uint64_t bytes_moved() const { return bytes_read + bytes_written; }

  /// Arithmetic intensity Q = f / m (flops per slow-memory byte).
  double arithmetic_intensity() const;

  OpCounts& operator+=(const OpCounts& o);
  friend OpCounts operator+(OpCounts a, const OpCounts& b) { return a += b; }
};

}  // namespace dgr
