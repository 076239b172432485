#pragma once
/// \file clock.hpp
/// \brief The process-wide monotonic host clock: obs::ScopedSpan, the
/// flight recorder and the service's latency timers stamp from one epoch,
/// so every host-time record of a run shares one timeline.

#include <chrono>

namespace dgr {

/// Microseconds elapsed since the process-wide monotonic epoch (the first
/// call to this function anywhere in the process).
inline double monotonic_us() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double, std::micro>(clock::now() - epoch)
      .count();
}

}  // namespace dgr
