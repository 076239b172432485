#pragma once
/// \file timer.hpp
/// \brief A steady-clock stopwatch for benches and calibration loops.
/// Solver regions are timed by obs::ScopedSpan (obs/obs.hpp).

#include <chrono>

namespace dgr {

/// Simple steady-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { restart(); }
  void restart() { start_ = clock::now(); }

  /// Seconds elapsed since construction or last restart().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  double milliseconds() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace dgr
