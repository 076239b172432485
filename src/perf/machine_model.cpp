#include "perf/machine_model.hpp"

#include <algorithm>
#include <vector>

#include "common/timer.hpp"
#include "simd/simd.hpp"

namespace dgr::perf {

MachineModel a100() {
  // Parameters straight from §III-D of the paper.
  return {"NVIDIA A100", 1.0e-13, 6.4e-13, 40.0e6, 27.0e6, 0.25, 25.0e9};
}

MachineModel epyc7763_node() {
  // 128 Zen3 cores @ ~2.45 GHz sustained, 2x 8-channel DDR4-3200:
  // ~3.5 TFlop/s DP, ~400 GB/s.
  return {"2x AMD EPYC 7763", 1.0 / 3.5e12, 1.0 / 400.0e9, 512.0e6, 16.0e6,
          0.25, 0};
}

MachineModel frontera_node() {
  // 2x Intel Xeon Platinum 8280 (56 cores): ~3.1 TFlop/s DP, ~140 GB/s.
  return {"Frontera CLX node", 1.0 / 3.1e12, 1.0 / 140.0e9, 77.0e6, 8.0e6,
          0.25, 0};
}

namespace {

/// Seconds per flop of twelve independent multiply-add chains on
/// dgr::simd<double, W> packs, enough to keep both FP ports busy. A peak
/// is the best rate seen, so the fastest of five repetitions counts: host
/// noise only ever slows a repetition down. At width 1, GCC -O3 packs the
/// scalar chains four to a vector register, as it may any width-1 code.
template <int W>
double seconds_per_flop() {
  using P = simd<double, W>;
  P a[12];
  for (int c = 0; c < 12; ++c) a[c] = P::broadcast(1.0 + 0.01 * c);
  const P b = P::broadcast(1.0000001), d = P::broadcast(1e-9);
  const int iters = 1'000'000;
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    WallTimer t;
    for (int i = 0; i < iters; ++i)
      for (P& x : a) x = x * b + d;
    best = std::min(best, t.seconds());
  }
  volatile double sink = 0;
  for (const P& x : a) sink = sink + x[0];  // keeps every chain live
  return best / (2.0 * W * 12 * iters);
}

/// One-shot microbenchmarks: multiply-add chains at the active SIMD width
/// for tau_f and a large array triad sweep for tau_m.
MachineModel measure_host() {
  MachineModel m;
  m.name = "calibrated host";
  m.cache_l2 = 8.0e6;
  m.cache_reg = 2.0e3;
  m.ell = 0.25;
  m.h2d_bw = 0;
  m.tau_f = simd_active_width() == 4 ? seconds_per_flop<4>()
                                     : seconds_per_flop<1>();
  {
    const std::size_t n = 8'000'000;  // 64 MB per array: beats the caches
    std::vector<double> x(n, 1.0), y(n, 2.0);
    WallTimer t;
    double s = 0;
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = y[i] + 0.5 * x[i];
      s += y[i];
    }
    volatile double sink = s;
    (void)sink;
    m.tau_m = t.seconds() / (3.0 * n * sizeof(double));  // 2 reads + 1 write
  }
  return m;
}

}  // namespace

MachineModel calibrated_host() {
  static const MachineModel m = measure_host();
  return m;
}

}  // namespace dgr::perf
