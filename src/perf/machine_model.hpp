#pragma once
/// \file machine_model.hpp
/// \brief The slow–fast memory performance model of §III-D and the machine
/// parameter sets used throughout the paper's analysis (A100, dual-socket
/// EPYC 7763, Frontera Cascade Lake). Kernel op counts measured by the
/// simulated GPU runtime feed these models to produce modeled kernel times
/// and roofline points (Table III, Fig. 14, Figs. 15-18, Fig. 20).

#include <algorithm>
#include <cmath>
#include <string>

#include "common/counters.hpp"
#include "common/types.hpp"

namespace dgr::perf {

struct MachineModel {
  std::string name;
  double tau_f;     ///< seconds per double-precision flop
  double tau_m;     ///< seconds per byte of slow-memory traffic
  double cache_l2;  ///< fast-memory (L2) capacity, bytes
  double cache_reg; ///< register-file capacity, bytes
  double ell;       ///< relative cost of L2<->register traffic (< 1)
  double h2d_bw;    ///< host<->device bandwidth, bytes/s (0 if N/A)

  /// xi = 1/C_L + ell/C_R (paper §III-D).
  double xi() const { return 1.0 / cache_l2 + ell / cache_reg; }

  double peak_gflops() const { return 1e-9 / tau_f; }
  double peak_bandwidth_gbs() const { return 1e-9 / tau_m; }

  /// T_inf(f, m) = f tau_f + m tau_m  (infinite fast memory).
  double time_infinite_cache(const OpCounts& c) const {
    return static_cast<double>(c.flops) * tau_f +
           static_cast<double>(c.bytes_moved()) * tau_m;
  }

  /// T(f, m) = m tau_m max(1, m xi) + f tau_f  (finite fast memory).
  double time_finite_cache(const OpCounts& c) const {
    const double m = static_cast<double>(c.bytes_moved());
    const double penalty = std::max(1.0, m * xi());
    return m * tau_m * penalty + static_cast<double>(c.flops) * tau_f;
  }

  /// Attainable GFlops/s at arithmetic intensity Q (classic roofline).
  double roofline_gflops(double ai) const {
    return std::min(peak_gflops(), ai * peak_bandwidth_gbs());
  }

  /// AI below which a kernel is bandwidth-bound. The paper: with
  /// tau_f/tau_m = 0.16, kernels with Q < 6.25 are bandwidth limited.
  double ridge_ai() const { return tau_m / tau_f; }
};

/// NVIDIA A100 (paper §III-D): tau_f = 1.0e-13 s, tau_m = 6.4e-13 s,
/// C_L = 40 MB, C_R = 27 MB, ell ~ 1/4, xi ~ 4e-8.
MachineModel a100();

/// Two-socket AMD EPYC 7763 node (128 cores): ~3.5 TFlop/s DP aggregate,
/// ~400 GB/s DRAM bandwidth.
MachineModel epyc7763_node();

/// One Frontera Cascade Lake node (56 cores, Intel 8280): ~3.1 TFlop/s DP,
/// ~140 GB/s.
MachineModel frontera_node();

/// The host this library actually runs on, calibrated at startup from a
/// STREAM-like sweep and a multiply-add loop on simd packs at
/// simd_active_width(), the width the patch kernels run at (used to convert
/// measured seconds into model-comparable numbers).
MachineModel calibrated_host();

}  // namespace dgr::perf
