#pragma once
/// \file histogram.hpp
/// \brief Fixed-bucket log-scale latency/size histogram with deterministic
/// snapshots and quantile queries — the metric type behind the service's
/// p50/p90/p99/p999 exposition and the perf-trajectory regression gate.
///
/// Bucket layout. 4 sub-buckets per octave (growth 2^(1/4), ~19% relative
/// resolution) spanning octaves 2^kMinExp2 .. 2^kMaxExp2 — with the
/// defaults, ~1e-3 .. ~1.1e12, wide enough for microsecond latencies and
/// byte counts alike. Values at or below zero (or below the bottom bound)
/// clamp into bucket 0; values at or above the top bound clamp into the
/// last bucket. Bucket indexing uses std::frexp and exact mantissa
/// thresholds — no libm transcendentals on the observe path, and the
/// boundary arithmetic (std::ldexp of compile-time mantissa constants) is
/// exact, so two binaries bucket identically.
///
/// Determinism. A histogram stores only order-independent aggregates:
/// per-bucket counts (commutative integer adds) and min/max (commutative,
/// associative). Feeding the same multiset of observations in ANY order —
/// one thread or many, any interleaving — yields a bitwise-identical
/// json() snapshot; there is deliberately no floating-point sum whose
/// value would depend on accumulation order. quantile() is a pure function
/// of the bucket counts.
///
/// Thread safety: none here. Histogram is a value type; MetricsRegistry
/// guards its histogram map with the registry mutex, exactly as it does
/// counters and summaries.

#include <array>
#include <cstdint>
#include <string>

namespace dgr::obs {

class Histogram {
 public:
  static constexpr int kSubBuckets = 4;   ///< per octave: growth 2^(1/4)
  static constexpr int kMinExp2 = -10;    ///< bottom bound 2^-10 ~ 9.8e-4
  static constexpr int kMaxExp2 = 40;     ///< top bound 2^40 ~ 1.1e12
  static constexpr int kBuckets = (kMaxExp2 - kMinExp2) * kSubBuckets;

  /// Record one observation (any double; non-finite observations are
  /// clamped like out-of-range ones: NaN and -inf low, +inf high).
  void observe(double v);

  /// Fold another histogram in (bucket-wise adds, min/max merge).
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  /// Inclusive lower / exclusive upper bound of bucket `i` (exact:
  /// ldexp of 2^(k/4) mantissa constants).
  static double bucket_lower(int i);
  static double bucket_upper(int i) { return bucket_lower(i + 1); }
  /// The bucket `v` lands in after clamping (also the observe() path).
  static int bucket_index(double v);

  /// Quantile estimate for p in [0, 1]: linear interpolation inside the
  /// bucket holding the ceil(p * count)-th smallest observation, clamped
  /// to [min, max] so degenerate (single-value) histograms answer
  /// exactly. Returns 0 on an empty histogram. Deterministic: a pure
  /// function of the bucket counts and min/max.
  double quantile(double p) const;

  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }

  void reset();

  /// JSON object: {"count":N,"min":..,"max":..,"p50":..,"p90":..,
  /// "p99":..,"p999":..}. Every field is order-independent (see file
  /// comment), so snapshots of the same observation multiset are
  /// byte-identical regardless of thread count.
  std::string json() const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double min_ = 0, max_ = 0;  // valid when count_ > 0
};

}  // namespace dgr::obs
