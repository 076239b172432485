#pragma once
/// \file parse.hpp
/// \brief Strict parsers for CLI flags and DGR_* environment knobs.
///
/// Every knob in the tree routes through these: CLI flags, serve protocol
/// fields, DGR_THREADS and the other DGR_* environment variables. Digits
/// are consumed in full, bounds are enforced, and anything else throws
/// dgr::Error naming the offending knob — a typo'd DGR_* variable fails
/// loudly at first use instead of being silently ignored, truncated, or
/// read as zero, with the same error text everywhere.

namespace dgr {

/// Strict bounded integer parse: digits (optional leading '-') only, full
/// consume, value in [lo, hi]; anything else throws dgr::Error naming
/// `what`.
long parse_count(const char* s, const char* what, long lo, long hi);

/// Strict double parse: std::from_chars over the whole token (no trailing
/// junk, no empty string); throws dgr::Error naming `what`. Round-trips
/// shortest-decimal output bit-for-bit.
double parse_real(const char* s, const char* what);

/// Environment knob helper: returns fallback when `name` is unset,
/// otherwise the strictly parsed value (unset and invalid are different —
/// invalid throws).
long env_count(const char* name, long fallback, long lo, long hi);

}  // namespace dgr
