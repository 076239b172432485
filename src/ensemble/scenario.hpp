#pragma once
/// \file scenario.hpp
/// \brief The ensemble request vocabulary: a ScenarioConfig describes one
/// scaled-down BBH evolution over the Table IV parameter space (mass ratio,
/// spins, resolution, tolerance), canonically encoded into a deterministic
/// byte string whose content hash keys the waveform cache.
///
/// Canonicalization contract. encode() serializes every field in a fixed
/// order with doubles written as their IEEE-754 bit patterns (ByteWriter,
/// little-endian, never printf), so the encoding round-trips byte-for-byte:
/// decode(encode(cfg)) reproduces cfg exactly, including -0.0 and the last
/// ulp of any tolerance. Two configs hash equal iff every field is bitwise
/// equal — the property the cache's correctness rests on, tested across
/// thread counts and repeated runs in test_ensemble.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "gw/extract.hpp"
#include "perf/production.hpp"
#include "solver/bssn_ctx.hpp"

namespace dgr::ensemble {

using gw::Complex;

/// One ensemble scenario: the knobs a parameter-estimation consumer sweeps
/// (Table IV space: mass ratio, spins, resolution, tolerance), scaled to
/// runnable size. `steps` counts RK4 steps; the regrid band is pinned to
/// [base_level, finest_level] so dt stays constant and t_end = steps * dt.
struct ScenarioConfig {
  Real q = 1.0;                        ///< mass ratio m1/m2
  Real separation = 2.0;               ///< initial coordinate separation
  std::array<Real, 3> spin1{0, 0, 0};  ///< dimensionless spin, larger hole
  std::array<Real, 3> spin2{0, 0, 0};  ///< dimensionless spin, smaller hole
  Real domain_half = 16.0;             ///< domain half-extent
  int base_level = 2;                  ///< coarsest octree level
  int finest_level = 3;                ///< resolution knob (puncture cascade)
  Real eps = 2e-3;                     ///< regrid tolerance
  int steps = 4;                       ///< RK4 steps to evolve
  int regrid_every = 4;                ///< f_r of Algorithm 1
  int extract_every = 2;               ///< wave-extraction cadence
  Real extraction_radius = 5.0;        ///< Psi4 extraction sphere radius
  Real cfl = 0.25;                     ///< Courant factor
  Real ko_sigma = 0.3;                 ///< Kreiss-Oliger dissipation
  /// Depth-local sub-cycled timestepping (EvolutionConfig::subcycle). Off
  /// by default: existing encodings evolve bitwise-identically. Cadences
  /// must align to the cycle length (solver::evolve validates).
  bool subcycle = false;

  bool operator==(const ScenarioConfig&) const = default;
};

/// The runnable envelope, checked by every config path: the serve protocol
/// at parse (EVOLVE fields, EVOLVEX hex decodes) and run_scenario itself.
/// base and finest in 1..8 with finest >= base, steps in 1..100000,
/// regrid and extract in 1..2^20; every real field finite, with q >= 1,
/// sep > 0, each spin's norm <= 1, half > 0, 0 < radius < half, eps >= 0
/// (as solver::evolve requires), cfl > 0 and ko >= 0. Throws dgr::Error
/// naming the field, so no config runs to an empty or unbounded evolution.
void validate_scenario(const ScenarioConfig& cfg);

/// Canonical byte encoding (versioned, fixed field order, IEEE-754 bit
/// patterns for doubles, little-endian). Stable across processes and
/// thread counts; common/bytes.hpp refuses to build on a big-endian host.
std::string encode(const ScenarioConfig& cfg);

/// Exact inverse of encode(); throws dgr::Error on truncated or
/// wrong-version input. decode(encode(c)) == c bitwise, always.
ScenarioConfig decode(std::string_view bytes);

/// FNV-1a 64-bit over a byte string — the content hash of the canonical
/// encoding. Collisions are guarded one level up: the cache compares the
/// full canonical bytes, the hash only names entries and disk files.
std::uint64_t fnv1a64(std::string_view bytes);

/// dgr::to_hex of `v`'s big-endian bytes: 16 digits, most significant first.
std::string hex16(std::uint64_t v);

/// Cache key: canonical bytes plus their content hash (hex() names disk
/// spill files and appears in protocol responses).
struct ScenarioKey {
  std::string bytes;
  std::uint64_t hash = 0;

  static ScenarioKey of(const ScenarioConfig& cfg) {
    ScenarioKey k;
    k.bytes = encode(cfg);
    k.hash = fnv1a64(k.bytes);
    return k;
  }
  std::string hex() const;
  bool operator==(const ScenarioKey& o) const { return bytes == o.bytes; }
};

/// Scale a Table IV production row into a runnable scenario: q, horizon and
/// the level split survive (shifted into the scaled band), so every row of
/// perf::table4_configs() maps to a distinct canonical encoding.
ScenarioConfig scenario_from_table4(const perf::ProductionConfig& cfg);

/// The memoized product: the Psi4 (2,2) mode series at the extraction
/// radius and the strain h = h+ - i hx double-integrated from it.
struct Waveform {
  int steps = 0;
  int regrids = 0;
  Real t_final = 0;
  gw::ModeTimeSeries psi4_22;
  std::vector<Complex> strain;  ///< empty when too few samples to detrend

  /// Serialized footprint, the unit of the cache's byte accounting.
  std::size_t byte_size() const;

  // gw::ModeTimeSeries has no operator==, so spell the comparison out.
  bool operator==(const Waveform& o) const {
    return steps == o.steps && regrids == o.regrids && t_final == o.t_final &&
           psi4_22.l == o.psi4_22.l && psi4_22.m == o.psi4_22.m &&
           psi4_22.radius == o.psi4_22.radius &&
           psi4_22.times == o.psi4_22.times &&
           psi4_22.values == o.psi4_22.values && strain == o.strain;
  }
};

/// Exact binary serialization (bit patterns, versioned header). The digest
/// of these bytes is what the serve protocol reports, so a cache hit and a
/// recomputation agree iff the waveforms are bitwise identical.
std::string serialize(const Waveform& wf);
Waveform deserialize(std::string_view bytes);

/// Run the scenario synchronously on the calling thread: build the
/// puncture mesh and Bowen-York initial data, evolve `steps` RK4 steps
/// with regridding pinned to [base_level, finest_level], extract Psi4
/// (2,2), and integrate the strain. Deterministic: bitwise-identical output
/// at any thread count and on any execution lane (the src/exec contract).
/// Throws dgr::Error if validate_scenario rejects cfg.
Waveform run_scenario(const ScenarioConfig& cfg);

}  // namespace dgr::ensemble
