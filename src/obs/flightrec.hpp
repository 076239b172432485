#pragma once
/// \file flightrec.hpp
/// \brief The flight recorder: an always-on, lock-light, per-thread ring
/// buffer of recently closed host spans, dumped as Perfetto-loadable
/// Chrome trace JSON when something goes wrong — SIGSEGV/SIGABRT, a
/// drained SHUTDOWN of the serve daemon, or an operator DUMP request. It
/// turns "the daemon hung/died" into a readable last-N-milliseconds
/// timeline without anyone having arranged tracing in advance, and it is
/// the process's one host timeline: a ring sized by DGR_FLIGHTREC_KB to
/// hold a whole run dumps that run's every span, one tid per thread.
///
/// Design. Each thread owns a fixed-capacity ring of POD entries
/// (overwriting oldest first; default ~64 KiB per thread, DGR_FLIGHTREC_KB
/// overrides). Recording is lock-free on the hot path: the only lock is
/// taken once per thread, at ring registration. Rings outlive their
/// threads (the registry keeps them), so a crash dump includes what
/// already-exited workers were last doing. Entry names/categories are
/// stored as `const char*` and MUST point at storage that outlives the
/// recorder — string literals in practice; that is what keeps recording
/// allocation-free.
///
/// obs::ScopedSpan feeds the recorder automatically, so the solver, the
/// distributed engine, the ensemble driver, and the serve front-end are
/// covered by their existing instrumentation. DGR_FLIGHTREC=off disables
/// recording entirely.
///
/// Crash dumps (crash_dump / the installed signal handler) use only
/// snprintf into a stack buffer plus write(2) — no allocation, no
/// locking — and are best-effort by nature: a handler that loses the race
/// with a registering thread can drop that thread's ring, never corrupt
/// the process further.

#include <cstddef>
#include <cstdint>
#include <string>

namespace dgr::obs::flightrec {

/// One closed span, dumped as a complete ('X') event: start + duration.
struct Entry {
  double ts_us = 0;
  double dur_us = 0;
  const char* name = nullptr;  ///< static string (see file comment)
  const char* cat = nullptr;   ///< static string
};

/// Recording enabled? Parsed once from DGR_FLIGHTREC (anything but "off"
/// is on); set_enabled overrides (tests, tools).
bool enabled();
void set_enabled(bool on);

/// Per-thread ring budget in bytes. Applies to rings created afterwards
/// (and to every ring after reset()). Default 64 KiB or DGR_FLIGHTREC_KB.
void set_capacity_bytes(std::size_t bytes);
std::size_t capacity_entries();

/// Record a closed span on the calling thread's ring. No-op when
/// disabled. `name` and `cat` must be static strings.
void record_span(const char* name, const char* cat, double ts_us,
                 double dur_us);

/// Total entries currently held across all rings (capped by capacity).
std::size_t recorded_entries();

/// Default dump destination: DGR_FLIGHTREC_PATH or "flightrec.json".
std::string dump_path();

/// Perfetto-loadable Chrome trace JSON of every ring, oldest entry first
/// per ring; one pid, one tid per recorded thread (registration order).
std::string dump_json();

/// Write dump_json() atomically to `path` (empty: dump_path()). Returns
/// false when disabled, nothing was recorded, or the write failed.
bool dump(const std::string& path = "");

/// Async-signal-cautious dump: snprintf + write(2) only, no allocation,
/// no locking. Used by the crash handler; callable directly.
void crash_dump(const char* path);

/// Install SIGSEGV/SIGABRT/SIGBUS/SIGFPE handlers that crash_dump() to
/// `path` (nullptr: dump_path() resolved now) and then re-raise with the
/// default disposition, so the process still dies with the original
/// signal. Idempotent.
void install_crash_handler(const char* path = nullptr);

/// Drop all rings and thread registrations, re-reading capacity on next
/// use. Test hook: golden dumps need a clean, deterministically-numbered
/// recorder. Not safe while other threads are recording.
void reset();

}  // namespace dgr::obs::flightrec
