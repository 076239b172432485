#pragma once
/// \file trace.hpp
/// \brief TraceSession: typed span / instant / counter / flow events on
/// named tracks, exported as Chrome trace-event JSON (loadable in
/// chrome://tracing and Perfetto).
///
/// Two time domains coexist in one session:
///   - Clock::kHost    — wall time from dgr::monotonic_us() (the same epoch
///                       the JSON-lines log sink stamps), used by the RAII
///                       span guards around host code (solver, regrid,
///                       simulated-GPU kernel launches);
///   - Clock::kVirtual — modeled virtual time (dist::SimComm rank clocks,
///                       in microseconds of virtual time), used to render
///                       the overlapped halo-exchange schedule: per-rank
///                       compute spans, hidden/exposed comm windows, and
///                       message-flow arrows from sender to receiver.
/// Host and virtual timestamps are not comparable, so the exporter emits
/// one domain per file.
///
/// All event timestamps are microseconds in the track's domain. Events are
/// serialized in insertion order, one per line, with numbers in shortest
/// round-trip form — a deterministic input stream yields a byte-identical
/// trace, which is what the golden-file tests pin down.
///
/// Thread safety: every event call and track registration is guarded by an
/// internal mutex, so pool workers (src/exec) may emit on their own tracks
/// concurrently. Single-threaded event streams keep a deterministic
/// insertion order; concurrent streams interleave by arrival (wall time is
/// nondeterministic anyway). B/E nesting is per track: each worker lane
/// must emit only on its own worker_track(lane).

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dgr::obs {

/// Time domain of a track (see file comment).
enum class Clock { kHost, kVirtual };

class TraceSession {
 public:
  using Args = std::vector<std::pair<std::string, std::string>>;

  /// Register a timeline row. Tracks with the same `process` name share a
  /// pid in the exported trace; `thread` names the row (tid). Returns the
  /// track handle used by all event calls.
  int add_track(const std::string& process, const std::string& thread,
                Clock domain);

  /// The lazily-created default host-domain track ("host"/"main") the RAII
  /// span guards write to on threads outside the pool.
  int host_track();

  /// The lazily-created host-domain track ("exec"/"worker <lane>") a pool
  /// worker lane emits its parallel-region and RAII spans on (src/exec).
  int worker_track(int lane);

  Clock track_domain(int track) const {
    std::lock_guard<std::mutex> lk(m_);
    return tracks_[track].domain;
  }

  // ------------------------------------------------------------ events --
  // `ts_us` is microseconds in the track's time domain.

  /// Begin a span ('B'); pair with span_end on the same track.
  void span_begin(int track, const std::string& name, const std::string& cat,
                  double ts_us, Args args = {});
  /// End the innermost open span ('E') on `track`.
  void span_end(int track, double ts_us);
  /// Zero-duration instant event ('i', thread scope).
  void instant(int track, const std::string& name, const std::string& cat,
               double ts_us);
  /// Counter sample ('C'): the value of series `name` at `ts_us`.
  void counter(int track, const std::string& name, double ts_us,
               double value);
  /// Flow arrow start/end ('s'/'f'): same `id` links the two endpoints
  /// (message injection on the sender track -> delivery on the receiver
  /// track). The arrow binds to the slice enclosing `ts_us`.
  void flow_begin(int track, const std::string& name, const std::string& cat,
                  double ts_us, std::uint64_t id);
  void flow_end(int track, const std::string& name, const std::string& cat,
                double ts_us, std::uint64_t id);

  std::size_t event_count() const {
    std::lock_guard<std::mutex> lk(m_);
    return events_.size();
  }

  // ------------------------------------------------------------ export --
  /// Chrome trace-event JSON of all tracks in `domain`: metadata
  /// process_name/thread_name events followed by the event stream in
  /// insertion order, one event per line.
  std::string chrome_json(Clock domain) const;

  /// Write chrome_json(domain) to `path`; logs the destination at info
  /// level. Returns false if the file cannot be written.
  bool write_chrome_trace(const std::string& path, Clock domain) const;

 private:
  struct Track {
    std::string process, thread;
    Clock domain;
    int pid = 0, tid = 0;
  };
  struct Event {
    char ph;      // 'B','E','i','C','s','f'
    int track;
    double ts;    // microseconds in the track's domain
    std::string name, cat;
    std::uint64_t id = 0;  // flow id
    double value = 0;      // counter value
    Args args;
  };

  void push(Event e) {
    std::lock_guard<std::mutex> lk(m_);
    events_.push_back(std::move(e));
  }
  int add_track_locked(const std::string& process, const std::string& thread,
                       Clock domain);

  mutable std::mutex m_;
  std::vector<Track> tracks_;
  std::vector<Event> events_;
  std::vector<std::string> processes_;  // pid order (pid = index + 1)
  std::vector<int> worker_tracks_;      // per lane, -1 until created
  int host_track_ = -1;
};

}  // namespace dgr::obs
