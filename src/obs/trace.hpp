#pragma once
/// \file trace.hpp
/// \brief TraceSession: the virtual-time timeline of the simulated ranks —
/// typed span / instant / counter / flow events on named tracks, exported
/// as Chrome trace-event JSON (loadable in chrome://tracing and Perfetto).
///
/// Every timestamp is modeled virtual time (dist::SimComm rank clocks, in
/// microseconds of virtual time): per-rank compute spans, hidden/exposed
/// comm windows, message-flow arrows from sender to receiver, and the
/// engine's step/regrid/recovery marks. Host time has its own timeline,
/// the flight recorder (obs/flightrec.hpp), which every obs::ScopedSpan
/// feeds; no host-time event reaches a session.
///
/// Events are serialized in insertion order, one per line, with numbers in
/// shortest round-trip form — a deterministic input stream yields a
/// byte-identical trace, which is what the golden-file tests pin down.
///
/// Thread safety: every event call and track registration is guarded by an
/// internal mutex. The dist engine emits only from the thread that calls
/// evolve_distributed, so the event stream, and with it the export, is the
/// same at any host thread count.

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dgr::obs {

class TraceSession {
 public:
  using Args = std::vector<std::pair<std::string, std::string>>;

  /// Register a timeline row. Tracks with the same `process` name share a
  /// pid in the exported trace; `thread` names the row (tid). Returns the
  /// track handle used by all event calls.
  int add_track(const std::string& process, const std::string& thread);

  // ------------------------------------------------------------ events --
  // `ts_us` is microseconds of virtual time.

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
  /// Chrome trace-event JSON: metadata process_name/thread_name events
  /// followed by the event stream in insertion order, one event per line.
  std::string chrome_json() const;

  /// Write chrome_json() atomically to `path`; logs the destination at info
  /// level once it is in place. Returns false if the write failed.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Track {
    std::string process, thread;
    int pid = 0, tid = 0;
  };
  struct Event {
    char ph;      // 'B','E','i','C','s','f'
    int track;
    double ts;    // microseconds of virtual time
    std::string name, cat;
    std::uint64_t id = 0;  // flow id
    double value = 0;      // counter value
    Args args;
  };

  void push(Event e) {
    std::lock_guard<std::mutex> lk(m_);
    events_.push_back(std::move(e));
  }

  mutable std::mutex m_;
  std::vector<Track> tracks_;
  std::vector<Event> events_;
  std::vector<std::string> processes_;  // pid order (pid = index + 1)
};

}  // namespace dgr::obs
