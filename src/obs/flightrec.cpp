#include "obs/flightrec.hpp"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <memory>
#include <mutex>
#include <vector>

#include "common/file_io.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"

namespace dgr::obs::flightrec {

namespace {

constexpr std::size_t kDefaultBytes = 64 * 1024;

/// One thread's ring. Single writer (the owning thread); readers (dump
/// paths) tolerate a torn in-progress entry by never reading past head_.
struct Ring {
  explicit Ring(std::size_t cap) : entries(cap) {}
  std::vector<Entry> entries;
  // Total entries ever written; entry i lives at entries[i % size]. The
  // writer publishes with release so a dumping thread sees the entry
  // bytes before the advanced head.
  std::atomic<std::uint64_t> head{0};
  int tid = 0;  ///< registration order, stable across the process lifetime
};

struct State {
  std::mutex m;  // guards rings registration + capacity, NOT recording
  std::vector<std::unique_ptr<Ring>> rings;
  std::size_t capacity_bytes = 0;  // 0 = read env on first use
  std::atomic<bool> enabled{true};
  bool enabled_initialized = false;
  char crash_path[512] = "flightrec.json";
  std::atomic<bool> handler_installed{false};
};

State& state() {
  static State s;
  return s;
}

std::size_t capacity_bytes_locked(State& s) {
  if (s.capacity_bytes == 0) {
    // Strict knob: a typo'd DGR_FLIGHTREC_KB throws at first use instead of
    // silently recording into the default-sized ring (std::atol returned 0
    // for garbage, which the old code treated as "unset").
    const long kb = dgr::env_count("DGR_FLIGHTREC_KB", 0, 1, 1L << 32);
    s.capacity_bytes = kb > 0 ? std::size_t(kb) * 1024 : kDefaultBytes;
  }
  return s.capacity_bytes;
}

/// The calling thread's ring, registering it on first use. The returned
/// pointer stays valid for the process lifetime (reset() is a test-only
/// hook and documents it is unsafe under concurrent recording) — but a
/// generation counter invalidates cached pointers across reset() so
/// single-threaded tests can reuse threads.
std::atomic<std::uint64_t> g_generation{0};

Ring* my_ring() {
  thread_local Ring* cached = nullptr;
  thread_local std::uint64_t cached_gen = ~std::uint64_t(0);
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (cached && cached_gen == gen) return cached;
  State& s = state();
  std::lock_guard<std::mutex> lk(s.m);
  const std::size_t cap_entries =
      std::max<std::size_t>(1, capacity_bytes_locked(s) / sizeof(Entry));
  auto ring = std::make_unique<Ring>(cap_entries);
  ring->tid = int(s.rings.size());
  cached = ring.get();
  cached_gen = gen;
  s.rings.push_back(std::move(ring));
  return cached;
}

void push(Ring* r, const Entry& e) {
  const std::uint64_t h = r->head.load(std::memory_order_relaxed);
  r->entries[h % r->entries.size()] = e;
  r->head.store(h + 1, std::memory_order_release);
}

bool env_enabled() {
  if (const char* e = std::getenv("DGR_FLIGHTREC")) {
    return std::strcmp(e, "off") != 0 && std::strcmp(e, "0") != 0;
  }
  return true;
}

std::atomic<bool>& enabled_flag() {
  State& s = state();
  if (!s.enabled_initialized) {
    std::lock_guard<std::mutex> lk(s.m);
    if (!s.enabled_initialized) {
      s.enabled.store(env_enabled(), std::memory_order_relaxed);
      s.enabled_initialized = true;
    }
  }
  return s.enabled;
}

/// Append one entry as a Chrome trace event object. Shared by dump_json
/// (std::string) and crash_dump (snprintf); this is the string flavor.
void append_event(std::string& out, const Entry& e, int tid, bool& first) {
  using jsonu::num;
  using jsonu::quote;
  if (!first) out += ",\n";
  first = false;
  out += "{\"name\":" + quote(e.name ? e.name : "?") + ",\"cat\":" +
         quote(e.cat ? e.cat : "host") + ",\"ph\":\"X\",\"pid\":1,\"tid\":" +
         num(tid) + ",\"ts\":" + num(e.ts_us) + ",\"dur\":" + num(e.dur_us) +
         "}";
}

/// Collect one ring's live entries oldest-first into `out` (reader side of
/// the single-writer ring: clamp to capacity, start at head - n).
std::size_t collect(const Ring& r, std::vector<Entry>& out) {
  const std::uint64_t head = r.head.load(std::memory_order_acquire);
  const std::uint64_t cap = r.entries.size();
  const std::uint64_t n = head < cap ? head : cap;
  out.clear();
  out.reserve(std::size_t(n));
  for (std::uint64_t i = head - n; i < head; ++i)
    out.push_back(r.entries[i % cap]);
  return std::size_t(n);
}

}  // namespace

bool enabled() {
  return enabled_flag().load(std::memory_order_relaxed);
}

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

void set_capacity_bytes(std::size_t bytes) {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.m);
  s.capacity_bytes = bytes ? bytes : kDefaultBytes;
}

std::size_t capacity_entries() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.m);
  return std::max<std::size_t>(1, capacity_bytes_locked(s) / sizeof(Entry));
}

void record_span(const char* name, const char* cat, double ts_us,
                 double dur_us) {
  if (!enabled()) return;
  push(my_ring(), Entry{ts_us, dur_us, name, cat});
}

std::size_t recorded_entries() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.m);
  std::size_t total = 0;
  for (const auto& r : s.rings) {
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    const std::uint64_t cap = r->entries.size();
    total += std::size_t(head < cap ? head : cap);
  }
  return total;
}

std::string dump_path() {
  if (const char* e = std::getenv("DGR_FLIGHTREC_PATH")) {
    if (*e) return e;
  }
  return "flightrec.json";
}

std::string dump_json() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.m);
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  std::vector<Entry> scratch;
  for (const auto& r : s.rings) {
    collect(*r, scratch);
    for (const Entry& e : scratch) append_event(out, e, r->tid, first);
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool dump(const std::string& path) {
  if (!enabled()) return false;
  if (recorded_entries() == 0) return false;
  const std::string dest = path.empty() ? dump_path() : path;
  if (!write_file_atomic(dest, {dump_json()})) {
    log::error("flightrec: cannot write " + dest);
    return false;
  }
  log::info("flightrec: wrote " + dest);
  return true;
}

void crash_dump(const char* path) {
  // Async-signal path: open(2)/write(2) + snprintf into a stack buffer.
  // Skip the registry lock entirely — the crashing thread may hold it.
  // Rings are only ever appended to, so iterating a stale size is safe;
  // we re-read the vector state without locking and accept the race.
  State& s = state();
  const int fd =
      ::open(path && *path ? path : s.crash_path,
             O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  char buf[512];
  auto emit = [&](const char* p, std::size_t n) {
    std::size_t off = 0;
    while (off < n) {
      const ssize_t w = ::write(fd, p + off, n - off);
      if (w <= 0) {
        if (errno == EINTR) continue;
        return;
      }
      off += std::size_t(w);
    }
  };
  emit("{\"traceEvents\":[\n", 17);
  bool first = true;
  const std::size_t nrings = s.rings.size();
  for (std::size_t ri = 0; ri < nrings; ++ri) {
    Ring* r = s.rings[ri].get();
    if (!r) continue;
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    const std::uint64_t cap = r->entries.size();
    const std::uint64_t n = head < cap ? head : cap;
    for (std::uint64_t i = head - n; i < head; ++i) {
      const Entry e = r->entries[i % cap];
      const int len = std::snprintf(
          buf, sizeof buf,
          "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
          "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
          first ? "" : ",\n", e.name ? e.name : "?", e.cat ? e.cat : "host",
          r->tid, e.ts_us, e.dur_us);
      if (len > 0 && std::size_t(len) < sizeof buf) {
        emit(buf, std::size_t(len));
        first = false;
      }
    }
  }
  emit("\n],\"displayTimeUnit\":\"ms\"}\n", 27);
  ::close(fd);
}

namespace {

void crash_handler(int sig) {
  static std::atomic<bool> dumping{false};
  bool expected = false;
  if (dumping.compare_exchange_strong(expected, true)) {
    const char msg[] = "flightrec: fatal signal, dumping ring buffers\n";
    [[maybe_unused]] ssize_t ignored = ::write(2, msg, sizeof msg - 1);
    crash_dump(nullptr);
  }
  // Re-raise with the default disposition so the process still dies with
  // the original signal (and the usual core/exit-status semantics).
  std::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void install_crash_handler(const char* path) {
  State& s = state();
  if (path && *path) {
    std::lock_guard<std::mutex> lk(s.m);
    std::snprintf(s.crash_path, sizeof s.crash_path, "%s", path);
  } else {
    const std::string p = dump_path();
    std::lock_guard<std::mutex> lk(s.m);
    std::snprintf(s.crash_path, sizeof s.crash_path, "%s", p.c_str());
  }
  bool expected = false;
  if (!s.handler_installed.compare_exchange_strong(expected, true)) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = crash_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE})
    ::sigaction(sig, &sa, nullptr);
}

void reset() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.m);
  s.rings.clear();
  s.capacity_bytes = 0;
  g_generation.fetch_add(1, std::memory_order_release);
}

}  // namespace dgr::obs::flightrec
