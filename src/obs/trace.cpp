#include "obs/trace.hpp"

#include "common/file_io.hpp"
#include "common/json.hpp"
#include "common/log.hpp"

namespace dgr::obs {

int TraceSession::add_track(const std::string& process,
                            const std::string& thread) {
  std::lock_guard<std::mutex> lk(m_);
  Track t;
  t.process = process;
  t.thread = thread;
  // pid: index of the process name in first-seen order (1-based); tid:
  // 1-based row count within that process.
  int pid = 0;
  for (std::size_t i = 0; i < processes_.size(); ++i)
    if (processes_[i] == process) pid = static_cast<int>(i) + 1;
  if (pid == 0) {
    processes_.push_back(process);
    pid = static_cast<int>(processes_.size());
  }
  int tid = 1;
  for (const Track& other : tracks_)
    if (other.pid == pid) ++tid;
  t.pid = pid;
  t.tid = tid;
  tracks_.push_back(t);
  return static_cast<int>(tracks_.size()) - 1;
}

void TraceSession::span_begin(int track, const std::string& name,
                              const std::string& cat, double ts_us,
                              Args args) {
  push({'B', track, ts_us, name, cat, 0, 0, std::move(args)});
}

void TraceSession::span_end(int track, double ts_us) {
  push({'E', track, ts_us, "", "", 0, 0, {}});
}

void TraceSession::instant(int track, const std::string& name,
                           const std::string& cat, double ts_us) {
  push({'i', track, ts_us, name, cat, 0, 0, {}});
}

void TraceSession::counter(int track, const std::string& name, double ts_us,
                           double value) {
  push({'C', track, ts_us, name, "", 0, value, {}});
}

void TraceSession::flow_begin(int track, const std::string& name,
                              const std::string& cat, double ts_us,
                              std::uint64_t id) {
  push({'s', track, ts_us, name, cat, id, 0, {}});
}

void TraceSession::flow_end(int track, const std::string& name,
                            const std::string& cat, double ts_us,
                            std::uint64_t id) {
  push({'f', track, ts_us, name, cat, id, 0, {}});
}

std::string TraceSession::chrome_json() const {
  using jsonu::num;
  using jsonu::quote;
  std::lock_guard<std::mutex> lk(m_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&](const std::string& line) {
    if (!first) out += ",\n";
    out += line;
    first = false;
  };

  // Metadata: name every process and thread once.
  std::vector<bool> pid_named(processes_.size() + 1, false);
  for (const Track& t : tracks_) {
    if (!pid_named[t.pid]) {
      emit("{\"ph\":\"M\",\"pid\":" + num(t.pid) +
           ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":" +
           quote(t.process) + "}}");
      pid_named[t.pid] = true;
    }
    emit("{\"ph\":\"M\",\"pid\":" + num(t.pid) + ",\"tid\":" +
         num(t.tid) + ",\"name\":\"thread_name\",\"args\":{\"name\":" +
         quote(t.thread) + "}}");
  }

  for (const Event& e : events_) {
    const Track& t = tracks_[e.track];
    std::string line = "{\"ph\":\"";
    line += e.ph;
    line += "\",\"pid\":" + num(t.pid) + ",\"tid\":" + num(t.tid) +
            ",\"ts\":" + num(e.ts);
    if (e.ph != 'E') line += ",\"name\":" + quote(e.name);
    if (!e.cat.empty()) line += ",\"cat\":" + quote(e.cat);
    if (e.ph == 'i') line += ",\"s\":\"t\"";
    if (e.ph == 's' || e.ph == 'f') line += ",\"id\":" + num(e.id);
    if (e.ph == 'f') line += ",\"bp\":\"e\"";
    if (e.ph == 'C') {
      line += ",\"args\":{\"value\":" + num(e.value) + "}";
    } else if (!e.args.empty()) {
      line += ",\"args\":{";
      bool f2 = true;
      for (const auto& [k, v] : e.args) {
        if (!f2) line += ",";
        line += quote(k) + ":" + quote(v);
        f2 = false;
      }
      line += "}";
    }
    line += "}";
    emit(line);
  }
  out += "\n]}\n";
  return out;
}

bool TraceSession::write_chrome_trace(const std::string& path) const {
  if (!write_file_atomic(path, {chrome_json()})) {
    log::error("trace: cannot write " + path);
    return false;
  }
  log::info("trace: wrote " + path + " (" +
            jsonu::num(std::uint64_t(event_count())) + " events)");
  return true;
}

}  // namespace dgr::obs
