#include "dist/sim_comm.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace dgr::dist {

namespace {
constexpr double kUs = 1e6;  // virtual seconds -> trace microseconds
}

SimComm::SimComm(int ranks, perf::HierarchicalNetworkModel net,
                 FaultPlan* faults, double start_clock, int epoch)
    : net_(net),
      stats_(ranks),
      mailbox_(ranks),
      faults_(faults),
      dead_(ranks, false),
      fail_time_(ranks, 0),
      reported_(ranks, false) {
  DGR_CHECK(ranks >= 1 && start_clock >= 0);
  for (auto& s : stats_) s.clock = start_clock;
  trace_ = obs::trace();
  tracks_.resize(ranks);
  if (trace_) {
    for (int r = 0; r < ranks; ++r) {
      std::string proc = "rank " + std::to_string(r);
      if (epoch > 0) proc += " (epoch " + std::to_string(epoch) + ")";
      tracks_[r].exec = trace_->add_track(proc, "exec");
      tracks_[r].halo = trace_->add_track(proc, "halo");
    }
  }
}

void SimComm::trace_span(int track, const std::string& name, const char* cat,
                         double t0, double t1) {
  if (!trace_ || t1 <= t0) return;
  trace_->span_begin(track, name, cat, t0 * kUs);
  trace_->span_end(track, t1 * kUs);
}

double SimComm::max_clock() const {
  double m = 0;
  for (const auto& s : stats_) m = std::max(m, s.clock);
  return m;
}

std::uint64_t SimComm::total_bytes() const {
  std::uint64_t b = 0;
  for (const auto& m : log_) b += m.bytes;
  return b;
}

int SimComm::alive_count() const {
  int n = 0;
  for (std::size_t r = 0; r < dead_.size(); ++r) n += !dead_[r];
  return n;
}

void SimComm::fail_rank(int r, double t) {
  DGR_CHECK(r >= 0 && r < ranks() && t >= 0);
  DGR_CHECK_MSG(!dead_[r], "rank already failed");
  dead_[r] = true;
  fail_time_[r] = t;
  if (trace_) trace_->instant(tracks_[r].exec, "rank-failure", "fault", t * kUs);
}

std::vector<int> SimComm::detect_failures(double heartbeat_period,
                                          double timeout) {
  DGR_CHECK(heartbeat_period > 0 && timeout >= 0);
  std::vector<int> detected;
  double t_base = 0;
  for (int r = 0; r < ranks(); ++r)
    if (!dead_[r]) t_base = std::max(t_base, stats_[r].clock);
  for (int r = 0; r < ranks(); ++r) {
    if (!dead_[r] || reported_[r]) continue;
    reported_[r] = true;
    detected.push_back(r);
    t_base = std::max(t_base, fail_time_[r]);
  }
  if (detected.empty()) return detected;
  // Survivors can only notice missing beats once they reach their sync
  // point (the lockstep engine finishes the interrupted step first): the
  // first heartbeat slot strictly after `t_base` goes unanswered, and
  // death is declared `timeout` later — every survivor stalls until then.
  const double slot =
      (std::floor(t_base / heartbeat_period) + 1) * heartbeat_period;
  const double t_detect = slot + timeout;
  for (int r = 0; r < ranks(); ++r) {
    if (dead_[r]) continue;
    RankStats& s = stats_[r];
    if (t_detect > s.clock) {
      trace_span(tracks_[r].exec, "failure-detect", "fault", s.clock,
                 t_detect);
      s.t_failover += t_detect - s.clock;
      s.clock = t_detect;
    }
  }
  return detected;
}

void SimComm::advance(int r, double seconds) {
  DGR_CHECK(seconds >= 0);
  trace_span(tracks_[r].exec, "compute", "compute", stats_[r].clock,
             stats_[r].clock + seconds);
  stats_[r].clock += seconds;
  stats_[r].t_compute += seconds;
}

SimComm::Request SimComm::irecv(int r, int src, int tag, Payload* out) {
  DGR_CHECK(out != nullptr && r != src);
  Req q;
  q.recv = true;
  q.rank = r;
  q.peer = src;
  q.tag = tag;
  q.t_post = stats_[r].clock;
  q.out = out;
  reqs_.push_back(q);
  return Request{reqs_.size() - 1};
}

SimComm::Request SimComm::isend(int r, int dst, int tag, Payload payload) {
  DGR_CHECK(r != dst);
  const std::uint64_t bytes = payload.size() * sizeof(Real);
  const perf::NetworkModel& link = net_.link(r, dst);
  Req q;
  q.rank = r;
  q.peer = dst;
  q.tag = tag;
  q.t_post = stats_[r].clock;
  q.done = true;  // nonblocking send completes locally at injection
  reqs_.push_back(q);

  // Injection serializes on the sender (alpha per message); the payload is
  // deliverable once it has crossed the wire.
  stats_[r].clock += link.alpha;
  double t_ready = stats_[r].clock + link.beta * double(bytes);
  if (faults_) {
    const FaultPlan::MsgFault f = faults_->draw_msg_fault();
    const FaultConfig& fc = faults_->config();
    if (f.drops > 0) {
      // Each lost attempt costs the receiver-side NACK timeout (backing off
      // per attempt) plus a fresh injection + serialization for the resend.
      double timeout = fc.retry_timeout;
      for (int k = 0; k < f.drops; ++k) {
        t_ready += timeout + link.alpha + link.beta * double(bytes);
        timeout *= fc.retry_backoff;
      }
      stats_[r].retransmits += std::uint64_t(f.drops);
      obs::count("dist.faults.msg_retransmits", std::uint64_t(f.drops));
      if (trace_)
        trace_->instant(tracks_[r].exec, "msg-drop", "fault",
                        q.t_post * kUs);
    } else if (f.delayed) {
      t_ready += (fc.msg_delay_factor - 1.0) * link.beta * double(bytes);
      stats_[r].msgs_delayed += 1;
      obs::count("dist.faults.msg_delayed");
      if (trace_)
        trace_->instant(tracks_[r].exec, "msg-delay", "fault",
                        q.t_post * kUs);
    }
  }
  stats_[r].msgs_sent += 1;
  stats_[r].bytes_sent += bytes;
  const std::uint64_t seq = log_.size();
  if (trace_) {
    trace_->span_begin(tracks_[r].exec, "isend", "comm", q.t_post * kUs,
                       {{"dst", std::to_string(dst)},
                        {"bytes", std::to_string(bytes)}});
    trace_->flow_begin(tracks_[r].exec, "msg", "comm", q.t_post * kUs, seq);
    trace_->span_end(tracks_[r].exec, stats_[r].clock * kUs);
  }
  log_.push_back({r, dst, tag, bytes, q.t_post, t_ready});
  mailbox_[dst].push_back({r, tag, std::move(payload), t_ready, seq});
  return Request{reqs_.size() - 1};
}

void SimComm::wait_all(int r, std::vector<Request>& reqs) {
  double t_post_min = -1, arrival = -1;
  std::vector<std::pair<std::uint64_t, double>> delivered;  // (seq, t_ready)
  for (const Request& h : reqs) {
    DGR_CHECK(h.idx < reqs_.size());
    Req& q = reqs_[h.idx];
    DGR_CHECK(q.rank == r);
    if (q.done) continue;  // sends (or repeated waits)
    DGR_CHECK(q.recv);
    // Match the oldest unconsumed mailbox entry with (src, tag).
    Pending* match = nullptr;
    for (Pending& p : mailbox_[r])
      if (!p.consumed && p.src == q.peer && p.tag == q.tag) {
        match = &p;
        break;
      }
    DGR_CHECK_MSG(match != nullptr, "wait_all: unmatched irecv");
    *q.out = std::move(match->data);
    match->consumed = true;
    q.done = true;
    t_post_min = t_post_min < 0 ? q.t_post : std::min(t_post_min, q.t_post);
    arrival = std::max(arrival, match->t_ready);
    if (trace_) delivered.emplace_back(match->seq, match->t_ready);
  }
  mailbox_[r].erase(
      std::remove_if(mailbox_[r].begin(), mailbox_[r].end(),
                     [](const Pending& p) { return p.consumed; }),
      mailbox_[r].end());
  if (arrival < 0) return;  // nothing but sends

  RankStats& s = stats_[r];
  const double t_wait = s.clock;
  const double exposed = std::max(0.0, arrival - t_wait);
  // Portion of the comm window [t_post_min, arrival] covered by the compute
  // this rank performed between posting the receives and waiting.
  const double hidden =
      std::max(0.0, std::min(t_wait, arrival) - t_post_min);
  s.t_comm_exposed += exposed;
  s.t_comm_hidden += hidden;
  // Virtual-clock durations are deterministic model outputs, so these
  // histograms are safe to record unconditionally (unlike wall-clock
  // timing histograms, which are gated behind enable_timing).
  obs::observe_hist("dist.halo.exposed_us", exposed * kUs);
  obs::observe_hist("dist.halo.hidden_us", hidden * kUs);
  if (trace_) {
    // Halo row: the comm window split into its hidden and exposed parts.
    const double t_split = std::min(t_wait, arrival);
    trace_span(tracks_[r].halo, "halo hidden", "comm", t_post_min, t_split);
    trace_span(tracks_[r].halo, "halo exposed", "comm", t_split, arrival);
    // Exec row: the stall, if any.
    trace_span(tracks_[r].exec, "wait", "comm", t_wait, arrival);
    // Message-flow arrows terminate at each payload's delivery time.
    for (const auto& [seq, t_ready] : delivered)
      trace_->flow_end(tracks_[r].halo, "msg", "comm", t_ready * kUs, seq);
  }
  s.clock = std::max(s.clock, arrival);
}

double SimComm::reduce_clocks(std::uint64_t bytes) {
  const double sync = max_clock();
  const double cost = net_.allreduce_time(ranks(), bytes);
  for (int r = 0; r < ranks(); ++r) {
    RankStats& s = stats_[r];
    trace_span(tracks_[r].exec, "allreduce", "collective", s.clock,
               sync + cost);
    s.t_collective += (sync + cost) - s.clock;
    s.clock = sync + cost;
  }
  return cost;
}

double SimComm::allreduce_min(const std::vector<double>& contrib) {
  DGR_CHECK(contrib.size() == stats_.size());
  reduce_clocks(sizeof(double));
  return *std::min_element(contrib.begin(), contrib.end());
}

SimComm::Payload SimComm::allgather(const std::vector<Payload>& contrib) {
  DGR_CHECK(contrib.size() == stats_.size());
  const double sync = max_clock();
  // Ring allgather: every rank receives each other rank's block once, so
  // rank r pays sum over peers of one message of that peer's block over the
  // peer->r link.
  for (int r = 0; r < ranks(); ++r) {
    double cost = 0;
    for (int p = 0; p < ranks(); ++p) {
      if (p == r) continue;
      cost += net_.time(p, r, contrib[p].size() * sizeof(Real), 1);
      stats_[p].msgs_sent += 1;  // each block forwarded once along the ring
      stats_[p].bytes_sent += contrib[p].size() * sizeof(Real);
    }
    trace_span(tracks_[r].exec, "allgather", "collective", stats_[r].clock,
               sync + cost);
    stats_[r].t_collective += (sync + cost) - stats_[r].clock;
    stats_[r].clock = sync + cost;
  }
  Payload all;
  for (const Payload& c : contrib) all.insert(all.end(), c.begin(), c.end());
  return all;
}

}  // namespace dgr::dist
