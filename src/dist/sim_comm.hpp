#pragma once
/// \file sim_comm.hpp
/// \brief Simulated message router for the multi-rank execution engine, in
/// the same spirit as simgpu::GpuRuntime: real payloads move between
/// per-rank mailboxes under a nonblocking isend/irecv/wait_all API while a
/// per-rank virtual clock advances through perf::HierarchicalNetworkModel.
/// Every message is logged (src, dst, tag, bytes, injection and delivery
/// times), which is what the scaling benches (Figs. 17, 18, 20) read their
/// executed-schedule timings from.
///
/// Virtual-clock semantics. `advance(r, s)` models rank-local compute.
/// `isend` charges the sender the link's per-message latency alpha
/// (injection) and stamps the payload deliverable at
///   t_ready = clock[src] + alpha + beta * bytes
/// over the src->dst link. `wait_all` on the receiver completes a batch of
/// requests: the clock jumps to max(clock, latest t_ready), and the comm
/// window [t_post, latest t_ready] is split into a hidden part (covered by
/// compute the rank performed between posting the receives and waiting)
/// and an exposed part (time spent stalled in the wait). This makes
/// overlap a measured quantity instead of an assumption.
///
/// Observability: when an obs::TraceSession is installed at construction,
/// every rank gets two virtual-time tracks — "exec" (compute spans, sends,
/// exposed waits, collectives) and "halo" (the comm window split into
/// "halo hidden" / "halo exposed" spans) — and every message draws a flow
/// arrow from its injection on the sender to its delivery on the receiver,
/// rendering the overlapped schedule directly in Perfetto.
///
/// Faults. When a FaultPlan is attached, isend consults it once per message
/// (deterministic, injection order): a *dropped* attempt is retransmitted
/// after a receiver-side timeout with exponential backoff (bounded by
/// max_retries, then forced through — payloads are never lost, only late),
/// and a *delayed* message pays a multiplied serialization term. Rank
/// failures are fail-stop: fail_rank(r, t) marks the rank dead as of
/// virtual time t and stops its heartbeats; detect_failures() realizes the
/// survivors' failure detector — a rank is declared dead `timeout` after
/// its first missed heartbeat, and every survivor's clock advances to that
/// detection instant (charged to RankStats::t_failover).

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "dist/fault.hpp"
#include "obs/obs.hpp"
#include "perf/network.hpp"

namespace dgr::dist {

/// One logged point-to-point message.
struct MsgLog {
  int src = 0, dst = 0, tag = 0;
  std::uint64_t bytes = 0;
  double t_send = 0;   ///< sender clock at injection
  double t_ready = 0;  ///< virtual time the payload is deliverable at dst
};

/// Per-rank virtual-time accounting.
struct RankStats {
  double clock = 0;           ///< current virtual time
  double t_compute = 0;       ///< time advanced via advance()
  double t_comm_exposed = 0;  ///< wait time not covered by compute
  double t_comm_hidden = 0;   ///< comm window overlapped with compute
  double t_collective = 0;    ///< allreduce / allgather time
  double t_failover = 0;      ///< stall waiting out a peer's heartbeat timeout
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t retransmits = 0;    ///< dropped attempts resent by this rank
  std::uint64_t msgs_delayed = 0;   ///< messages delivered late by a fault
};

class SimComm {
 public:
  using Payload = std::vector<Real>;

  /// Handle returned by isend/irecv, completed by wait_all.
  struct Request {
    std::size_t idx = static_cast<std::size_t>(-1);
  };

  /// `faults` (borrowed, may be null) supplies the per-message fault draws.
  /// `start_clock` seeds every rank's virtual clock — a recovered epoch
  /// resumes where detection left off, keeping t_virtual continuous.
  /// `epoch` labels the trace tracks of post-recovery communicators.
  SimComm(int ranks, perf::HierarchicalNetworkModel net,
          FaultPlan* faults = nullptr, double start_clock = 0, int epoch = 0);

  int ranks() const { return static_cast<int>(stats_.size()); }
  const perf::HierarchicalNetworkModel& net() const { return net_; }
  const RankStats& stats(int r) const { return stats_[r]; }
  double clock(int r) const { return stats_[r].clock; }
  double max_clock() const;
  const std::vector<MsgLog>& log() const { return log_; }
  std::uint64_t total_messages() const { return log_.size(); }
  std::uint64_t total_bytes() const;

  // ------------------------------------------------- failure detection --
  bool alive(int r) const { return !dead_[r]; }
  int alive_count() const;
  /// Fail-stop: rank r dies at virtual time t (its heartbeats cease).
  void fail_rank(int r, double t);
  /// Survivor-side failure detector: returns the dead-but-unreported ranks,
  /// advancing every survivor's clock to the detection instant — the first
  /// heartbeat slot after the survivors' sync point (max over survivor
  /// clocks and failure times) goes unanswered, and death is declared
  /// `timeout` later. The stall is charged to RankStats::t_failover.
  std::vector<int> detect_failures(double heartbeat_period, double timeout);

  /// Rank-local compute for `seconds` of virtual time.
  void advance(int r, double seconds);

  /// Nonblocking receive on rank r of a message (src, tag); the payload is
  /// delivered into *out by wait_all.
  Request irecv(int r, int src, int tag, Payload* out);

  /// Nonblocking send from rank r; the payload is moved into the router.
  Request isend(int r, int dst, int tag, Payload payload);

  /// Complete the given requests on rank r, advancing its clock past the
  /// latest delivery and splitting the comm window into hidden/exposed.
  void wait_all(int r, std::vector<Request>& reqs);

  /// Collectives. The lockstep driver passes every rank's contribution at
  /// once; all clocks synchronize to max(clock) + modeled collective time.
  double allreduce_min(const std::vector<double>& contrib);

  /// Allgather of variable-length per-rank payloads (ring schedule: every
  /// rank receives each other rank's block once). Returns the payloads
  /// concatenated in rank order — identical on every rank.
  Payload allgather(const std::vector<Payload>& contrib);

 private:
  struct Pending {  // in-flight message in a mailbox
    int src, tag;
    Payload data;
    double t_ready;
    std::uint64_t seq = 0;  ///< message sequence (flow-arrow id)
    bool consumed = false;
  };
  struct Req {
    bool recv = false;
    int rank = -1, peer = -1, tag = 0;
    double t_post = 0;
    Payload* out = nullptr;  // recv only
    bool done = false;
  };

  double reduce_clocks(std::uint64_t bytes);  // sync + tree allreduce cost

  // Trace helpers (no-ops when no session was installed at construction).
  void trace_span(int track, const std::string& name, const char* cat,
                  double t0, double t1);

  perf::HierarchicalNetworkModel net_;
  std::vector<RankStats> stats_;
  std::vector<std::vector<Pending>> mailbox_;  // per destination rank
  std::vector<Req> reqs_;
  std::vector<MsgLog> log_;

  FaultPlan* faults_ = nullptr;  ///< borrowed; may be null
  std::vector<bool> dead_;
  std::vector<double> fail_time_;  ///< valid where dead_
  std::vector<bool> reported_;     ///< death surfaced by detect_failures

  obs::TraceSession* trace_ = nullptr;  ///< borrowed; set at construction
  struct RankTracks {
    int exec = -1, halo = -1;
  };
  std::vector<RankTracks> tracks_;
};

}  // namespace dgr::dist
