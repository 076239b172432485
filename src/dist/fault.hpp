#pragma once
/// \file fault.hpp
/// \brief Deterministic fault injection for the simulated multi-rank engine.
/// Production NR campaigns (Table IV) run for days to weeks across thousands
/// of GPUs, where node loss and flaky links are routine; the engine therefore
/// carries a fault model instead of assuming a perfect machine.
///
/// A FaultPlan is built once per run from a FaultConfig and a dgr::Rng seed.
/// It holds two deterministic streams:
///   - fail-stop rank failures at chosen virtual-clock times (explicit
///     events plus optionally randomized ones), consumed in time order by
///     the engine's recovery protocol, and
///   - per-message fault draws (drop -> bounded retransmit with exponential
///     backoff, or delay), consumed by SimComm::isend in injection order.
/// Both streams only perturb the *virtual clock*: a dropped message is
/// retransmitted with its payload intact and a failed rank is recovered
/// from the last coordinated checkpoint, so a faulted run's final state and
/// Psi4 waveforms are bitwise identical to the fault-free run — the
/// invariant the fault-recovery tests and CI smoke job assert.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace dgr::dist {

/// A default FaultConfig injects nothing: the plan is active only when it
/// holds a failure event (explicit or random) or a positive drop or delay
/// probability (FaultPlan::active).
struct FaultConfig {
  /// Seed of the plan's deterministic stream (event generation first, then
  /// one draw per injected message).
  std::uint64_t seed = 0xD15FA17ULL;

  /// One fail-stop rank failure: the rank dies at virtual time `t_virtual`.
  /// `rank` is interpreted modulo the live rank count of the epoch in which
  /// the failure fires, so plans stay valid across recoveries.
  struct RankFailure {
    double t_virtual = 0;
    int rank = 0;
  };
  /// Explicit failures (tests and benches pick exact instants).
  std::vector<RankFailure> rank_failures;
  /// Additional randomized failures, uniform in [t_min, t_max).
  int random_failures = 0;
  double random_fail_t_min = 0;
  double random_fail_t_max = 0;

  /// Per-message fault probabilities (drawn once per isend).
  double msg_drop_prob = 0;   ///< attempt lost; retransmitted after timeout
  double msg_delay_prob = 0;  ///< delivered late by `msg_delay_factor`
  double msg_delay_factor = 4.0;  ///< multiplier on the serialization term

  /// Failure detector: a live rank heartbeats every `heartbeat_period` of
  /// virtual time; survivors declare it dead `heartbeat_timeout` after the
  /// first missed beat (SimComm::detect_failures).
  double heartbeat_period = 1e-4;
  double heartbeat_timeout = 4e-4;

  /// Dropped-message retransmit protocol: the receiver NACKs after
  /// `retry_timeout` (doubling by `retry_backoff` per attempt); after
  /// `max_retries` lost attempts the next retransmit is delivered — the
  /// link degrades, it does not partition (see DESIGN.md, fault model).
  int max_retries = 3;
  double retry_timeout = 2e-4;
  double retry_backoff = 2.0;
};

/// The materialized, deterministic schedule of a run's injected faults.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(const FaultConfig& cfg);

  const FaultConfig& config() const { return cfg_; }
  /// Whether the plan injects anything: a failure event or a positive
  /// message-fault probability. An inactive plan is never attached to a
  /// SimComm.
  bool active() const {
    return !events_.empty() || cfg_.msg_drop_prob > 0 ||
           cfg_.msg_delay_prob > 0;
  }

  /// All failure events, sorted by time (randomized ones materialized).
  const std::vector<FaultConfig::RankFailure>& failures() const {
    return events_;
  }

  /// Earliest unconsumed failure with t_virtual <= now, or nullptr.
  const FaultConfig::RankFailure* pending_failure(double now) const;
  /// Consume the event returned by pending_failure.
  void consume_failure();

  /// One per-message draw (SimComm::isend, injection order): how many
  /// attempts are dropped before delivery (bounded by max_retries) and
  /// whether the delivered attempt is delayed.
  struct MsgFault {
    int drops = 0;
    bool delayed = false;
  };
  MsgFault draw_msg_fault();

 private:
  FaultConfig cfg_;
  std::vector<FaultConfig::RankFailure> events_;  ///< sorted by t_virtual
  std::size_t next_event_ = 0;
  Rng rng_;
};

}  // namespace dgr::dist
