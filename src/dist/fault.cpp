#include "dist/fault.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dgr::dist {

FaultPlan::FaultPlan(const FaultConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
  DGR_CHECK(cfg.msg_drop_prob >= 0 && cfg.msg_drop_prob <= 1);
  DGR_CHECK(cfg.msg_delay_prob >= 0 && cfg.msg_delay_prob <= 1);
  DGR_CHECK(cfg.msg_drop_prob + cfg.msg_delay_prob <= 1);
  DGR_CHECK(cfg.heartbeat_period > 0 && cfg.heartbeat_timeout >= 0);
  DGR_CHECK(cfg.max_retries >= 0 && cfg.retry_timeout > 0);
  DGR_CHECK(cfg.retry_backoff >= 1);
  events_ = cfg.rank_failures;
  // Randomized failures draw (time, rank spec) pairs before any message
  // draw happens, so the two streams stay reproducible independently of
  // how many messages the schedule injects.
  for (int i = 0; i < cfg.random_failures; ++i) {
    FaultConfig::RankFailure f;
    f.t_virtual = rng_.uniform(cfg.random_fail_t_min, cfg.random_fail_t_max);
    f.rank = static_cast<int>(rng_.uniform_int(1u << 20));
    events_.push_back(f);
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultConfig::RankFailure& a,
                      const FaultConfig::RankFailure& b) {
                     return a.t_virtual < b.t_virtual;
                   });
}

const FaultConfig::RankFailure* FaultPlan::pending_failure(double now) const {
  if (next_event_ >= events_.size()) return nullptr;
  const FaultConfig::RankFailure& f = events_[next_event_];
  return f.t_virtual <= now ? &f : nullptr;
}

void FaultPlan::consume_failure() {
  DGR_CHECK(next_event_ < events_.size());
  ++next_event_;
}

FaultPlan::MsgFault FaultPlan::draw_msg_fault() {
  MsgFault out;
  if (cfg_.msg_drop_prob <= 0 && cfg_.msg_delay_prob <= 0) return out;
  const double u = rng_.uniform();
  if (u < cfg_.msg_drop_prob) {
    // First attempt lost; each retransmit is lost again with the same
    // probability, up to max_retries — then the link is forced good.
    out.drops = 1;
    while (out.drops < cfg_.max_retries &&
           rng_.uniform() < cfg_.msg_drop_prob)
      ++out.drops;
  } else if (u < cfg_.msg_drop_prob + cfg_.msg_delay_prob) {
    out.delayed = true;
  }
  return out;
}

}  // namespace dgr::dist
