#include "baselines/reflex_policy.h"

#include <algorithm>

namespace gimbal::baselines {

void ReflexPolicy::OnRequest(const IoRequest& req) {
  Flow& f = flows_[req.tenant];
  f.queue.push_back(req);
  if (!f.in_round) {
    f.in_round = true;
    round_.push_back(req.tenant);
  }
  Pump();
}

void ReflexPolicy::OnTenantDisconnect(TenantId tenant) {
  auto it = flows_.find(tenant);
  if (it == flows_.end()) return;
  common::Fifo<IoRequest> queued = std::move(it->second.queue);
  flows_.erase(it);
  round_.erase(std::remove(round_.begin(), round_.end(), tenant),
               round_.end());
  for (; !queued.empty(); queued.pop_front()) {
    FailRequest(queued.front(), IoStatus::kAborted);
  }
}

void ReflexPolicy::RefillTokens() {
  Tick now = sim_.now();
  if (!refill_started_) {
    refill_started_ = true;
    last_refill_ = now;
    return;
  }
  tokens_ += params_.token_rate * static_cast<double>(now - last_refill_) /
             kNsPerSec;
  if (tokens_ > params_.bucket_cap) tokens_ = params_.bucket_cap;
  last_refill_ = now;
}

void ReflexPolicy::Pump() {
  RefillTokens();
  // DRR over flows, spending the calibrated token cost per request. Like
  // any DRR, a head request costing several quanta accumulates deficit
  // over consecutive rounds, so keep cycling until a dispatch happens or
  // the device tokens run dry (costs are bounded, so this terminates).
  constexpr size_t kMaxPasses = 100000;
  for (size_t i = 0; i < kMaxPasses && !round_.empty(); ++i) {
    TenantId id = round_.front();
    Flow& f = flows_[id];
    if (f.queue.empty()) {
      f.in_round = false;
      f.deficit = 0;
      round_.pop_front();
      continue;
    }
    double cost = TokenCost(f.queue.front());
    if (f.deficit < cost) {
      f.deficit += params_.quantum;
      round_.pop_front();
      round_.push_back(id);
      continue;
    }
    if (tokens_ < cost && tokens_ < params_.bucket_cap) {
      // Out of device tokens: retry when enough have accrued. A request
      // costing more than the bucket cap dispatches from a full bucket and
      // drives the balance negative, which throttles what follows —
      // otherwise it could never be served at all.
      double need = std::min(cost, params_.bucket_cap) - tokens_;
      SchedulePoke(static_cast<Tick>(need / params_.token_rate * kNsPerSec) +
                   Microseconds(1));
      return;
    }
    tokens_ -= cost;
    f.deficit -= cost;
    IoRequest req = f.queue.front();
    f.queue.pop_front();
    SubmitToDevice(req);
    // Restart the scan: the same flow may continue while its deficit lasts.
    i = 0;
  }
}

void ReflexPolicy::SchedulePoke(Tick delay) {
  if (poke_scheduled_) return;
  poke_scheduled_ = true;
  sim_.After(delay, [this]() {
    poke_scheduled_ = false;
    Pump();
  });
}

void ReflexPolicy::OnDeviceCompletion(const IoRequest& req,
                                      const ssd::DeviceCompletion& dc,
                                      uint64_t /*tag*/) {
  Deliver(req, dc);
  Pump();
}

}  // namespace gimbal::baselines
