#include "baselines/flashfq_policy.h"

#include <algorithm>
#include <limits>

namespace gimbal::baselines {

void FlashFqPolicy::OnRequest(const IoRequest& req) {
  Flow& f = flows_[req.tenant];
  // SFQ tag assignment at arrival: start chains behind the flow's previous
  // finish or the system virtual time, whichever is later.
  double start = std::max(vtime_, f.last_finish);
  f.last_finish = start + Cost(req);
  f.anticipating = false;  // the awaited request arrived
  f.queue.push_back(Tagged{req, start});
  Pump();
}

void FlashFqPolicy::OnTenantDisconnect(TenantId tenant) {
  auto it = flows_.find(tenant);
  if (it == flows_.end()) return;
  common::Fifo<Tagged> queued = std::move(it->second.queue);
  flows_.erase(it);
  for (; !queued.empty(); queued.pop_front()) {
    FailRequest(queued.front().req, IoStatus::kAborted);
  }
}

void FlashFqPolicy::Pump() {
  while (outstanding_ < params_.depth) {
    // Pick the backlogged flow with the smallest head start tag.
    Flow* best = nullptr;
    double best_tag = std::numeric_limits<double>::infinity();
    for (auto& [id, f] : flows_) {
      if (f.queue.empty()) continue;
      if (f.queue.front().start_tag < best_tag) {
        best_tag = f.queue.front().start_tag;
        best = &f;
      }
    }
    if (best == nullptr) return;

    // Anticipation (deceptive idleness): if some flow just completed an IO,
    // has nothing queued, and its next request would deserve service before
    // `best`, hold off briefly — but only while the device stays busy.
    if (outstanding_ > 0) {
      Tick now = sim_.now();
      for (auto& [id, f] : flows_) {
        if (!f.queue.empty() || f.last_completion < 0) continue;
        if (now - f.last_completion < params_.anticipation &&
            f.last_finish < best_tag) {
          f.anticipating = true;
          if (!poke_scheduled_) {
            poke_scheduled_ = true;
            sim_.After(params_.anticipation, [this]() {
              poke_scheduled_ = false;
              Pump();
            });
          }
          return;
        }
      }
    }

    Tagged t = best->queue.front();
    best->queue.pop_front();
    vtime_ = std::max(vtime_, t.start_tag);
    ++outstanding_;
    SubmitToDevice(t.req);
  }
}

void FlashFqPolicy::OnDeviceCompletion(const IoRequest& req,
                                       const ssd::DeviceCompletion& dc,
                                       uint64_t /*tag*/) {
  --outstanding_;
  // A disconnected tenant's flow is gone; its late completions must not
  // re-create it.
  auto it = flows_.find(req.tenant);
  if (it != flows_.end()) it->second.last_completion = sim_.now();
  Deliver(req, dc);
  Pump();
}

}  // namespace gimbal::baselines
