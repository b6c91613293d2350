#include "baselines/timeslice_policy.h"

#include <algorithm>

namespace gimbal::baselines {

void TimeslicePolicy::OnRequest(const IoRequest& req) {
  Flow& f = flows_[req.tenant];
  f.queue.push_back(req);
  if (!f.in_rotation && req.tenant != current_) {
    f.in_rotation = true;
    rotation_.push_back(req.tenant);
  }
  if (!slice_active_) {
    StartSlice();
  } else {
    Pump();
  }
}

void TimeslicePolicy::OnTenantDisconnect(TenantId tenant) {
  auto it = flows_.find(tenant);
  if (it == flows_.end()) return;
  common::Fifo<IoRequest> queued = std::move(it->second.queue);
  flows_.erase(it);
  rotation_.erase(std::remove(rotation_.begin(), rotation_.end(), tenant),
                  rotation_.end());
  for (; !queued.empty(); queued.pop_front()) {
    FailRequest(queued.front(), IoStatus::kAborted);
  }
  if (slice_active_ && current_ == tenant) {
    slice_active_ = false;
    current_ = 0;
    StartSlice();
  }
}

void TimeslicePolicy::StartSlice() {
  // Pick the next tenant with queued work; idle tenants drop out.
  while (!rotation_.empty()) {
    TenantId t = rotation_.front();
    rotation_.pop_front();
    flows_[t].in_rotation = false;
    if (!flows_[t].queue.empty()) {
      current_ = t;
      slice_active_ = true;
      uint64_t seq = ++slice_seq_;
      sim_.After(params_.quantum, [this, seq]() {
        if (seq == slice_seq_ && slice_active_) EndSlice();
      });
      Pump();
      return;
    }
  }
  // No backlog anywhere: go idle until the next arrival.
  slice_active_ = false;
  current_ = 0;
}

void TimeslicePolicy::EndSlice() {
  slice_active_ = false;
  Flow& f = flows_[current_];
  if (!f.queue.empty() && !f.in_rotation) {
    f.in_rotation = true;
    rotation_.push_back(current_);
  }
  current_ = 0;
  StartSlice();
}

void TimeslicePolicy::Pump() {
  if (!slice_active_) return;
  Flow& f = flows_[current_];
  while (!f.queue.empty() && outstanding_ < params_.depth) {
    IoRequest req = f.queue.front();
    f.queue.pop_front();
    ++outstanding_;
    SubmitToDevice(req);
  }
}

void TimeslicePolicy::OnDeviceCompletion(const IoRequest& req,
                                         const ssd::DeviceCompletion& dc,
                                         uint64_t /*tag*/) {
  --outstanding_;
  Deliver(req, dc);
  if (slice_active_) {
    Pump();
  } else if (outstanding_ == 0) {
    StartSlice();
  }
}

}  // namespace gimbal::baselines
