// The pluggable per-SSD multi-tenancy policy interface.
//
// The NVMe-oF target owns one policy instance per SSD pipeline and feeds it
// every arriving request; the policy decides when to hand commands to the
// block device and reports completions (with an optional piggybacked
// credit, §3.6) back to the target. Gimbal and all baselines (ReFlex,
// Parda, FlashFQ, vanilla FCFS) implement this interface, so experiments
// swap schemes by swapping one object.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "check/invariants.h"
#include "fault/health.h"
#include "nvme/types.h"
#include "obs/obs.h"
#include "obs/schema.h"
#include "sim/simulator.h"
#include "ssd/block_device.h"

namespace gimbal::core {

class IoPolicy {
 public:
  // Invoked when the policy completes a request: the original request plus
  // completion metadata (device latency, piggybacked credit).
  using CompletionFn =
      std::function<void(const IoRequest&, const IoCompletion&)>;

  virtual ~IoPolicy() = default;

  // A request arrived at the target ingress for this SSD.
  virtual void OnRequest(const IoRequest& req) = 0;

  // NVMe Dataset Management (deallocate/TRIM): control-plane, bypasses the
  // data-path scheduler.
  virtual void OnTrim(uint64_t offset, uint32_t length) {
    (void)offset;
    (void)length;
  }

  // Tenant connection teardown. Policies holding queued requests fail
  // them back through the completion path (status=aborted); inflight
  // device IOs complete normally.
  virtual void OnTenantDisconnect(TenantId tenant) { (void)tenant; }

  // The fault layer observed a health transition of this policy's SSD
  // (docs/FAULTS.md). Policies may drain and fail queued IOs fast on
  // kFailed and reset latency feedback on recovery; the default ignores it
  // (the FaultyDevice still fails whatever such a policy submits).
  virtual void OnSsdHealthChange(fault::SsdHealth health) { (void)health; }

  virtual std::string name() const = 0;

  void set_completion_fn(CompletionFn fn) { complete_ = std::move(fn); }

  // Attach metrics/trace and the invariant checker (docs/OBSERVABILITY.md,
  // docs/TESTING.md); `sinks.label` is the ssd index labelling everything
  // this policy emits. The target calls it once, as the pipeline is added.
  virtual void Attach(const obs::Sinks& /*sinks*/) {}

 protected:
  CompletionFn complete_;
};

// Shared plumbing: device submission with latency measurement, and an
// overridable device-completion hook.
class PolicyBase : public IoPolicy {
 public:
  PolicyBase(sim::Simulator& sim, ssd::BlockDevice& device)
      : sim_(sim), device_(device) {}

  void OnTrim(uint64_t offset, uint32_t length) override {
    device_.Trim(offset, length);
  }

  void Attach(const obs::Sinks& sinks) override {
    obs_ = sinks.obs;
    chk_ = sinks.chk;
    ssd_index_ = sinks.label;
  }

 protected:
  // Hand one command to the SSD; OnDeviceCompletion fires when it finishes.
  // `tag` is round-tripped untouched (Gimbal uses it for the virtual-slot
  // id the IO was charged to).
  void SubmitToDevice(const IoRequest& req, uint64_t tag = 0) {
    if (obs_) {
      TenantMetrics& tm = MetricsFor(req.tenant);
      tm.dispatched->Add(1);
      obs_->tracer.Instant(
          sim_.now(), obs::schema::kEvDispatch,
          obs::Labels::TenantSsd(static_cast<int32_t>(req.tenant), ssd_index_),
          {{"bytes", static_cast<double>(req.length)},
           {"write", req.type == IoType::kWrite ? 1.0 : 0.0}});
    }
    if (chk_) chk_->OnPolicyDispatch(req.tenant, ssd_index_);
    ssd::DeviceIo io;
    io.type = req.type;
    io.offset = req.offset;
    io.length = req.length;
    // The request and its tag ride the completion closure: the device may
    // complete commands in any order.
    device_.Submit(io, [this, req, tag](const ssd::DeviceCompletion& dc) {
      if (chk_) chk_->OnDeviceReturn(req.tenant, ssd_index_, dc.ok());
      OnDeviceCompletion(req, dc, tag);
    });
  }

  // Subclasses update their state, then call Deliver().
  virtual void OnDeviceCompletion(const IoRequest& req,
                                  const ssd::DeviceCompletion& dc,
                                  uint64_t tag) = 0;

  // Send the completion up to the target/fabric. Failed completions (a
  // non-ok device status) are counted separately and excluded from the
  // latency histograms — a media error's response time is not a service
  // latency sample.
  void Deliver(const IoRequest& req, const ssd::DeviceCompletion& dc,
               uint32_t credit = 0) {
    IoCompletion cpl;
    cpl.id = req.id;
    cpl.tenant = req.tenant;
    cpl.type = req.type;
    cpl.length = req.length;
    cpl.status = dc.status;
    cpl.device_latency = dc.latency();
    cpl.target_latency = sim_.now() - req.target_arrival;
    cpl.credit = credit;
    if (obs_) {
      const obs::Labels l =
          obs::Labels::TenantSsd(static_cast<int32_t>(req.tenant), ssd_index_);
      if (cpl.ok()) {
        TenantMetrics& tm = MetricsFor(req.tenant);
        tm.completed->Add(1);
        tm.completed_bytes->Add(req.length);
        tm.device_latency->Record(cpl.device_latency);
        tm.target_latency->Record(cpl.target_latency);
        // The device-service span renders as a bar from SSD submit to now.
        obs_->tracer.Span(
            sim_.now() - cpl.device_latency, cpl.device_latency,
            obs::schema::kEvComplete, l,
            {{"bytes", static_cast<double>(req.length)},
             {"write", req.type == IoType::kWrite ? 1.0 : 0.0},
             {"credit", static_cast<double>(credit)}});
      } else {
        obs_->metrics
            .GetCounter(obs::schema::kPolicyFailed,
                        obs_->metrics.FoldTenant(l))
            .Add(1);
        obs_->tracer.Instant(
            sim_.now(), obs::schema::kEvFail, l,
            {{"bytes", static_cast<double>(req.length)},
             {"status", static_cast<double>(static_cast<int>(cpl.status))}});
      }
    }
    if (chk_) chk_->OnPolicyDeliver(req.tenant, ssd_index_, cpl.ok());
    if (complete_) complete_(req, cpl);
  }

  // Fail a request that never reached the device (disconnect teardown,
  // fail-fast drain of a failed SSD) back to the client with `status`.
  void FailRequest(const IoRequest& req, IoStatus status) {
    IoCompletion cpl;
    cpl.id = req.id;
    cpl.tenant = req.tenant;
    cpl.type = req.type;
    cpl.length = req.length;
    cpl.status = status;
    cpl.target_latency = sim_.now() - req.target_arrival;
    if (obs_) {
      const obs::Labels l =
          obs::Labels::TenantSsd(static_cast<int32_t>(req.tenant), ssd_index_);
      obs_->metrics
          .GetCounter(obs::schema::kPolicyFailed, obs_->metrics.FoldTenant(l))
          .Add(1);
      obs_->tracer.Instant(
          sim_.now(), obs::schema::kEvFail, l,
          {{"bytes", static_cast<double>(req.length)},
           {"status", static_cast<double>(static_cast<int>(status))}});
    }
    if (chk_) chk_->OnPolicyFail(req.tenant, ssd_index_);
    if (complete_) complete_(req, cpl);
  }

  // Per-(tenant, ssd) metric handles, resolved once per tenant. Only valid
  // while obs_ is non-null.
  struct TenantMetrics {
    obs::Counter* dispatched = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* completed_bytes = nullptr;
    obs::Histogram* device_latency = nullptr;
    obs::Histogram* target_latency = nullptr;
  };
  TenantMetrics& MetricsFor(TenantId tenant) {
    // Cache and series are keyed by the folded tenant label, so both stay
    // bounded by the registry's kTenantSeriesLimit under session churn.
    const obs::Labels l = obs_->metrics.FoldTenant(
        obs::Labels::TenantSsd(static_cast<int32_t>(tenant), ssd_index_));
    auto it = tenant_metrics_.find(l.tenant);
    if (it != tenant_metrics_.end()) return it->second;
    namespace schema = obs::schema;
    obs::MetricsRegistry& reg = obs_->metrics;
    TenantMetrics tm;
    tm.dispatched = &reg.GetCounter(schema::kPolicyDispatched, l);
    tm.completed = &reg.GetCounter(schema::kPolicyCompleted, l);
    tm.completed_bytes = &reg.GetCounter(schema::kPolicyCompletedBytes, l);
    tm.device_latency = &reg.GetHistogram(schema::kDeviceLatency, l);
    tm.target_latency = &reg.GetHistogram(schema::kTargetLatency, l);
    return tenant_metrics_.emplace(l.tenant, tm).first->second;
  }

  sim::Simulator& sim_;
  ssd::BlockDevice& device_;
  obs::Observability* obs_ = nullptr;
  check::InvariantChecker* chk_ = nullptr;
  int ssd_index_ = -1;

 private:
  // Keyed by *folded* tenant label (not TenantId): bounded cardinality.
  std::unordered_map<int32_t, TenantMetrics> tenant_metrics_;
};

}  // namespace gimbal::core
