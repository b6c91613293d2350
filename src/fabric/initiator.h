// NVMe-oF initiator: the client side of one tenant's connection to one
// remote SSD pipeline.
//
// Owns the client half of the end-to-end flow control (§3.6, Algorithm 3):
// IOs queue locally and are issued only while the throttle allows —
//   kNone   : no client-side limit (ReFlex / FlashFQ / vanilla setups),
//   kCredit : outstanding < the credit piggybacked on completions (Gimbal),
//   kParda  : outstanding < the PARDA latency-driven window.
// The queue-then-issue behaviour is exactly the "IO rate limiter" the
// RocksDB case study gets for free (§4.3).
//
// Every IO from Submit to its terminal status lives in one in-flight
// window: a power-of-two ring of slots indexed by command id. Ids are
// assigned in Submit and issued in FIFO order, so the queued IOs are
// always the id suffix [issue cursor, next id) and the issued ones the
// span below it, with holes where completions came back out of order. A
// completion or a timer finds its IO by index, finished slots pop off the
// front, and teardown walks the ring in id order. The ring allocates
// nothing until the first Submit, then doubles as the id span grows, so
// an idle open-loop seat costs sizeof(Initiator) and a busy one its span
// rounded up to a power of two, times sizeof(Pending) (docs/WORKLOADS.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "baselines/parda_policy.h"
#include "check/invariants.h"
#include "fabric/network.h"
#include "fabric/target.h"
#include "nvme/types.h"
#include "obs/obs.h"

namespace gimbal::fabric {

enum class ThrottleMode { kNone, kCredit, kParda };

// Client-side fault tolerance knobs (docs/FAULTS.md). Defaults keep every
// mechanism off so fault-free experiments are event-for-event unchanged:
// no timers are armed and the event queue still drains to idle.
struct RetryParams {
  // Give up on an issued command this long after (re)transmission and
  // retry it. 0 disables timeouts (and with them retries).
  Tick io_timeout = 0;
  // Retransmissions allowed per command before failing it status=timeout.
  int max_retries = 3;
  // Retry n backs off min(backoff_base * 2^(n-1), backoff_cap) before
  // retransmitting.
  Tick backoff_base = Microseconds(50);
  Tick backoff_cap = Milliseconds(5);
  // Heartbeat capsule period for the target's crash reaper. 0 = none.
  Tick keepalive_interval = 0;
};

// Backoff before retry `n` (1-based): bounded exponential.
inline Tick BackoffFor(const RetryParams& p, int n) {
  Tick b = p.backoff_base;
  for (int i = 1; i < n && b < p.backoff_cap; ++i) b *= 2;
  return b < p.backoff_cap ? b : p.backoff_cap;
}

// How the initiator registers its completion sink with the target.
// kDirect pokes the session table immediately — fine at setup time, but
// mid-run it skips the fabric its commands cross. kCapsule sends a connect
// capsule over the fabric so registration happens in FIFO order with the
// commands that follow (the open-loop fleet's session churn uses this).
enum class ConnectMode { kDirect, kCapsule };

class Initiator : public CompletionSink {
 public:
  // Completion callback: the completion plus client-observed end-to-end
  // latency.
  using DoneFn = std::function<void(const IoCompletion&, Tick e2e_latency)>;

  Initiator(sim::Simulator& sim, Network& net, Target& target, int pipeline,
            TenantId tenant, ThrottleMode mode = ThrottleMode::kNone,
            baselines::PardaParams parda = {}, RetryParams retry = {},
            ConnectMode connect = ConnectMode::kDirect);

  // Queue an IO for issue; `done` fires when its completion returns.
  void Submit(IoType type, uint64_t offset, uint32_t length, IoPriority prio,
              DoneFn done);

  // NVMe deallocate (TRIM) for a page-aligned range. Control-plane:
  // bypasses the credit throttle and data-path scheduling.
  void Trim(uint64_t offset, uint32_t length);

  // Graceful teardown: locally-queued IOs fail immediately
  // (status=aborted); issued IOs either complete normally or come back
  // failed from the target's queues; a disconnect capsule tells the target
  // to reap the tenant. No new Submits are accepted afterwards.
  void Shutdown();
  bool shutdown() const { return shutdown_; }

  // Abrupt death (docs/FAULTS.md): like Shutdown but nothing crosses the
  // fabric — no disconnect capsule, no more keepalives. Issued IOs fail
  // locally (status=aborted); their completions, if any still arrive, are
  // counted as late and dropped. The target only learns of the death via
  // its keepalive session timeout.
  void Crash();
  bool crashed() const { return crashed_; }

  uint64_t retries() const { return retries_; }
  uint64_t timeouts() const { return timeouts_; }
  uint64_t late_completions() const { return late_completions_; }
  const RetryParams& retry_params() const { return retry_; }

  uint32_t inflight() const { return inflight_; }
  uint32_t queued() const {
    return static_cast<uint32_t>(next_id_ - issue_cursor_);
  }
  // Slots in the in-flight window: 0 until the first Submit, then the
  // largest id span seen so far, rounded up to a power of two.
  size_t window_capacity() const { return window_.size(); }
  // Control capsules (connect/keepalive/disconnect/trim) sent but not yet
  // delivered. Their network callbacks capture `this`, so an initiator
  // must not be destroyed while any is pending — the open-loop fleet's
  // graveyard sweep waits for zero here as well as zero inflight/queued.
  uint32_t control_inflight() const { return control_inflight_; }
  // Client-visible credit total (the §3.7 virtual-view load signal the KV
  // load balancer uses: more credits = less loaded SSD).
  uint32_t credits() const { return credit_total_; }
  // The PARDA window; 0 unless the throttle is ThrottleMode::kParda.
  double parda_window() const { return parda_ ? parda_->window() : 0.0; }
  TenantId tenant() const { return tenant_; }
  int pipeline() const { return pipeline_; }

  void OnFabricCompletion(const IoCompletion& cpl) override;

  // Attach metrics and the invariant checker; series are labelled by this
  // session's tenant and pipeline, so `sinks.label` is unused. Client-side
  // completion counters tick at the same event as the fio worker stats, so
  // metric totals and stdout agree exactly regardless of IOs in flight at
  // window edges. The checker sees admit/issue/terminal conservation and
  // the §3.6 credit law at every transition (docs/TESTING.md); Shutdown()
  // and Crash() close the session's ledger.
  void Attach(const obs::Sinks& sinks);

 private:
  // One admitted IO. A slot whose id is below the issue cursor and whose
  // `attempts` is 0 is a hole: that IO already reached its terminal status.
  struct Pending {
    IoRequest req;
    DoneFn done;
    // Transmissions so far (1 = original); 0 while queued and once
    // finished. Timeout/backoff timers carry the attempt they were armed
    // for and no-op on mismatch (the handle below makes stale firings
    // rare, not impossible — the guard stays).
    int attempts = 0;
    // The IO's one armed timer: the timeout while a transmission is
    // outstanding, the backoff while a retry waits. Cancelled when the IO
    // reaches a terminal status, so completed IOs leave nothing behind in
    // the event queue.
    sim::TimerHandle timer;
  };

  // Observability sinks, allocated by Attach (null = not observed), so an
  // unobserved initiator carries one pointer for them.
  struct Observed {
    obs::Observability* obs;
    obs::Counter* submitted;
    obs::Counter* completed;
    obs::Counter* completed_bytes;
    obs::Counter* failed;
    obs::Counter* retries;
    obs::Counter* timeouts;
    obs::Counter* late;
  };

  Pending& Slot(uint64_t id) { return window_[id & (window_.size() - 1)]; }
  // The issued IO `id` if it has not finished yet, else null.
  Pending* Issued(uint64_t id);
  // Double the window, keeping every live id in its slot for the new mask.
  void GrowWindow();
  // Clear a finished IO's slot, then advance the oldest id past holes.
  void Release(Pending& p);
  bool CanIssue() const;
  void IssueLoop();
  void SendCommand(const IoRequest& req);
  void ArmTimeout(uint64_t id, int attempt);
  void OnTimeout(uint64_t id, int attempt);
  void KeepaliveTick();
  // Fails `p` and releases its slot. `was_issued` tells the checker
  // whether the IO ever left the local queue (its in-flight ledger only
  // covers issued IOs).
  void FailLocally(Pending& p, IoStatus status, bool was_issued);
  // Fail every locally-queued IO (status=aborted) on Shutdown()/Crash().
  void FailQueued();

  sim::Simulator& sim_;
  Network& net_;
  Target& target_;
  int pipeline_;
  TenantId tenant_;
  ThrottleMode mode_;
  std::unique_ptr<baselines::PardaWindow> parda_;  // kParda only
  RetryParams retry_;

  // The in-flight window: id `i` sits in slot i & (size - 1). Issued ids
  // are [oldest_id_, issue_cursor_), queued ids [issue_cursor_, next_id_);
  // next_id_ - oldest_id_ never exceeds the size.
  std::vector<Pending> window_;
  uint64_t oldest_id_ = 1;
  uint64_t issue_cursor_ = 1;
  uint64_t next_id_ = 1;
  // The armed heartbeat; cancelled by Shutdown()/Crash() so a dead client
  // stops ticking immediately instead of leaving a timer to fire inert.
  sim::TimerHandle keepalive_timer_;
  uint32_t inflight_ = 0;
  uint32_t control_inflight_ = 0;
  uint32_t credit_total_ = 8;  // optimistic initial grant, refined by cpl
  bool shutdown_ = false;
  bool crashed_ = false;
  uint64_t retries_ = 0;
  uint64_t timeouts_ = 0;
  uint64_t late_completions_ = 0;

  std::unique_ptr<Observed> obs_;
  check::InvariantChecker* chk_ = nullptr;
};

}  // namespace gimbal::fabric
