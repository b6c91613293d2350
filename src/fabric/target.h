// NVMe-oF target node: the (SmartNIC or server) JBOF brain.
//
// Shared-nothing pipelines as in §4.1: each SSD gets a pipeline bound to a
// CPU core (cores are FifoResources — wimpy SmartNIC cores are simply
// slower per operation). The target implements the five-step NVMe-oF
// request flow of §2.1:
//   (a) command capsule arrives from the initiator,
//   (b) submission processing on the pipeline's core (+ RDMA_READ of the
//       payload for writes),
//   (c) the per-SSD IoPolicy decides when the SSD executes it,
//   (d) for reads, RDMA_WRITE of the data back to the client,
//   (e) completion capsule (carrying Gimbal's piggybacked credit, §3.6).
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <vector>

#include "common/index_arena.h"
#include "core/io_policy.h"
#include "fabric/network.h"
#include "nvme/types.h"
#include "obs/obs.h"
#include "sim/resource.h"

namespace gimbal::fabric {

struct TargetConfig {
  int cores = 4;
  // Per-IO CPU occupancy of the NVMe-oF stack on this node's cores.
  // SmartNIC (ARM A72) defaults; ServerLike() models the Xeon case.
  Tick submit_cost = Nanoseconds(900);
  Tick complete_cost = Nanoseconds(600);
  // Extra per-IO processing injected on the submission path (the Fig 16
  // "added per-IO processing cost" knob; also how offloads are modelled).
  Tick added_cost = 0;
  // Data staging latency through the node's memory (store-and-forward),
  // per byte; adds latency but does not occupy a core. This is what makes
  // large-IO latency diverge between SmartNIC and server (Fig 2).
  double staging_ns_per_byte = 0.35;
  // Keepalive-based crash detection (docs/FAULTS.md): sessions that send
  // neither a command nor a keepalive capsule for this long are reaped as
  // crashed — their queued IOs fail back and their scheduler state is
  // reclaimed, exactly as on a graceful disconnect. 0 disables tracking
  // (the default: a reaper timer would keep the event queue alive, so
  // existing Run()-to-idle experiments stay untouched).
  Tick session_timeout = 0;

  static TargetConfig SmartNicLike() { return TargetConfig{}; }
  static TargetConfig ServerLike() {
    TargetConfig c;
    c.submit_cost = Nanoseconds(600);
    c.complete_cost = Nanoseconds(400);
    c.staging_ns_per_byte = 0.04;
    return c;
  }
};

// Where completions are delivered on the client side.
class CompletionSink {
 public:
  virtual ~CompletionSink() = default;
  virtual void OnFabricCompletion(const IoCompletion& cpl) = 0;
};

class Target {
 public:
  Target(sim::Simulator& sim, Network& net, TargetConfig config = {});

  // Rack topology (docs/SIMULATOR.md): pipeline ids handed out by
  // AddPipeline — and accepted by every capsule entry point — start at
  // `base`. A multi-node testbed gives node n's target base = first global
  // SSD index on that node, so initiators address pipelines by global id
  // no matter which node owns them. Must precede AddPipeline.
  void SetPipelineBase(int base) {
    assert(pipelines_.empty() && "SetPipelineBase must precede AddPipeline");
    base_ = base;
  }
  int pipeline_base() const { return base_; }

  // Attach an SSD pipeline driven by `policy`; returns the pipeline id.
  // The policy must already be bound to its block device.
  int AddPipeline(std::unique_ptr<core::IoPolicy> policy);

  // Register the client-side sink for a tenant's completions on a pipeline.
  // Direct variant: mutates the session table immediately (setup-time use).
  void Connect(int pipeline, TenantId tenant, CompletionSink* sink);

  // Capsule variant: runs after the connect capsule's network trip, so the
  // registration rides the FIFO fabric ahead of the tenant's commands
  // (mid-run session churn). Charges one submit_cost of admin processing.
  void OnConnectCapsule(int pipeline, TenantId tenant, CompletionSink* sink);

  // Entry point used by initiators (called after the capsule's network
  // trip): step (b) onward.
  void OnCommandCapsule(int pipeline, IoRequest req);

  // Dataset Management (TRIM) capsule: cheap control-plane processing,
  // straight to the policy/device.
  void OnTrimCapsule(int pipeline, uint64_t offset, uint32_t length);

  // Tenant teardown: the policy fails its queued IOs back through the
  // completion path (so the sink stays registered — a reconnect simply
  // replaces it) and reaps the tenant once inflight IOs drain.
  void OnDisconnectCapsule(int pipeline, TenantId tenant);

  // NVMe-oF keepalive: refreshes the session's liveness timestamp. Only
  // meaningful with config.session_timeout > 0.
  void OnKeepaliveCapsule(int pipeline, TenantId tenant);

  // Sessions currently tracked by the crash reaper (0 when disabled).
  int session_count() const;
  uint64_t sessions_reaped() const;

  // Session-table occupancy across all pipelines. Unlike session_count()
  // this also counts sessions the crash reaper is not tracking; after a
  // full churn cycle (every tenant disconnected and drained) it must
  // return to the number of still-connected setup-time sessions — the
  // churn property test asserts it reaches zero on a fleet-only testbed.
  size_t live_sessions() const;
  // Completions whose session had already been torn down (e.g. a command
  // capsule delayed by a link fault past its tenant's disconnect); dropped
  // at the target rather than delivered to a dangling sink.
  uint64_t completions_orphaned() const;

  // Attach metrics/trace sinks; propagated to every pipeline's policy
  // (existing and future), which forwards to its device-facing
  // components. Pipeline index doubles as
  // the `ssd` label. Pass nullptr to detach.
  void AttachObservability(obs::Observability* obs);

  // Attach the invariant checker; propagated like AttachObservability.
  void AttachChecker(check::InvariantChecker* chk);

  core::IoPolicy& policy(int pipeline) { return *Pipe(pipeline).policy; }
  int pipeline_count() const { return static_cast<int>(pipelines_.size()); }
  const TargetConfig& config() const { return config_; }

  struct TargetStats {
    uint64_t ios = 0;
    uint64_t bytes = 0;
  };
  TargetStats stats() const;

 private:
  // One tenant's connection state on one pipeline. Everything that used to
  // live in three parallel per-tenant maps (sinks / last_seen / admit
  // counter caches) now shares an arena slot, recycled across churn.
  struct Session {
    explicit Session(TenantId t) : tenant(t) {}
    void Reset(TenantId t) { *this = Session(t); }

    TenantId tenant = 0;
    CompletionSink* sink = nullptr;
    Tick last_seen = 0;
    bool tracked = false;  // counted/scanned by the crash reaper
    // Disconnect (graceful or reaped) seen: the slot is freed once the
    // last admitted command's completion has been processed. FIFO fabric
    // order guarantees no command capsule trails the disconnect capsule,
    // so no new IOs can land on a parting session.
    bool parting = false;
    // Command capsules admitted minus completions processed. A payload
    // fetch eaten by a link fault leaves this stuck >0 and the slot merely
    // leaks (as the old sink map did for every session); it never frees
    // under a pending delivery.
    uint32_t outstanding = 0;
    // Per-tenant admit counter handles, resolved lazily (see target.cc).
    obs::Counter* admit_ios = nullptr;
    obs::Counter* admit_bytes = nullptr;
  };

  struct Pipeline {
    std::unique_ptr<core::IoPolicy> policy;
    int id = 0;
    int core = 0;
    TargetStats stats;
    common::SlabArena<Session> sessions;
    common::IdIndexMap session_index;  // tenant -> arena slot
    int tracked_sessions = 0;          // sessions with tracked == true
    uint64_t sessions_reaped = 0;
    uint64_t completions_orphaned = 0;
    // This pipeline's armed reaper scan; not re-armed when no session
    // remains tracked, so Run()-to-idle experiments still drain.
    sim::TimerHandle reaper_timer;
  };

  // Resolve a global pipeline id to this target's local slot.
  Pipeline& Pipe(int pipeline) {
    return *pipelines_[static_cast<size_t>(pipeline - base_)];
  }
  sim::FifoResource& CoreOf(const Pipeline& p) { return *cores_[p.core]; }
  // Session-table plumbing. Deferred callbacks must re-resolve by tenant
  // id (not hold a Session*): a freed slot can be recycled for another
  // tenant while the callback waits its turn on the core.
  Session& SessionFor(Pipeline& p, TenantId tenant);
  Session* FindSession(Pipeline& p, TenantId tenant);
  void Untrack(Pipeline& p, Session& s) {
    if (s.tracked) {
      s.tracked = false;
      --p.tracked_sessions;
    }
  }
  // Free the slot once a parting (or sink-less ghost) session has no
  // outstanding commands left, and tell the checker the session closed.
  void FreeSessionIfDrained(Pipeline& p, TenantId tenant);
  void DeliverToPolicy(Pipeline& p, const IoRequest& req);
  void FinishCompletion(Pipeline& p, const IoRequest& req, IoCompletion cpl);
  void TouchSession(int pipeline, TenantId tenant);
  void ReapStaleSessions(Pipeline& p);
  Tick StagingDelay(uint32_t bytes) const {
    return static_cast<Tick>(config_.staging_ns_per_byte *
                             static_cast<double>(bytes));
  }

  sim::Simulator& sim_;
  Network& net_;
  TargetConfig config_;
  std::vector<std::unique_ptr<sim::FifoResource>> cores_;
  std::vector<std::unique_ptr<Pipeline>> pipelines_;
  int base_ = 0;  // global id of this target's first pipeline
  obs::Observability* obs_ = nullptr;  // null = not observed
  check::InvariantChecker* chk_ = nullptr;
};

}  // namespace gimbal::fabric
