// The repo-wide metric and trace-event catalogue.
//
// Every MetricDef and trace-event name the instruments emit lives here so
// the schema has one source of truth in code. docs/OBSERVABILITY.md is the
// human-readable mirror — keep both in sync when adding instruments (the
// doc is part of the review checklist for any PR touching this file).
#pragma once

#include "obs/metrics.h"

namespace gimbal::obs::schema {

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------
inline constexpr MetricDef kTargetAdmitted{
    "fabric.target.admitted", "ios",
    "NVMe-oF command capsules admitted at the target ingress",
    "fabric/target.cc:OnCommandCapsule"};
inline constexpr MetricDef kTargetAdmittedBytes{
    "fabric.target.admitted_bytes", "bytes",
    "payload bytes of admitted command capsules",
    "fabric/target.cc:OnCommandCapsule"};
inline constexpr MetricDef kPolicyDispatched{
    "policy.dispatched", "ios",
    "commands the per-SSD policy handed to the block device",
    "core/io_policy.h:SubmitToDevice"};
inline constexpr MetricDef kPolicyCompleted{
    "policy.completed", "ios",
    "commands completed back to the fabric (ok=true path)",
    "core/io_policy.h:Deliver"};
inline constexpr MetricDef kPolicyCompletedBytes{
    "policy.completed_bytes", "bytes", "payload bytes of completed commands",
    "core/io_policy.h:Deliver"};
inline constexpr MetricDef kClientCompleted{
    "client.completed", "ios",
    "successful completions observed at the client initiator (same event "
    "that feeds the fio worker stats, so totals match stdout exactly)",
    "fabric/initiator.cc:OnFabricCompletion"};
inline constexpr MetricDef kClientCompletedBytes{
    "client.completed_bytes", "bytes",
    "payload bytes of successful client-observed completions",
    "fabric/initiator.cc:OnFabricCompletion"};
inline constexpr MetricDef kPolicyFailed{
    "policy.failed", "ios",
    "commands failed back to the client (disconnect, device failure, media "
    "error)",
    "core/io_policy.h:Deliver/FailRequest"};
inline constexpr MetricDef kClientFailed{
    "client.failed", "ios",
    "failed completions observed at the client initiator (any non-ok "
    "status, including exhausted retry budgets)",
    "fabric/initiator.cc:Finish"};
inline constexpr MetricDef kInitiatorSubmitted{
    "initiator.submitted", "ios",
    "logical IOs accepted by the initiator (retries of one IO are not "
    "re-counted; submitted == client.completed + client.failed once "
    "drained)",
    "fabric/initiator.cc:Submit"};
inline constexpr MetricDef kInitiatorRetries{
    "initiator.retries", "ios",
    "command re-issues after a per-IO timeout (attempt 2 and beyond)",
    "fabric/initiator.cc:OnIoTimeout"};
inline constexpr MetricDef kInitiatorTimeouts{
    "initiator.timeouts", "ios",
    "IOs failed with status=timeout after exhausting the retry budget",
    "fabric/initiator.cc:OnIoTimeout"};
inline constexpr MetricDef kInitiatorLateCompletions{
    "initiator.late_completions", "ios",
    "completions for IOs the initiator no longer tracks (timed out, "
    "retried and completed twice, or crashed)",
    "fabric/initiator.cc:OnFabricCompletion"};
inline constexpr MetricDef kTargetSessionsReaped{
    "fabric.target.sessions_reaped", "tenants",
    "tenant sessions reaped by the keepalive timeout (crashed clients)",
    "fabric/target.cc:ReapStaleSessions"};
inline constexpr MetricDef kFaultMediaErrors{
    "fault.media_errors", "ios",
    "IOs failed with an injected media error",
    "fault/faulty_device.h:Submit"};
inline constexpr MetricDef kFaultDeviceFailedIos{
    "fault.device_failed_ios", "ios",
    "IOs failed because the SSD was in the failed state",
    "fault/faulty_device.h:Submit"};
inline constexpr MetricDef kFaultStalledIos{
    "fault.stalled_ios", "ios",
    "IOs delayed by an injected latency stall",
    "fault/faulty_device.h:Submit"};
inline constexpr MetricDef kFaultLinkDropped{
    "fault.link.dropped", "messages",
    "fabric messages dropped by an injected link flap",
    "fault/fault.cc:OnLinkMessage"};
inline constexpr MetricDef kFaultLinkDelayed{
    "fault.link.delayed", "messages",
    "fabric messages delayed by an injected link flap",
    "fault/fault.cc:OnLinkMessage"};
inline constexpr MetricDef kCongestionSignals{
    "gimbal.congestion.signals", "events",
    "completions whose latency monitor reported the congested state",
    "core/gimbal_switch.cc:OnDeviceCompletion"};
inline constexpr MetricDef kOverloadEvents{
    "gimbal.overload.events", "events",
    "completions whose latency monitor reported the overloaded state",
    "core/gimbal_switch.cc:OnDeviceCompletion"};
inline constexpr MetricDef kPacingStalls{
    "gimbal.pacing.stalls", "events",
    "head-of-line submissions deferred because the token bucket was dry",
    "core/gimbal_switch.cc:Pump"};
inline constexpr MetricDef kCreditGrants{
    "gimbal.credit.grants", "events",
    "credits piggybacked on completions (one grant per completion)",
    "core/gimbal_switch.cc:OnDeviceCompletion"};
inline constexpr MetricDef kDrrPassExhausted{
    "drr.pass_exhausted", "events",
    "Dequeue gave up after its pass budget with schedulable work remaining",
    "core/drr_scheduler.cc:Dequeue"};
inline constexpr MetricDef kDrrOrphanCompletions{
    "drr.orphan_completions", "ios",
    "completions dropped because their tenant was already reaped "
    "(late/duplicate after disconnect)",
    "core/drr_scheduler.cc:OnCompletion"};
inline constexpr MetricDef kSsdReadCommands{
    "ssd.read.commands", "ios", "read commands dispatched inside the SSD",
    "ssd/ssd.cc:DispatchRead"};
inline constexpr MetricDef kSsdWriteCommands{
    "ssd.write.commands", "ios", "write commands dispatched inside the SSD",
    "ssd/ssd.cc:DispatchWrite"};
inline constexpr MetricDef kSsdReadBytes{
    "ssd.read.bytes", "bytes", "bytes read from the SSD",
    "ssd/ssd.cc:DispatchRead"};
inline constexpr MetricDef kSsdWriteBytes{
    "ssd.write.bytes", "bytes", "bytes written to the SSD",
    "ssd/ssd.cc:DispatchWrite"};
inline constexpr MetricDef kSsdGcInvocations{
    "ssd.gc.invocations", "events",
    "garbage-collection activations (low-watermark crossings per die)",
    "ssd/ssd.cc:MaybeStartGc"};
inline constexpr MetricDef kSsdGcPagesRelocated{
    "ssd.gc.pages_relocated", "pages", "valid pages relocated by GC",
    "ssd/ssd.cc:GcRelocateBatch"};
inline constexpr MetricDef kSsdBlocksErased{
    "ssd.gc.blocks_erased", "blocks", "victim blocks erased by GC",
    "ssd/ssd.cc:GcRelocateBatch"};
inline constexpr MetricDef kTargetOrphanCompletions{
    "fabric.target.orphan_completions", "ios",
    "completions whose session was already torn down when they surfaced "
    "(late arrivals past a disconnect)",
    "fabric/target.cc:FinishCompletion"};
inline constexpr MetricDef kSloWindows{
    "slo.windows", "windows",
    "closed per-tenant SLO evaluation windows (windows with >= 1 sample)",
    "obs/slo.cc:CloseWindow"};
inline constexpr MetricDef kSloWindowsViolated{
    "slo.windows_violated", "windows",
    "closed per-tenant windows that violated at least one latency objective",
    "obs/slo.cc:CloseWindow"};
inline constexpr MetricDef kSloTenantWindowsViolated{
    "slo.tenant.windows_violated", "windows",
    "violated windows per tenant (tenant-labelled; folds to tenant=\"other\" "
    "past the registry's cardinality cap)",
    "obs/slo.cc:Export"};
inline constexpr MetricDef kKvFailoverReads{
    "kv.failover_reads", "ios",
    "blob reads retried on the surviving replica after a non-ok completion",
    "kv/blobstore.cc:StartRead"};
inline constexpr MetricDef kKvDegradedWrites{
    "kv.degraded_writes", "ios",
    "replicated writes acked at quorum-of-available (one replica durable, "
    "the other recorded in the dirty-replica ledger)",
    "kv/blobstore.cc:WriteReplicated"};
inline constexpr MetricDef kKvRebuildBytes{
    "kv.rebuild_bytes", "bytes",
    "dirty-replica bytes re-replicated by the background rebuild scanner",
    "kv/blobstore.cc:MarkRepaired"};
inline constexpr MetricDef kKvLostWrites{
    "kv.lost_writes", "ios",
    "acked writes with zero durable replicas — must stay 0 (docs/FAULTS.md)",
    "kv/blobstore.cc:WriteReplicated"};
inline constexpr MetricDef kKvWalRetries{
    "kv.wal_retries", "batches",
    "WAL group-commit batches re-submitted after both replicas failed "
    "(waiters held un-acked until a copy is durable)",
    "kv/db.cc:MaybeFlushWal"};
inline constexpr MetricDef kKvRecoveries{
    "kv.recoveries", "events",
    "DB instances recovered from a simulated crash by WAL replay",
    "kv/db.cc:Recover"};
inline constexpr MetricDef kRackUplinkBytes{
    "rack.uplink.bytes", "bytes",
    "bytes serialized across the shared ToR uplink, both directions",
    "workload/runner.cc:FlushObservability"};
inline constexpr MetricDef kRackNodeUplinkBytes{
    "rack.node.uplink_bytes", "bytes",
    "per-node share of the uplink bytes (ssd label = node id; sums to "
    "rack.uplink.bytes — the rack.uplink.conservation invariant)",
    "workload/runner.cc:FlushObservability"};
inline constexpr MetricDef kRackNodeDrops{
    "rack.node.drops", "messages",
    "fabric messages dropped because their node was down (whole-node "
    "failure blackout; distinct from link-flap drops)",
    "workload/runner.cc:FlushObservability"};
inline constexpr MetricDef kTxnCommits{
    "txn.commits", "txns",
    "transactions committed (every write durably acked through the WAL "
    "group-commit path before the commit was reported)",
    "kv/txn.cc:FinishCommit"};
inline constexpr MetricDef kTxnAborts{
    "txn.aborts", "attempts",
    "transaction attempts aborted by the 2PL conflict policy (NO_WAIT "
    "conflicts, WAIT_DIE dies, WOUND_WAIT wounds) or a faulted read",
    "kv/txn.cc:AbortAttempt"};
inline constexpr MetricDef kTxnWounds{
    "txn.wounds", "txns",
    "younger lock holders wounded by an older requester (WOUND_WAIT only)",
    "kv/txn.cc:Acquire"};
inline constexpr MetricDef kTxnRetries{
    "txn.retries", "attempts",
    "aborted attempts re-executed after the initiator-style capped backoff "
    "(the transaction keeps its original timestamp)",
    "kv/txn.cc:AbortAttempt"};

// ---------------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------------
inline constexpr MetricDef kTargetRate{
    "gimbal.rate.target_bps", "bytes/s",
    "rate controller's current target submission rate",
    "core/rate_controller.cc:OnCompletion"};
inline constexpr MetricDef kCompletionRate{
    "gimbal.rate.completion_bps", "bytes/s",
    "measured completion rate over the last closed window",
    "core/rate_controller.cc:OnCompletion"};
inline constexpr MetricDef kWriteCost{
    "gimbal.write_cost", "ratio",
    "ADMI-estimated cost of one written byte in read-byte equivalents",
    "core/write_cost.h:PeriodicUpdate"};
inline constexpr MetricDef kEwmaRead{
    "gimbal.ewma_ns.read", "ns", "EWMA of read completion latency",
    "core/latency_monitor.cc:Update"};
inline constexpr MetricDef kEwmaWrite{
    "gimbal.ewma_ns.write", "ns", "EWMA of write completion latency",
    "core/latency_monitor.cc:Update"};
inline constexpr MetricDef kThreshRead{
    "gimbal.thresh_ns.read", "ns", "dynamic congestion threshold (reads)",
    "core/latency_monitor.cc:Update"};
inline constexpr MetricDef kThreshWrite{
    "gimbal.thresh_ns.write", "ns", "dynamic congestion threshold (writes)",
    "core/latency_monitor.cc:Update"};
inline constexpr MetricDef kStateRead{
    "gimbal.state.read", "enum",
    "read congestion state (0=under-utilized .. 3=overloaded)",
    "core/latency_monitor.cc:Update"};
inline constexpr MetricDef kStateWrite{
    "gimbal.state.write", "enum",
    "write congestion state (0=under-utilized .. 3=overloaded)",
    "core/latency_monitor.cc:Update"};
inline constexpr MetricDef kQueueDepth{
    "gimbal.queue_depth", "ios", "requests queued in the DRR scheduler",
    "core/gimbal_switch.cc:OnRequest/Pump"};
inline constexpr MetricDef kCreditLast{
    "gimbal.credit.last", "credits",
    "most recent credit granted to this tenant",
    "core/gimbal_switch.cc:OnDeviceCompletion"};
inline constexpr MetricDef kSsdBufferUsed{
    "ssd.buffer.used_bytes", "bytes", "DRAM write-buffer occupancy",
    "ssd/ssd.cc:AdmitWrite/PumpDie"};
inline constexpr MetricDef kSsdHealth{
    "ssd.health", "enum",
    "SSD health state (0=healthy 1=degraded 2=failed 3=recovering)",
    "fault/health.h:SsdHealthMachine::Set"};
inline constexpr MetricDef kSloReadP99{
    "slo.read.p99_ns", "ns",
    "aggregate p99 of client-observed read latency over the tracked run",
    "obs/slo.cc:Export"};
inline constexpr MetricDef kSloReadP999{
    "slo.read.p999_ns", "ns",
    "aggregate p99.9 of client-observed read latency over the tracked run",
    "obs/slo.cc:Export"};
inline constexpr MetricDef kSloWriteP99{
    "slo.write.p99_ns", "ns",
    "aggregate p99 of client-observed write latency over the tracked run",
    "obs/slo.cc:Export"};
inline constexpr MetricDef kSloWriteP999{
    "slo.write.p999_ns", "ns",
    "aggregate p99.9 of client-observed write latency over the tracked run",
    "obs/slo.cc:Export"};
inline constexpr MetricDef kSloTimeInViolation{
    "slo.time_in_violation_ns", "ns",
    "total tenant-time spent in violating windows (violated windows x "
    "window length)",
    "obs/slo.cc:Export"};
inline constexpr MetricDef kSloTenantsViolated{
    "slo.tenants.violated", "tenants",
    "tenants that violated at least one window over their lifetime",
    "obs/slo.cc:CloseWindow"};
inline constexpr MetricDef kKvDirtyReplicas{
    "kv.dirty_replicas", "blobs",
    "dirty-replica ledger depth (blobs awaiting re-replication)",
    "kv/blobstore.cc:RecordDirty/rebuild.cc"};
inline constexpr MetricDef kTxnWaitQueueDepth{
    "txn.wait_queue_depth", "txns",
    "transactions currently parked in lock wait queues (WAIT_DIE / "
    "WOUND_WAIT; NO_WAIT keeps this at 0)",
    "kv/txn.cc:UpdateWaitGauge"};

// ---------------------------------------------------------------------------
// Histograms (log-bucketed; JSON/CSV report count/min/mean/p50/p95/p99/max)
// ---------------------------------------------------------------------------
inline constexpr MetricDef kDeviceLatency{
    "policy.latency.device_ns", "ns",
    "SSD submit-to-complete latency per completed command",
    "core/io_policy.h:Deliver"};
inline constexpr MetricDef kTargetLatency{
    "policy.latency.target_ns", "ns",
    "target-ingress-to-completion latency per completed command",
    "core/io_policy.h:Deliver"};
inline constexpr MetricDef kSloReadLatency{
    "slo.latency.read_ns", "ns",
    "client-observed end-to-end read latency fed to the SLO tracker",
    "obs/slo.cc:Record"};
inline constexpr MetricDef kSloWriteLatency{
    "slo.latency.write_ns", "ns",
    "client-observed end-to-end write latency fed to the SLO tracker",
    "obs/slo.cc:Record"};

// ---------------------------------------------------------------------------
// Trace event names (see docs/OBSERVABILITY.md for args and sites)
// ---------------------------------------------------------------------------
inline constexpr const char* kEvAdmit = "io.admit";
inline constexpr const char* kEvDispatch = "io.dispatch";
inline constexpr const char* kEvComplete = "io.complete";
inline constexpr const char* kEvFail = "io.fail";
inline constexpr const char* kEvCongestionRead = "congestion.read";
inline constexpr const char* kEvCongestionWrite = "congestion.write";
inline constexpr const char* kEvRateUpdate = "rate.update";
inline constexpr const char* kEvCreditGrant = "credit.grant";
inline constexpr const char* kEvWriteCost = "wc.update";
inline constexpr const char* kEvGcStart = "gc.start";
inline constexpr const char* kEvGcEnd = "gc.end";
inline constexpr const char* kEvDisconnect = "tenant.disconnect";
inline constexpr const char* kEvFaultInject = "fault.inject";
inline constexpr const char* kEvFaultHealth = "fault.health";
inline constexpr const char* kEvRetry = "initiator.retry";
inline constexpr const char* kEvTimeout = "initiator.timeout";
inline constexpr const char* kEvTenantCrash = "tenant.crash";
inline constexpr const char* kEvTenantReap = "tenant.reap";
inline constexpr const char* kEvKvFailover = "kv.failover";
inline constexpr const char* kEvKvDegradedWrite = "kv.degraded_write";
inline constexpr const char* kEvKvRebuild = "kv.rebuild";
inline constexpr const char* kEvKvWalRetry = "kv.wal_retry";
inline constexpr const char* kEvKvRecover = "kv.recover";
// Whole-node fail/recover edges ride kEvFaultInject with keys
// "node_fail"/"node_recover" and the node id as the value (fault/fault.cc).
inline constexpr const char* kEvTxnCommit = "txn.commit";
inline constexpr const char* kEvTxnAbort = "txn.abort";
inline constexpr const char* kEvTxnWound = "txn.wound";
inline constexpr const char* kEvTxnWait = "txn.wait";

}  // namespace gimbal::obs::schema
