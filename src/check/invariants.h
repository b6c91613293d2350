// Online invariant checker (docs/TESTING.md).
//
// Attaches to a Testbed the way obs::Observability does — every layer keeps
// a nullable pointer and fires a hook at the events that matter — and
// verifies, as the simulation runs, the conservation and fairness
// properties the paper states:
//
//   * per-tenant IO conservation at the client: every admitted IO is
//     queued, in flight, or terminal at all times, and the checker's
//     independent ledger must agree with the initiator's own counters,
//   * credit-pool conservation in the end-to-end flow control (§3.6,
//     Algorithm 3): a credit-throttled client never holds more IOs in
//     flight than its credit total, and never believes a credit the
//     switch did not grant,
//   * DRR fairness (§3.5, Algorithm 2): quantum grants are exactly
//     rounds x quantum, deficits stay bounded, and the cost-normalized
//     service skew between continuously backlogged tenants is bounded,
//   * virtual-slot occupancy never exceeds the allotment (§3.5),
//   * dual-token-bucket compliance (§3.3, Appendix C.1, Algorithm 4):
//     tokens never exceed capacity, never go negative, accrue no faster
//     than target_rate x elapsed, and each submission consumes exactly
//     its size,
//   * latency-EWMA/threshold sanity (§3.2): the dynamic threshold stays
//     inside [Thresh_min, Thresh_max] and the congestion state matches
//     the EWMA,
//   * SSD-health transition legality (docs/FAULTS.md), validated against
//     an independent copy of the legality table,
//   * layered target/policy conservation: dispatches never exceed target
//     admissions, device completions never exceed dispatches.
//
// A violation records the simulated timestamp, tenant/SSD labels and a
// detail string; with fail_fast (the default, and what every Testbed-owned
// checker uses) it also prints a report — including a trace-context
// snippet when a tracer is attached — and aborts the run. Tests that
// *expect* violations (tests/mutation_smoke.cc) construct the checker with
// fail_fast=false and inspect violations() instead.
//
// CheckDrained() runs the end-of-run balance checks (admitted == terminal,
// nothing in flight) and may only be called after the testbed has fully
// quiesced (workers stopped, initiators shut down, event queue drained).
//
// Ledger lifetime. A (tenant, ssd) ledger is *closed* when its session is
// torn down — OnClientClose() from Initiator::Shutdown()/Crash(),
// OnTargetSessionClosed() when the target frees the session slot — and a
// closed ledger is freed as soon as it balances: at once if it already
// does, else by the terminal (client) or deliver/fail/device-return
// (policy) hook that balances it. A closed ledger that never balances is
// kept, so CheckDrained() reports it exactly as if nothing were ever
// freed. Per-ledger state is therefore O(live + draining sessions), not
// O(sessions ever).
//
// Why freeing changes no verdict. CheckDrained() only fails on an
// unbalanced ledger, and those are never freed; it reports in (tenant,
// ssd) order, so which ledgers were freed and recycled does not reorder
// the report. A reused (tenant, ssd) starts again from a zeroed ledger,
// i.e. its per-hook checks see the full history minus a balanced prefix.
// In that prefix the differences the checks compare — queued, in flight,
// terminal minus admitted, delivered + failed minus target admits,
// device returns minus dispatches — are all 0. The only terms a balanced
// prefix may leave non-zero are slack that loosens a check: IOs failed
// before issue (admitted - issued, in "issued exceeds admitted"), IOs the
// policy failed before dispatch (target admits - dispatched, in
// policy.dispatch), device returns not delivered (in policy.deliver), and
// the highest credit granted (in client.credit.bound). In a
// violation-free prefix — always, under fail_fast — each is >= 0, so the
// reused key is checked at least as strictly as before.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/index_arena.h"
#include "common/time.h"
#include "nvme/types.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace gimbal::check {

class InvariantChecker {
 public:
  explicit InvariantChecker(bool fail_fast = true)
      : fail_fast_(fail_fast) {}

  // Timestamps for violations; null is allowed (violations stamp 0).
  void AttachSim(const sim::Simulator* sim) { sim_ = sim; }
  // Trace-context snippets in fail-fast reports; null is allowed.
  void AttachTracer(const obs::EventTracer* tracer) { tracer_ = tracer; }

  struct Violation {
    Tick when = 0;
    std::string invariant;  // stable name, catalogued in docs/TESTING.md
    int32_t tenant = -1;
    int32_t ssd = -1;
    std::string detail;
  };

  const std::vector<Violation>& violations() const { return violations_; }
  bool ok() const { return violations_.empty(); }
  uint64_t checks_run() const { return checks_run_; }
  // Client and policy ledgers currently held (open, or closed and not yet
  // balanced).
  struct LedgerCount {
    size_t client = 0;
    size_t policy = 0;
  };
  LedgerCount live_ledgers() const {
    return {clients_.size(), policies_.size()};
  }

  // --- Client (initiator) hooks --------------------------------------------
  // An IO was admitted into the local queue (post MDTS split; one call per
  // wire command). `queued` is the initiator's local queue depth after.
  void OnClientAdmit(TenantId tenant, int ssd, size_t queued);
  // An IO moved from queued to issued. `inflight`/`credit_total` are the
  // initiator's counters after the move; `credit_throttled` selects the
  // Algorithm 3 credit-law check.
  void OnClientIssue(TenantId tenant, int ssd, size_t queued,
                     uint32_t inflight, uint32_t credit_total,
                     bool credit_throttled);
  // An IO reached its terminal status (completed or failed). `was_issued`
  // distinguishes IOs failed straight out of the local queue; `inflight`
  // is the initiator's counter after any decrement.
  void OnClientTerminal(TenantId tenant, int ssd, bool ok, bool was_issued,
                        uint32_t inflight);
  // The client adopted a piggybacked credit from a completion.
  void OnClientCreditUpdate(TenantId tenant, int ssd, uint32_t credit);
  // The client's session was torn down (Shutdown or Crash): its ledger is
  // freed once it balances (see "Ledger lifetime" above).
  void OnClientClose(TenantId tenant, int ssd);

  // --- Target / policy hooks -----------------------------------------------
  void OnTargetAdmit(TenantId tenant, int ssd);
  void OnPolicyDispatch(TenantId tenant, int ssd);       // handed to the SSD
  void OnDeviceReturn(TenantId tenant, int ssd, bool ok);
  void OnPolicyDeliver(TenantId tenant, int ssd, bool ok);
  void OnPolicyFail(TenantId tenant, int ssd);           // never dispatched
  // The target freed the tenant's session slot on this SSD: the policy
  // ledger is freed once it balances.
  void OnTargetSessionClosed(TenantId tenant, int ssd);

  // --- Gimbal switch hooks -------------------------------------------------
  // Per-SSD DRR constants, registered once at attach time.
  void ConfigureDrr(int ssd, uint64_t quantum_bytes, uint64_t slot_bytes,
                    double cost_worst);
  // The switch granted a credit (piggybacked on a completion). Updates an
  // existing client ledger only: the client admit always precedes a grant,
  // and a grant for a timed-out IO of a freed ledger is moot.
  void OnCreditGrant(TenantId tenant, int ssd, uint32_t credit);
  // A DRR grant of `rounds` quanta: the deficit before and after must
  // differ by exactly rounds x quantum.
  void OnDrrQuantum(TenantId tenant, int ssd, uint64_t deficit_before,
                    uint64_t deficit_after, uint64_t rounds);
  // Dequeue exhausted its pass budget with schedulable work remaining —
  // always a violation (the scheduler must make progress in bounded
  // rounds).
  void OnDrrPassExhausted(int ssd, uint64_t passes, uint64_t active,
                          uint64_t queued);
  // A request was served (popped) by the DRR.
  void OnDrrServe(TenantId tenant, int ssd, uint64_t weighted_bytes);
  // The tenant's switch-side backlog state after a queue mutation
  // (idempotent; membership changes reset the skew baseline).
  void OnDrrBacklog(TenantId tenant, int ssd, bool backlogged);
  // A virtual slot was opened; `slots_in_use` includes the new slot.
  void OnSlotOpen(TenantId tenant, int ssd, uint32_t slots_in_use,
                  uint32_t allotted);

  // --- Token bucket hooks --------------------------------------------------
  // After an accrual step: tokens gained must not exceed
  // target_rate x elapsed, and both buckets must respect [0, cap].
  void OnBucketUpdate(int ssd, Tick elapsed, double target_rate,
                      double read_before, double write_before,
                      double read_after, double write_after, double cap);
  // After a consume: the bucket must decrement by exactly `bytes` and may
  // not be overdrawn.
  void OnBucketConsume(int ssd, bool is_read, uint64_t bytes, double before,
                       double after, double cap);

  // --- Latency monitor hook ------------------------------------------------
  void OnLatencySample(int ssd, bool is_read, double ewma, double threshold,
                       double thresh_min, double thresh_max, int state);

  // --- SSD health hook -----------------------------------------------------
  // Fired after a transition was *applied*; legality is re-validated here
  // against an independent table (fault::ValidTransition itself is a
  // mutation target). States use the fault::SsdHealth numeric values.
  void OnHealthTransition(int ssd, int from, int to);

  // --- KV fault tolerance (docs/FAULTS.md) ---------------------------------
  // A replicated blob write was acked to the DB with `durable` copies on
  // stable storage. "No acked write is ever lost": an ack with zero durable
  // replicas is an immediate violation, regardless of later rebuilds.
  void OnKvWriteAck(TenantId instance, int ssd, int durable, bool acked);
  // A blob entered the dirty-replica ledger (degraded write: `ssd` is the
  // backend missing its copy).
  void OnKvDirtyRecord(TenantId instance, int ssd, uint64_t bytes);
  // The rebuild scanner re-replicated a dirty blob onto `ssd`.
  void OnKvDirtyRepair(TenantId instance, int ssd, uint64_t bytes);
  // A dirty blob was invalidated before repair (its data was trimmed —
  // flushed WAL or compacted table — so re-replication became moot).
  void OnKvDirtyDrop(TenantId instance, int ssd, uint64_t bytes);

  // --- Rack topology (docs/SIMULATOR.md) -----------------------------------
  // A replicated write placed its copies on `primary`/`shadow` backends
  // living on `primary_node`/`shadow_node`. Node-disjointness is the rack
  // durability story: two replicas in one failure domain means a single
  // node failure loses acked data ("kv.placement.domain").
  void OnKvReplicaPlacement(TenantId instance, int primary, int shadow,
                            int primary_node, int shadow_node);
  // `bytes` just crossed the shared ToR uplink attributed to `node`;
  // `node_total_sum` is the per-node accounting total and `uplink_total`
  // the uplink-wide byte counter. Every byte must be attributed to exactly
  // one node ("rack.uplink.conservation").
  void OnRackUplink(int node, uint64_t bytes, uint64_t node_total_sum,
                    uint64_t uplink_total);

  // --- Transactions (kv/txn.h, docs/TESTING.md) ----------------------------
  // Independent audit of the 2PL lock manager and coordinator. The checker
  // keeps its own per-transaction held-lock multiset and per-instance
  // ledger, so a lock leak or phantom release in the lock manager is caught
  // against state the lock manager cannot corrupt.
  // A transaction registered with its conflict timestamp.
  void OnTxnBegin(TenantId instance, uint64_t txn, uint64_t ts);
  // A lock was granted (`upgrade`: an S holder was promoted to X). Strict
  // two-phase discipline: acquiring after the transaction entered its
  // release phase is a violation.
  void OnTxnLockAcquire(TenantId instance, uint64_t txn, uint64_t key,
                        bool exclusive, bool upgrade);
  // A held lock was released. Releasing a key the transaction does not
  // hold is the phantom-unlock violation.
  void OnTxnLockRelease(TenantId instance, uint64_t txn, uint64_t key);
  // WOUND_WAIT wounded `victim`: legal only when the wounder is older.
  void OnTxnWound(TenantId instance, uint64_t wounder, uint64_t wounder_ts,
                  uint64_t victim, uint64_t victim_ts);
  // The transaction was reported committed with `writes_acked` of
  // `writes_total` writes durably acked — any shortfall is a lost
  // committed transaction ("txn.commit.lost").
  void OnTxnCommit(TenantId instance, uint64_t txn, uint64_t writes_acked,
                   uint64_t writes_total);
  void OnTxnAbort(TenantId instance, uint64_t txn);

  // --- End-of-run ----------------------------------------------------------
  // Balance checks over every ledger still held, in (tenant, ssd) order;
  // call only after a full drain. Returns true when no new violation was
  // recorded.
  bool CheckDrained();

 private:
  // Ledgers live in dense arenas (common/index_arena.h) rather than
  // unordered_maps: at 100k churned sessions the per-node allocations and
  // pointer chases dominated the checker's cost. A closed ledger's slot is
  // freed once it balances and recycled by the next session's first hook,
  // so under churn the arenas and indexes stay at the high-water mark of
  // live + draining sessions.
  struct ClientLedger {
    ClientLedger(TenantId t, int s) : tenant(t), ssd(s) {}
    void Reset(TenantId t, int s) { *this = ClientLedger(t, s); }
    TenantId tenant = 0;
    int ssd = -1;
    uint64_t admitted = 0;
    uint64_t issued = 0;
    uint64_t terminal = 0;         // ok + failed, issued or not
    uint64_t terminal_issued = 0;  // terminal IOs that had been issued
    // Highest credit the switch ever granted this (tenant, ssd); starts at
    // the client's optimistic initial grant.
    uint32_t max_credit_granted = 8;
    bool closed = false;  // OnClientClose seen: free once balanced
    bool balanced() const {
      return admitted == terminal && issued == terminal_issued;
    }
  };
  struct PolicyLedger {
    PolicyLedger(TenantId t, int s) : tenant(t), ssd(s) {}
    void Reset(TenantId t, int s) { *this = PolicyLedger(t, s); }
    TenantId tenant = 0;
    int ssd = -1;
    uint64_t target_admitted = 0;
    uint64_t dispatched = 0;
    uint64_t device_returns = 0;
    uint64_t delivered = 0;  // ok + non-ok through Deliver()
    uint64_t failed = 0;     // FailRequest() (never dispatched)
    bool closed = false;     // OnTargetSessionClosed seen: free once balanced
    bool balanced() const {
      return delivered + failed == target_admitted &&
             device_returns == dispatched;
    }
  };
  // One currently-backlogged tenant in a DRR's fairness comparison.
  // Cost-normalized service accrues while the tenant stays backlogged; the
  // baseline is (re-)captured lazily at the member's first serve of each
  // comparison epoch. Between a membership change and that first serve the
  // member receives no service, so the lazy capture equals the eager one —
  // but a churn storm pays O(1) per join/leave instead of O(members).
  struct DrrMember {
    TenantId tenant = 0;
    double service = 0.0;  // normalized service since joining the set
    double base = 0.0;     // baseline at the current comparison epoch
    uint64_t epoch = 0;    // epoch `base` was captured for
  };
  struct DrrState {
    uint64_t quantum = 128 * 1024;
    uint64_t max_weighted = 9 * 128 * 1024;
    uint64_t epoch = 0;             // bumped on every membership change
    uint64_t serves_since_scan = 0;
    std::vector<DrrMember> members;  // dense, swap-remove on leave
    common::IdIndexMap index;        // tenant -> position in members
  };
  // Dirty-replica bookkeeping per (instance, backend). Low cardinality
  // (instances x backends), so a plain map suffices. "Replica count
  // converges to 2 after faults clear": once drained, every recorded dirty
  // blob was either repaired or invalidated by a trim.
  struct KvLedger {
    uint64_t recorded = 0;
    uint64_t repaired = 0;
    uint64_t dropped = 0;
    uint64_t recorded_bytes = 0;
    uint64_t repaired_bytes = 0;
    uint64_t dropped_bytes = 0;
  };
  // Live transaction-attempt state: the checker's own copy of the held-lock
  // set, audited against every release. Erased at the terminal event (after
  // verifying every lock came back), so steady state stays O(in-flight).
  struct TxnState {
    uint64_t ts = 0;
    bool releasing = false;  // saw a release: acquires now violate 2PL
    bool terminal = false;   // committed/aborted; erased once held empties
    std::vector<uint64_t> held;
  };
  // Per-instance lifetime balance, audited at CheckDrained().
  struct TxnLedger {
    uint64_t begun = 0;
    uint64_t committed = 0;
    uint64_t aborted = 0;
    uint64_t acquired = 0;
    uint64_t released = 0;
    uint64_t live = 0;  // begun minus terminal
  };

  static uint64_t Key(TenantId tenant, int ssd) {
    return (static_cast<uint64_t>(tenant) << 16) ^
           static_cast<uint64_t>(static_cast<uint16_t>(ssd));
  }
  ClientLedger& Client(TenantId tenant, int ssd) {
    const uint64_t key = Key(tenant, ssd);
    uint32_t slot = client_index_.Find(key);
    if (slot == common::IdIndexMap::kNotFound) {
      slot = clients_.Allocate(tenant, ssd);
      client_index_.Put(key, slot);
    }
    return clients_[slot];
  }
  PolicyLedger& Policy(TenantId tenant, int ssd) {
    const uint64_t key = Key(tenant, ssd);
    uint32_t slot = policy_index_.Find(key);
    if (slot == common::IdIndexMap::kNotFound) {
      slot = policies_.Allocate(tenant, ssd);
      policy_index_.Put(key, slot);
    }
    return policies_[slot];
  }
  // Free the ledger's slot and index entry: the caller checked that it is
  // closed and balanced.
  template <typename Ledger>
  static void Retire(const Ledger& l, common::SlabArena<Ledger>& arena,
                     common::IdIndexMap& index) {
    const uint64_t key = Key(l.tenant, l.ssd);
    const uint32_t slot = index.Find(key);
    index.Erase(key);
    arena.Free(slot);
  }
  void MaybeRetireClient(const ClientLedger& c) {
    if (c.closed && c.balanced()) Retire(c, clients_, client_index_);
  }
  void MaybeRetirePolicy(const PolicyLedger& p) {
    if (p.closed && p.balanced()) Retire(p, policies_, policy_index_);
  }

  // The attached simulator's clock (0 when none is attached).
  Tick now() const { return sim_ ? sim_->now() : 0; }
  void Violate(const char* invariant, TenantId tenant, int ssd,
               std::string detail);
  void CheckDrrSkew(const DrrState& d, int ssd);

  bool fail_fast_;
  const sim::Simulator* sim_ = nullptr;
  const obs::EventTracer* tracer_ = nullptr;
  uint64_t checks_run_ = 0;
  std::vector<Violation> violations_;
  common::SlabArena<ClientLedger> clients_;
  common::IdIndexMap client_index_;
  common::SlabArena<PolicyLedger> policies_;
  common::IdIndexMap policy_index_;
  std::unordered_map<int, DrrState> drr_;
  std::unordered_map<uint64_t, KvLedger> kv_;  // Key(instance, backend)
  // Txn ids are globally unique per coordinator attempt; instances are low
  // cardinality. Keyed (instance, txn) and instance respectively.
  std::unordered_map<uint64_t, TxnState> txn_live_;  // Key(instance, txn&..)
  std::unordered_map<int32_t, TxnLedger> txns_;
  TxnState* FindTxn(TenantId instance, uint64_t txn);
  static uint64_t TxnKey(TenantId instance, uint64_t txn) {
    return (static_cast<uint64_t>(instance) << 48) ^ txn;
  }
};

}  // namespace gimbal::check
