// Transaction layer over the KV store: strict two-phase locking with the
// three classic conflict policies (NO_WAIT, WAIT_DIE, WOUND_WAIT), a
// multi-key coordinator, and the closed-loop transactional client the
// TPC-C-lite driver (workload/tpcc.h) runs through.
//
// SmartOffloading (PAPERS.md) shows multi-key transactions over
// disaggregated storage are the canonical stressor for exactly the
// machinery Gimbal adds — bursty commit batches hit the write-cost
// estimator, abort/retry storms hit the credit flow control — so this
// layer deliberately reuses the existing paths end to end: reads go
// through `KvDb::Get` (failover, load balancing), commits through the WAL
// group-commit path (PR 7's ack-holding: a transaction is reported
// committed only once every one of its writes has a durable replica, so
// no committed transaction is ever lost), and retries back off with the
// initiator's bounded-exponential policy.
//
// Determinism: every structure here lives on the client side next to the
// DB instance that owns it and is driven purely by simulated-time events.
// Conflict decisions are keyed on
// transaction timestamps (a monotonic counter a restarted transaction
// keeps), never on wall clock or iteration order of unordered containers.
//
// Deadlock freedom (asserted by tests/txn_lock_test.cc):
//   * NO_WAIT never enqueues a waiter — conflicts abort immediately.
//   * WAIT_DIE lets a requester wait only when it is older (smaller ts)
//     than every conflicting holder AND every conflicting queued waiter
//     ahead of it in the ts-ordered queue (younger queued requests sit
//     behind it and are ignored), so wait-for edges always point
//     old -> young: acyclic.
//   * WOUND_WAIT wounds younger conflicting holders (unless they are
//     pinned mid-commit — commit never blocks on a lock, so pinned
//     holders are sinks) and queues the requester in timestamp order, so
//     wait-for edges always point young -> old: acyclic.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "fabric/initiator.h"
#include "kv/db.h"
#include "obs/obs.h"
#include "sim/simulator.h"
#include "workload/tpcc.h"

namespace gimbal::kv {

enum class TxnProtocol { kNoWait, kWaitDie, kWoundWait };
const char* ToString(TxnProtocol p);

enum class LockMode { kShared, kExclusive };

using TxnId = uint64_t;
inline constexpr TxnId kNoTxn = 0;

// Per-key reader/writer lock table with strict 2PL discipline. Waiting
// requests queue in timestamp order (oldest first) and are promoted
// synchronously when a release makes them grantable; an S->X upgrade by
// the sole remaining holder is promoted ahead of fresh requests.
class LockManager {
 public:
  // Fired when a queued request is granted (the lock is held by then).
  using GrantFn = std::function<void()>;
  // Fired at most once per transaction when the protocol demands its
  // abort while it is not the requester: a WOUND_WAIT wound by an older
  // requester, or a WAIT_DIE grant-time re-validation (an older waiter
  // jumped the queue and became holder ahead of this younger one — left
  // waiting, the young->old edge could close a two-key cycle). The victim
  // must abort and ReleaseAll; if it is parked in a lock queue it must do
  // so immediately (a parked transaction has no pending event to abort
  // from), if it is mid-IO it may defer to the IO completion.
  using WoundFn = std::function<void()>;

  enum class Outcome {
    kGranted,  // lock held now; the grant callback was not retained
    kWaiting,  // queued; the grant callback fires on promotion
    kAbort,    // protocol says abort (NO_WAIT conflict / WAIT_DIE die)
  };

  explicit LockManager(TxnProtocol protocol) : protocol_(protocol) {}

  // Register a transaction before its first Acquire. `ts` is the conflict
  // priority (smaller = older); a restarted transaction keeps its original
  // ts so it eventually wins every WAIT_DIE/WOUND_WAIT conflict.
  void Begin(TxnId txn, uint64_t ts, WoundFn wound);

  // Acquire `key` in `mode` for `txn`. Re-acquiring a held lock (same or
  // weaker mode) is a no-op kGranted; holding S and requesting X is an
  // upgrade. On kWaiting the callback is retained and fired on promotion;
  // on kAbort the caller must ReleaseAll (the transaction keeps its held
  // locks until then — the failed request itself holds nothing).
  Outcome Acquire(TxnId txn, Key key, LockMode mode, GrantFn on_grant);

  // The transaction entered commit: it will never acquire again and can no
  // longer be wounded (its locks are guaranteed to release in bounded
  // time, so older waiters are safe waiting for it).
  void PinCommit(TxnId txn);

  // Strict 2PL release: drop every lock `txn` holds, cancel any queued
  // request it still has parked, promote newly grantable waiters, and
  // forget the transaction. Terminal for `txn`'s lock state.
  void ReleaseAll(TxnId txn);

  // --- Introspection (tests, checker drain) --------------------------------
  bool Holds(TxnId txn, Key key) const;
  size_t held_count(TxnId txn) const;
  size_t table_keys() const { return table_.size(); }  // keys with state
  size_t total_waiting() const { return waiting_; }
  bool idle() const { return table_.empty() && txns_.empty(); }

  struct Stats {
    uint64_t acquires = 0;       // granted lock acquisitions (incl. upgrades)
    uint64_t upgrades = 0;       // S->X promotions among the acquires
    uint64_t waits = 0;          // requests that had to queue
    uint64_t aborts = 0;         // kAbort outcomes (NO_WAIT + WAIT_DIE die)
    uint64_t wounds = 0;         // WOUND_WAIT victims wounded
    uint64_t releases = 0;       // individual key locks released
    uint64_t max_queue_depth = 0;  // deepest single-key wait queue seen
  };
  const Stats& stats() const { return stats_; }

  // Attach txn.* metrics/trace and the checker; `sinks.label` is the
  // instance id labelling the series and the checker's per-instance txn
  // ledgers (docs/OBSERVABILITY.md, docs/TESTING.md). `sim` timestamps
  // txn.wait / txn.wound trace events (null traces at t=0).
  void Attach(const obs::Sinks& sinks, const sim::Simulator* sim);

 private:
  struct Request {
    TxnId txn = kNoTxn;
    uint64_t ts = 0;
    LockMode mode = LockMode::kShared;
    bool upgrade = false;  // txn already holds S on this key
    GrantFn grant;
  };
  struct LockState {
    std::vector<TxnId> sharers;    // granted S holders (insertion order)
    TxnId xholder = kNoTxn;        // granted X holder (excludes sharers)
    std::deque<Request> queue;     // ts-ordered, oldest first
  };
  struct TxnEntry {
    uint64_t ts = 0;
    bool pinned = false;
    bool wounded = false;
    WoundFn wound;
    std::vector<Key> held;    // keys this txn holds (S or X)
    std::vector<Key> queued;  // keys with a parked request (<= 1 in
                              // practice: the coordinator executes ops
                              // serially, but the table does not rely on it)
  };

  // True when `txn` may hold `key` in `mode` alongside current holders.
  static bool CompatibleWithHolders(const LockState& s, TxnId txn,
                                    LockMode mode);
  // Conflicting txns among holders and queued waiters (for the WAIT_DIE
  // wait/die decision and the WOUND_WAIT wound set).
  void ForEachConflict(const LockState& s, TxnId txn, LockMode mode,
                       const std::function<void(TxnId, bool queued)>& fn);
  void GrantNow(LockState& s, TxnId txn, Key key, LockMode mode,
                bool upgrade);
  void InsertByTs(LockState& s, Request req);
  // Promote grantable queue heads after a release; collected grant
  // callbacks fire after the table mutation settles.
  void Promote(Key key, std::vector<GrantFn>* fired);
  void UpdateWaitGauge();

  TxnProtocol protocol_;
  std::unordered_map<Key, LockState> table_;
  std::unordered_map<TxnId, TxnEntry> txns_;
  size_t waiting_ = 0;
  Stats stats_;

  int32_t instance_ = -1;
  obs::Observability* obs_ = nullptr;
  const sim::Simulator* sim_ = nullptr;
  obs::Counter* m_wounds_ = nullptr;
  obs::Gauge* m_wait_depth_ = nullptr;
  check::InvariantChecker* chk_ = nullptr;
};

// One operation of a transaction, executed in order. Reads take S locks
// and pay the `KvDb::Get` path; writes take X locks (upgrading a held S)
// and are staged until commit, where they pay the WAL group-commit path.
struct TxnOp {
  Key key = 0;
  bool write = false;
  uint32_t bytes = 0;  // write payload size
};

struct TxnRequest {
  std::vector<TxnOp> ops;
};

struct TxnResult {
  bool committed = false;
  IoStatus status = IoStatus::kOk;  // terminal status when not committed
  int attempts = 0;                 // execution attempts including the last
  uint64_t commit_stamp = 0;        // stamp the writes committed with
};

// Stages multi-key read/write sets through one `KvDb` under the lock
// manager's 2PL discipline. Aborted attempts retry with the initiator's
// capped exponential backoff (jittered deterministically by transaction id
// so NO_WAIT retry storms cannot lockstep-livelock) and keep their
// original timestamp. Commit acks only after every write's WAL batch is
// durable; locks release strictly after the commit ack (strict 2PL).
//
// Serializability oracle: the coordinator stamps each commit with a fresh
// sequence number and remembers, per key, the stamp of the last committed
// write. Every locked read compares the value it observed against the
// oracle — under correct 2PL they always match; a broken lock manager
// surfaces as `stamp_mismatches` (tests assert 0).
class TxnCoordinator {
 public:
  struct Config {
    TxnProtocol protocol = TxnProtocol::kWaitDie;
    // Attempts per transaction before giving up (0 = retry until
    // committed; the drain contract then relies on give_up()).
    int max_attempts = 0;
    fabric::RetryParams retry;  // backoff between attempts
  };

  using TxnDone = std::function<void(TxnResult)>;

  TxnCoordinator(sim::Simulator& sim, KvDb& db, Config cfg);
  TxnCoordinator(sim::Simulator& sim, KvDb& db);  // default Config

  void Submit(TxnRequest req, TxnDone done);

  // When set, aborted attempts terminate with their status instead of
  // retrying — the drain path for tests and benches tearing down while
  // transactions are still in flight.
  void set_give_up(bool v) { give_up_ = v; }

  LockManager& locks() { return locks_; }
  const Config& config() const { return cfg_; }

  struct Stats {
    uint64_t submitted = 0;
    uint64_t commits = 0;
    uint64_t attempt_aborts = 0;  // attempts that died (incl. retried ones)
    uint64_t retries = 0;         // re-executions after an aborted attempt
    uint64_t failed = 0;          // transactions terminal without commit
    uint64_t reads = 0;           // locked reads issued
    uint64_t writes = 0;            // committed write ops
    uint64_t stamp_mismatches = 0;  // serializability oracle violations
  };
  const Stats& stats() const { return stats_; }

  // Attach txn.* metrics/trace and the checker to the coordinator and its
  // lock manager; `sinks.label` is the KV instance id.
  void Attach(const obs::Sinks& sinks);

 private:
  struct Txn {
    TxnId id = kNoTxn;       // current attempt's id (fresh per attempt)
    uint64_t ts = 0;         // conflict priority, kept across retries
    TxnRequest req;
    TxnDone done;
    int attempts = 0;
    size_t next_op = 0;
    bool wounded = false;
    bool lock_waiting = false;  // parked in a lock queue (wound aborts now)
    bool in_commit = false;
    uint32_t commit_total = 0;     // write Puts issued at commit
    uint32_t commit_resolved = 0;  // write acks resolved (any status)
    uint32_t commit_acked = 0;     // write acks resolved kOk
    IoStatus commit_status = IoStatus::kOk;  // first non-ok write status
    // Keys whose commit write was durably acked — the oracle advances for
    // exactly these even when the commit as a whole fails (crash paths).
    std::vector<Key> acked_keys;
    uint64_t stamp = 0;  // commit stamp (assigned at PinCommit)
  };

  void StartAttempt(const std::shared_ptr<Txn>& t);
  void ExecuteNext(const std::shared_ptr<Txn>& t);
  void OnLockGranted(const std::shared_ptr<Txn>& t, TxnId attempt,
                     const TxnOp& op);
  void IssueRead(const std::shared_ptr<Txn>& t, TxnId attempt,
                 const TxnOp& op);
  void Commit(const std::shared_ptr<Txn>& t);
  void FinishCommit(const std::shared_ptr<Txn>& t);
  void AbortAttempt(const std::shared_ptr<Txn>& t, IoStatus status);
  void Terminal(const std::shared_ptr<Txn>& t, TxnResult r);
  bool Stale(const std::shared_ptr<Txn>& t, TxnId attempt) const {
    return t->id != attempt;
  }

  sim::Simulator& sim_;
  KvDb& db_;
  Config cfg_;
  LockManager locks_;
  uint64_t next_ts_ = 1;     // conflict priority source
  uint64_t next_txn_ = 1;    // attempt id source (also RNG-free jitter key)
  uint64_t next_stamp_ = 1;  // commit sequence
  bool give_up_ = false;
  std::unordered_map<Key, uint64_t> oracle_;  // last committed stamp
  Stats stats_;

  int32_t instance_ = -1;
  obs::Observability* obs_ = nullptr;
  obs::Counter* m_commits_ = nullptr;
  obs::Counter* m_aborts_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  check::InvariantChecker* chk_ = nullptr;
};

// Closed-loop transactional client: `concurrency` terminals, each running
// TPC-C-lite transactions (workload/tpcc.h) back to back through one
// coordinator — the transactional analogue of YcsbClient.
class TxnClient {
 public:
  TxnClient(sim::Simulator& sim, TxnCoordinator& coord,
            workload::TpccSpec spec, int concurrency = 4);

  void Start();
  void Stop() { running_ = false; }

  struct Stats {
    uint64_t txns = 0;  // terminal transactions (committed + failed)
    uint64_t committed = 0;
    uint64_t failed = 0;
    uint64_t new_orders = 0;  // committed, by type
    uint64_t payments = 0;
    uint64_t attempts = 0;  // attempts across terminal transactions
    LatencyHistogram commit_latency;  // submit-to-commit, committed only
    void Reset() { *this = Stats{}; }
  };
  Stats& stats() { return stats_; }

 private:
  void IssueOne();

  sim::Simulator& sim_;
  TxnCoordinator& coord_;
  workload::TpccGenerator gen_;
  int concurrency_;
  bool running_ = false;
  Stats stats_;
};

}  // namespace gimbal::kv
