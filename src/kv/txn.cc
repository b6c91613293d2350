#include "kv/txn.h"

#include <algorithm>
#include <cassert>

#include "core/params.h"
#include "obs/schema.h"

namespace gimbal::kv {

const char* ToString(TxnProtocol p) {
  switch (p) {
    case TxnProtocol::kNoWait:
      return "no_wait";
    case TxnProtocol::kWaitDie:
      return "wait_die";
    case TxnProtocol::kWoundWait:
      return "wound_wait";
  }
  return "?";
}

// --- LockManager -----------------------------------------------------------

void LockManager::Attach(const obs::Sinks& sinks, const sim::Simulator* sim) {
  obs_ = sinks.obs;
  chk_ = sinks.chk;
  instance_ = sinks.label;
  sim_ = sim;
  if (obs_ == nullptr) return;
  const obs::Labels l =
      obs_->metrics.FoldTenant(obs::Labels::TenantSsd(instance_, -1));
  m_wounds_ = &obs_->metrics.GetCounter(obs::schema::kTxnWounds, l);
  m_wait_depth_ =
      &obs_->metrics.GetGauge(obs::schema::kTxnWaitQueueDepth, l);
}

void LockManager::Begin(TxnId txn, uint64_t ts, WoundFn wound) {
  TxnEntry& e = txns_[txn];
  e.ts = ts;
  e.wound = std::move(wound);
  if (chk_ != nullptr) {
    chk_->OnTxnBegin(static_cast<TenantId>(instance_), txn, ts);
  }
}

bool LockManager::CompatibleWithHolders(const LockState& s, TxnId txn,
                                        LockMode mode) {
  if (s.xholder != kNoTxn && s.xholder != txn) return false;
  if (mode == LockMode::kExclusive) {
    if (s.xholder != kNoTxn && s.xholder != txn) return false;
    for (TxnId h : s.sharers) {
      if (h != txn) return false;
    }
  }
  return true;
}

void LockManager::ForEachConflict(
    const LockState& s, TxnId txn, LockMode mode,
    const std::function<void(TxnId, bool queued)>& fn) {
  // Conflicting holders.
  if (s.xholder != kNoTxn && s.xholder != txn) fn(s.xholder, false);
  if (mode == LockMode::kExclusive) {
    for (TxnId h : s.sharers) {
      if (h != txn) fn(h, false);
    }
  }
  // Conflicting queued requests: an X request conflicts with everything;
  // an S request conflicts with queued X (and X-upgrade) requests. Queued
  // requests of an upgrading holder are not skipped — an upgrade parked in
  // the queue is an X intent like any other.
  for (const Request& r : s.queue) {
    if (r.txn == txn) continue;
    if (mode == LockMode::kExclusive || r.mode == LockMode::kExclusive) {
      fn(r.txn, true);
    }
  }
}

void LockManager::GrantNow(LockState& s, TxnId txn, Key key, LockMode mode,
                           bool upgrade) {
  TxnEntry& e = txns_[txn];
  if (mode == LockMode::kExclusive) {
    if (upgrade) {
      s.sharers.erase(std::find(s.sharers.begin(), s.sharers.end(), txn));
    }
    s.xholder = txn;
  } else {
    s.sharers.push_back(txn);
  }
  if (!upgrade) e.held.push_back(key);
  ++stats_.acquires;
  if (upgrade) ++stats_.upgrades;
  if (chk_ != nullptr) {
    chk_->OnTxnLockAcquire(static_cast<TenantId>(instance_), txn, key,
                           mode == LockMode::kExclusive, upgrade);
  }
}

void LockManager::InsertByTs(LockState& s, Request req) {
  // Oldest (smallest ts) first; FIFO among equals. Timestamp order keeps
  // WAIT_DIE/WOUND_WAIT wait-for edges acyclic (see header) and makes the
  // queue's service order independent of arrival interleavings.
  auto it = std::find_if(s.queue.begin(), s.queue.end(),
                         [&](const Request& r) { return r.ts > req.ts; });
  s.queue.insert(it, std::move(req));
}

void LockManager::UpdateWaitGauge() {
  if (m_wait_depth_ != nullptr) {
    m_wait_depth_->Set(static_cast<double>(waiting_));
  }
}

LockManager::Outcome LockManager::Acquire(TxnId txn, Key key, LockMode mode,
                                          GrantFn on_grant) {
  auto tit = txns_.find(txn);
  assert(tit != txns_.end() && "Acquire before Begin");
  TxnEntry& e = tit->second;
  LockState& s = table_[key];

  // Re-acquire of an already-held lock in the same or weaker mode.
  const bool holds_x = s.xholder == txn;
  const bool holds_s =
      std::find(s.sharers.begin(), s.sharers.end(), txn) != s.sharers.end();
  if (holds_x || (holds_s && mode == LockMode::kShared)) {
    if (s.sharers.empty() && s.xholder == kNoTxn && s.queue.empty()) {
      table_.erase(key);  // never materialized any state
    }
    return Outcome::kGranted;
  }
  const bool upgrade = holds_s && mode == LockMode::kExclusive;

  // Collect the conflict set once; the grant test and every protocol
  // decision key off it. For an upgrade only the *other holders* block —
  // queued requests sit behind the S lock the upgrader already holds.
  std::vector<std::pair<TxnId, bool>> conflicts;
  if (upgrade) {
    for (TxnId h : s.sharers) {
      if (h != txn) conflicts.emplace_back(h, false);
    }
    if (s.xholder != kNoTxn && s.xholder != txn) {
      conflicts.emplace_back(s.xholder, false);
    }
  } else {
    ForEachConflict(s, txn, mode, [&](TxnId t, bool queued) {
      // A queued request strictly younger than this one will sit BEHIND it
      // in the ts-ordered queue, so it cannot delay this grant. Counting
      // it would park an older requester that is compatible with every
      // holder — if those holders are themselves waiting elsewhere, the
      // oldest transaction in the system stalls on nothing and WOUND_WAIT
      // loses its liveness anchor (the oldest txn must always progress).
      if (queued && txns_[t].ts > e.ts) return;
      conflicts.emplace_back(t, queued);
    });
  }

  if (conflicts.empty()) {
    GrantNow(s, txn, key, mode, upgrade);
    return Outcome::kGranted;
  }

  switch (protocol_) {
    case TxnProtocol::kNoWait:
      ++stats_.aborts;
      if (s.sharers.empty() && s.xholder == kNoTxn && s.queue.empty()) {
        table_.erase(key);
      }
      return Outcome::kAbort;
    case TxnProtocol::kWaitDie: {
      // Wait only when older than EVERY conflicting holder and waiter, so
      // wait-for edges always point old -> young (deadlock-free; see
      // header). Anything else dies and retries with its original ts.
      for (const auto& [t, queued] : conflicts) {
        (void)queued;
        if (txns_[t].ts <= e.ts) {
          ++stats_.aborts;
          return Outcome::kAbort;
        }
      }
      break;  // wait
    }
    case TxnProtocol::kWoundWait: {
      // Wound every younger conflicting *holder* that is not pinned in its
      // commit, then wait. Wound callbacks are collected BY VALUE and
      // fired after the queue insertion: a parked victim aborts
      // synchronously inside its callback, and its ReleaseAll destroys the
      // TxnEntry the original std::function lives in.
      std::vector<WoundFn> fire;
      for (const auto& [t, queued] : conflicts) {
        if (queued) continue;
        TxnEntry& victim = txns_[t];
        if (victim.ts <= e.ts || victim.pinned || victim.wounded) continue;
        victim.wounded = true;
        ++stats_.wounds;
        if (m_wounds_ != nullptr) m_wounds_->Add();
        if (chk_ != nullptr) {
          chk_->OnTxnWound(static_cast<TenantId>(instance_), txn, e.ts, t,
                           victim.ts);
        }
        if (obs_ != nullptr) {
          obs_->tracer.Instant(
              sim_ != nullptr ? sim_->now() : 0, obs::schema::kEvTxnWound,
              obs::Labels::TenantSsd(instance_, -1),
              {{"wounder_ts", static_cast<double>(e.ts)},
               {"victim_ts", static_cast<double>(victim.ts)}});
        }
        if (victim.wound) fire.push_back(victim.wound);
      }
      // GIMBAL_MUT(kLockLeak): seeded bug — the wounder "forgets" to queue
      // itself after wounding, and its eventual ReleaseAll misses the lock
      // it still thinks it owns. Modeled below at queue time.
      InsertByTs(s, Request{txn, e.ts, mode, upgrade, std::move(on_grant)});
      e.queued.push_back(key);
      ++stats_.waits;
      ++waiting_;
      stats_.max_queue_depth =
          std::max<uint64_t>(stats_.max_queue_depth, s.queue.size());
      UpdateWaitGauge();
      if (obs_ != nullptr) {
        obs_->tracer.Instant(sim_ != nullptr ? sim_->now() : 0,
                             obs::schema::kEvTxnWait,
                             obs::Labels::TenantSsd(instance_, -1),
                             {{"ts", static_cast<double>(e.ts)}});
      }
      for (WoundFn& f : fire) f();
      return Outcome::kWaiting;
    }
  }

  // WAIT_DIE wait path (WOUND_WAIT queued above, NO_WAIT never reaches).
  InsertByTs(s, Request{txn, e.ts, mode, upgrade, std::move(on_grant)});
  e.queued.push_back(key);
  ++stats_.waits;
  ++waiting_;
  stats_.max_queue_depth =
      std::max<uint64_t>(stats_.max_queue_depth, s.queue.size());
  UpdateWaitGauge();
  if (obs_ != nullptr) {
    obs_->tracer.Instant(sim_ != nullptr ? sim_->now() : 0,
                         obs::schema::kEvTxnWait,
                         obs::Labels::TenantSsd(instance_, -1),
                         {{"ts", static_cast<double>(e.ts)}});
  }
  return Outcome::kWaiting;
}

void LockManager::PinCommit(TxnId txn) {
  auto it = txns_.find(txn);
  if (it != txns_.end()) it->second.pinned = true;
}

void LockManager::Promote(Key key, std::vector<GrantFn>* fired) {
  auto sit = table_.find(key);
  if (sit == table_.end()) return;
  LockState& s = sit->second;

  // An upgrade parked anywhere in the queue is granted the moment its
  // owner is the sole remaining holder — it cannot be serviced in queue
  // order (the queue head may be waiting for the upgrader's own S lock,
  // the classic upgrade deadlock).
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = s.queue.begin(); it != s.queue.end(); ++it) {
      if (!it->upgrade) continue;
      if (s.xholder != kNoTxn) break;
      if (s.sharers.size() != 1 || s.sharers[0] != it->txn) continue;
      Request req = std::move(*it);
      s.queue.erase(it);
      --waiting_;
      TxnEntry& e = txns_[req.txn];
      e.queued.erase(
          std::find(e.queued.begin(), e.queued.end(), key));
      GrantNow(s, req.txn, key, req.mode, /*upgrade=*/true);
      fired->push_back(std::move(req.grant));
      progressed = true;
      break;
    }
    // Grant from the head while compatible: one X, or a run of S.
    while (!s.queue.empty()) {
      Request& head = s.queue.front();
      if (head.upgrade) {
        // Handled by the scan above; a non-sole-holder upgrade blocks the
        // queue behind the S lock it already holds.
        break;
      }
      if (!CompatibleWithHolders(s, head.txn, head.mode)) break;
      Request req = std::move(head);
      s.queue.pop_front();
      --waiting_;
      TxnEntry& e = txns_[req.txn];
      e.queued.erase(
          std::find(e.queued.begin(), e.queued.end(), key));
      GrantNow(s, req.txn, key, req.mode, /*upgrade=*/false);
      fired->push_back(std::move(req.grant));
      progressed = true;
    }
  }
  // WOUND_WAIT grant-time re-validation: head drains preserve ts order,
  // but the sole-holder upgrade promotion can grant a YOUNGER upgrader
  // while an OLDER request sits parked in the queue — the old waiter then
  // waits old -> young, which can close a cycle across two keys (neither
  // side gets wounded: both wound scans ran before the upgrade grant).
  // Re-apply the wound rule on behalf of every queued request: conflicting
  // holders younger than the waiter are wounded, exactly as if the waiter
  // were acquiring now.
  if (protocol_ == TxnProtocol::kWoundWait) {
    for (const Request& r : s.queue) {
      const uint64_t rts = txns_[r.txn].ts;
      if (txns_[r.txn].wounded) continue;
      auto maybe_wound = [&](TxnId h) {
        if (h == r.txn) return;
        TxnEntry& victim = txns_[h];
        if (victim.ts <= rts || victim.pinned || victim.wounded) return;
        victim.wounded = true;
        ++stats_.wounds;
        if (m_wounds_ != nullptr) m_wounds_->Add();
        if (chk_ != nullptr) {
          chk_->OnTxnWound(static_cast<TenantId>(instance_), r.txn, rts, h,
                           victim.ts);
        }
        if (obs_ != nullptr) {
          obs_->tracer.Instant(
              sim_ != nullptr ? sim_->now() : 0, obs::schema::kEvTxnWound,
              obs::Labels::TenantSsd(instance_, -1),
              {{"wounder_ts", static_cast<double>(rts)},
               {"victim_ts", static_cast<double>(victim.ts)}});
        }
        // Fired as a value copy with the grants: a synchronously-aborting
        // victim erases its own TxnEntry (and the original std::function).
        if (victim.wound) fired->push_back(victim.wound);
      };
      if (s.xholder != kNoTxn) maybe_wound(s.xholder);
      if (r.mode == LockMode::kExclusive) {
        for (TxnId h : s.sharers) maybe_wound(h);
      }
    }
  }
  // WAIT_DIE grant-time re-validation: the enqueue rule ("wait only when
  // older than every conflicting holder and waiter") keeps edges old ->
  // young at enqueue, but a grant can break it afterwards — an older
  // waiter jumps the ts-ordered queue, becomes holder, and a younger
  // waiter parked earlier now waits young -> old, which can close a cycle
  // across two keys. Re-apply the die rule: any queued request left
  // conflicting with an older-or-equal holder dies (booked as a WAIT_DIE
  // abort, not a wound; its callback fires with the grants).
  if (protocol_ == TxnProtocol::kWaitDie) {
    for (const Request& r : s.queue) {
      TxnEntry& re = txns_[r.txn];
      if (re.wounded) continue;
      auto older_holder = [&](TxnId h) {
        return h != r.txn && txns_[h].ts <= re.ts;
      };
      bool die = s.xholder != kNoTxn && older_holder(s.xholder);
      if (!die && r.mode == LockMode::kExclusive) {
        for (TxnId h : s.sharers) {
          if (older_holder(h)) {
            die = true;
            break;
          }
        }
      }
      if (!die) continue;
      re.wounded = true;
      ++stats_.aborts;
      if (re.wound) fired->push_back(re.wound);
    }
  }
  if (s.sharers.empty() && s.xholder == kNoTxn && s.queue.empty()) {
    table_.erase(sit);
  }
}

void LockManager::ReleaseAll(TxnId txn) {
  auto tit = txns_.find(txn);
  if (tit == txns_.end()) return;  // idempotent (double-release is a no-op)
  TxnEntry e = std::move(tit->second);
  txns_.erase(tit);

  std::vector<Key> touched;
  touched.reserve(e.held.size() + e.queued.size());

  size_t held_count = e.held.size();
  if (GIMBAL_MUT(kLockLeak) && held_count > 1) {
    // Seeded bug: "forget" the last held key — it stays locked forever and
    // the checker's acquired/released ledger goes unbalanced
    // (drain.txn.locks), with waiters behind it parked for good.
    --held_count;
  }
  for (size_t i = 0; i < held_count; ++i) {
    const Key key = e.held[i];
    auto sit = table_.find(key);
    if (sit == table_.end()) continue;
    LockState& s = sit->second;
    if (s.xholder == txn) {
      s.xholder = kNoTxn;
    } else {
      auto it = std::find(s.sharers.begin(), s.sharers.end(), txn);
      if (it != s.sharers.end()) s.sharers.erase(it);
    }
    ++stats_.releases;
    if (chk_ != nullptr) {
      chk_->OnTxnLockRelease(static_cast<TenantId>(instance_), txn, key);
    }
    touched.push_back(key);
  }
  if (GIMBAL_MUT(kPhantomUnlock) && !e.held.empty()) {
    // Seeded bug: release the first key twice — the second release is of a
    // lock the transaction no longer holds (txn.lock.phantom).
    if (chk_ != nullptr) {
      chk_->OnTxnLockRelease(static_cast<TenantId>(instance_), txn,
                             e.held[0]);
    }
  }
  // Cancel parked requests (an aborted waiter never received its lock).
  for (const Key key : e.queued) {
    auto sit = table_.find(key);
    if (sit == table_.end()) continue;
    LockState& s = sit->second;
    auto it = std::find_if(s.queue.begin(), s.queue.end(),
                           [&](const Request& r) { return r.txn == txn; });
    if (it != s.queue.end()) {
      s.queue.erase(it);
      --waiting_;
    }
    touched.push_back(key);
  }

  // Promote newly grantable waiters; grants fire only after the whole
  // table settles, so a grantee that synchronously releases (read-only
  // commit) sees consistent state.
  std::vector<GrantFn> fired;
  for (const Key key : touched) Promote(key, &fired);
  UpdateWaitGauge();
  for (GrantFn& f : fired) {
    if (f) f();
  }
}

bool LockManager::Holds(TxnId txn, Key key) const {
  auto sit = table_.find(key);
  if (sit == table_.end()) return false;
  const LockState& s = sit->second;
  return s.xholder == txn ||
         std::find(s.sharers.begin(), s.sharers.end(), txn) !=
             s.sharers.end();
}

size_t LockManager::held_count(TxnId txn) const {
  auto it = txns_.find(txn);
  return it == txns_.end() ? 0 : it->second.held.size();
}

// --- TxnCoordinator --------------------------------------------------------

TxnCoordinator::TxnCoordinator(sim::Simulator& sim, KvDb& db, Config cfg)
    : sim_(sim), db_(db), cfg_(cfg), locks_(cfg.protocol) {}

TxnCoordinator::TxnCoordinator(sim::Simulator& sim, KvDb& db)
    : TxnCoordinator(sim, db, Config()) {}

void TxnCoordinator::Attach(const obs::Sinks& sinks) {
  obs_ = sinks.obs;
  chk_ = sinks.chk;
  instance_ = sinks.label;
  locks_.Attach(sinks, &sim_);
  if (obs_ == nullptr) return;
  const obs::Labels l =
      obs_->metrics.FoldTenant(obs::Labels::TenantSsd(instance_, -1));
  m_commits_ = &obs_->metrics.GetCounter(obs::schema::kTxnCommits, l);
  m_aborts_ = &obs_->metrics.GetCounter(obs::schema::kTxnAborts, l);
  m_retries_ = &obs_->metrics.GetCounter(obs::schema::kTxnRetries, l);
}

void TxnCoordinator::Submit(TxnRequest req, TxnDone done) {
  auto t = std::make_shared<Txn>();
  t->ts = next_ts_++;
  t->req = std::move(req);
  t->done = std::move(done);
  ++stats_.submitted;
  StartAttempt(t);
}

void TxnCoordinator::StartAttempt(const std::shared_ptr<Txn>& t) {
  t->id = next_txn_++;
  ++t->attempts;
  t->next_op = 0;
  t->wounded = false;
  t->in_commit = false;
  t->commit_total = t->commit_resolved = t->commit_acked = 0;
  t->commit_status = IoStatus::kOk;
  t->acked_keys.clear();
  t->lock_waiting = false;
  // Wounded mid-IO: flag only, the IO completion aborts. Wounded while
  // parked in a lock queue: abort right here — a parked transaction has
  // no pending event, deferring would park the wounder behind it forever.
  locks_.Begin(t->id, t->ts, [this, t]() {
    t->wounded = true;
    if (t->lock_waiting) {
      t->lock_waiting = false;
      AbortAttempt(t, IoStatus::kAborted);
    }
  });
  ExecuteNext(t);
}

void TxnCoordinator::ExecuteNext(const std::shared_ptr<Txn>& t) {
  if (t->wounded) {
    AbortAttempt(t, IoStatus::kAborted);
    return;
  }
  if (t->next_op >= t->req.ops.size()) {
    Commit(t);
    return;
  }
  const TxnOp& op = t->req.ops[t->next_op];
  const LockMode mode =
      op.write ? LockMode::kExclusive : LockMode::kShared;
  const TxnId attempt = t->id;
  // Arm before the call: a grant (or a wound-abort) can fire from inside
  // Acquire when the protocol synchronously unblocks this request, and it
  // must find the flag set so the state is consistent on return.
  t->lock_waiting = true;
  const LockManager::Outcome out = locks_.Acquire(
      t->id, op.key, mode, [this, t, attempt, op]() {
        OnLockGranted(t, attempt, op);
      });
  switch (out) {
    case LockManager::Outcome::kGranted:
      OnLockGranted(t, attempt, op);
      break;
    case LockManager::Outcome::kWaiting:
      break;  // resumes via the grant callback (or the wound abort)
    case LockManager::Outcome::kAbort:
      t->lock_waiting = false;
      AbortAttempt(t, IoStatus::kAborted);
      break;
  }
}

void TxnCoordinator::OnLockGranted(const std::shared_ptr<Txn>& t,
                                   TxnId attempt, const TxnOp& op) {
  if (Stale(t, attempt)) return;
  t->lock_waiting = false;
  if (t->wounded) {
    AbortAttempt(t, IoStatus::kAborted);
    return;
  }
  if (op.write) {
    // Writes are staged: the X lock is held, the payload goes to the WAL
    // at commit. Nothing to read back — advance.
    ++t->next_op;
    ExecuteNext(t);
    return;
  }
  IssueRead(t, attempt, op);
}

void TxnCoordinator::IssueRead(const std::shared_ptr<Txn>& t, TxnId attempt,
                               const TxnOp& op) {
  ++stats_.reads;
  db_.Get(op.key, [this, t, attempt, key = op.key](IoStatus st, bool found,
                                                   Value value) {
    if (Stale(t, attempt)) return;
    if (st != IoStatus::kOk || t->wounded) {
      AbortAttempt(t, st == IoStatus::kOk ? IoStatus::kAborted : st);
      return;
    }
    // Serializability oracle: under a correctly-held S lock this read must
    // observe the stamp of the last committed write to the key. A lock
    // manager that let a writer slip past surfaces here.
    auto it = oracle_.find(key);
    if (it != oracle_.end() && (!found || value.stamp != it->second)) {
      ++stats_.stamp_mismatches;
    }
    ++t->next_op;
    ExecuteNext(t);
  });
}

void TxnCoordinator::Commit(const std::shared_ptr<Txn>& t) {
  t->in_commit = true;
  locks_.PinCommit(t->id);
  t->stamp = next_stamp_++;
  const TxnId attempt = t->id;
  uint32_t writes = 0;
  for (const TxnOp& op : t->req.ops) {
    if (op.write) ++writes;
  }
  t->commit_total = writes;
  if (writes == 0) {
    FinishCommit(t);
    return;
  }
  // Every write rides the WAL group-commit path; its ack is held until at
  // least one replica is durable (PR 7), so a "committed" transaction can
  // never lose a write.
  for (const TxnOp& op : t->req.ops) {
    if (!op.write) continue;
    db_.Put(op.key, op.bytes, t->stamp,
            [this, t, attempt, key = op.key](IoStatus st) {
              if (Stale(t, attempt)) return;
              ++t->commit_resolved;
              if (st == IoStatus::kOk) {
                ++t->commit_acked;
                t->acked_keys.push_back(key);
              } else if (t->commit_status == IoStatus::kOk) {
                t->commit_status = st;
              }
              if (t->commit_resolved == t->commit_total) FinishCommit(t);
            });
  }
}

void TxnCoordinator::FinishCommit(const std::shared_ptr<Txn>& t) {
  // The oracle advances for every durably acked key — also on the failure
  // path (a crash can fail the transaction as a whole after some writes
  // committed; those keys' latest durable stamp is still this one).
  for (const Key key : t->acked_keys) oracle_[key] = t->stamp;

  if (t->commit_acked != t->commit_total) {
    // A write died un-acked (process crash mid-commit): the transaction is
    // NOT reported committed. Locks were pinned, so this attempt cannot
    // have wounded anyone; it terminates here — re-running a half-durable
    // commit would double-apply writes under a fresh stamp.
    if (chk_ != nullptr) {
      chk_->OnTxnAbort(static_cast<TenantId>(instance_), t->id);
    }
    locks_.ReleaseAll(t->id);
    ++stats_.failed;
    TxnResult r;
    r.committed = false;
    r.status = t->commit_status == IoStatus::kOk ? IoStatus::kAborted
                                                 : t->commit_status;
    Terminal(t, r);
    return;
  }

  for (const TxnOp& op : t->req.ops) {
    if (op.write && oracle_.find(op.key) == oracle_.end()) {
      oracle_[op.key] = t->stamp;  // zero-write path never reaches here
    }
  }
  stats_.writes += t->commit_total;
  ++stats_.commits;
  if (m_commits_ != nullptr) m_commits_->Add();
  if (obs_ != nullptr) {
    obs_->tracer.Instant(sim_.now(), obs::schema::kEvTxnCommit,
                         obs::Labels::TenantSsd(instance_, -1),
                         {{"ts", static_cast<double>(t->ts)},
                          {"writes", static_cast<double>(t->commit_total)},
                          {"attempts", static_cast<double>(t->attempts)}});
  }
  if (chk_ != nullptr) {
    chk_->OnTxnCommit(static_cast<TenantId>(instance_), t->id,
                      t->commit_acked, t->commit_total);
  }
  // Strict 2PL: locks release only after the commit is durable and
  // reported to the checker.
  locks_.ReleaseAll(t->id);
  TxnResult r;
  r.committed = true;
  r.commit_stamp = t->stamp;
  Terminal(t, r);
}

void TxnCoordinator::AbortAttempt(const std::shared_ptr<Txn>& t,
                                  IoStatus status) {
  t->lock_waiting = false;
  ++stats_.attempt_aborts;
  if (m_aborts_ != nullptr) m_aborts_->Add();
  if (obs_ != nullptr) {
    obs_->tracer.Instant(sim_.now(), obs::schema::kEvTxnAbort,
                         obs::Labels::TenantSsd(instance_, -1),
                         {{"ts", static_cast<double>(t->ts)},
                          {"attempt", static_cast<double>(t->attempts)}});
  }
  if (chk_ != nullptr) {
    chk_->OnTxnAbort(static_cast<TenantId>(instance_), t->id);
  }
  locks_.ReleaseAll(t->id);
  const TxnId stale_guard = t->id;
  t->id = kNoTxn;  // invalidate in-flight callbacks of this attempt
  (void)stale_guard;

  if (give_up_ ||
      (cfg_.max_attempts > 0 && t->attempts >= cfg_.max_attempts)) {
    ++stats_.failed;
    TxnResult r;
    r.committed = false;
    r.status = status;
    Terminal(t, r);
    return;
  }
  ++stats_.retries;
  if (m_retries_ != nullptr) m_retries_->Add();
  // Capped exponential backoff (the initiator's policy) plus a
  // deterministic per-attempt jitter: NO_WAIT retry storms on a hot key
  // would otherwise re-collide in lockstep forever. The jitter keys off
  // the globally-unique attempt id, so it is reproducible bit-for-bit.
  const Tick delay = fabric::BackoffFor(cfg_.retry, t->attempts) +
                     static_cast<Tick>(next_txn_ % 7) * Microseconds(13);
  sim_.After(delay, [this, t]() { StartAttempt(t); });
}

void TxnCoordinator::Terminal(const std::shared_ptr<Txn>& t, TxnResult r) {
  r.attempts = t->attempts;
  if (t->done) {
    TxnDone done = std::move(t->done);
    t->done = nullptr;
    done(r);
  }
}

// --- TxnClient -------------------------------------------------------------

TxnClient::TxnClient(sim::Simulator& sim, TxnCoordinator& coord,
                     workload::TpccSpec spec, int concurrency)
    : sim_(sim), coord_(coord), gen_(spec), concurrency_(concurrency) {}

void TxnClient::Start() {
  if (running_) return;
  running_ = true;
  for (int i = 0; i < concurrency_; ++i) IssueOne();
}

void TxnClient::IssueOne() {
  workload::TpccTxn txn = gen_.Next();
  TxnRequest req;
  req.ops.reserve(txn.ops.size());
  for (const workload::TpccOp& op : txn.ops) {
    TxnOp o;
    o.key = op.key;
    o.write = op.write;
    o.bytes = op.write ? gen_.spec().value_bytes : 0;
    req.ops.push_back(o);
  }
  const Tick start = sim_.now();
  const workload::TpccTxnType type = txn.type;
  coord_.Submit(std::move(req), [this, start, type](TxnResult r) {
    ++stats_.txns;
    stats_.attempts += static_cast<uint64_t>(r.attempts);
    if (r.committed) {
      ++stats_.committed;
      if (type == workload::TpccTxnType::kNewOrder) {
        ++stats_.new_orders;
      } else {
        ++stats_.payments;
      }
      stats_.commit_latency.Record(sim_.now() - start);
    } else {
      ++stats_.failed;
    }
    if (running_) IssueOne();
  });
}

}  // namespace gimbal::kv
