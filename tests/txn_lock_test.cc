// Randomized lock-manager property test (docs/TESTING.md): drives the 2PL
// LockManager directly — no simulator, no coordinator — with a fleet of
// model transaction slots executing random lock plans back to back, and
// cross-checks every observable against a reference mirror built purely
// from the manager's own grant reports. Per protocol × 3 seeds, a 40k
// lock-op budget each (>100k lock operations per protocol):
//
//   * mutual exclusion — no two conflicting grants are ever outstanding,
//   * introspection (Holds / held_count / total_waiting) matches the
//     mirror at every step,
//   * NO_WAIT never queues a waiter (zero kWaiting outcomes, waits == 0),
//   * WAIT_DIE / WOUND_WAIT are deadlock-free: the harness asserts there
//     is always a runnable transaction until every plan has committed,
//   * every transaction eventually commits (wound/die victims retry with
//     their original timestamp and must win in bounded time),
//   * the table drains to idle with acquires == releases.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "kv/txn.h"

namespace gimbal::kv {
namespace {

constexpr int kSlots = 48;
constexpr int kKeys = 16;  // small keyspace: force heavy conflicts
constexpr uint64_t kOpsBudget = 40'000;  // Acquire calls per seed
constexpr int kMaxSteps = 2'000'000;     // livelock backstop

struct Slot {
  uint64_t ts = 0;    // conflict priority of the current logical txn
  TxnId id = kNoTxn;  // current attempt id, kNoTxn between attempts
  std::vector<std::pair<Key, LockMode>> plan;
  size_t pos = 0;
  std::map<Key, LockMode> held;  // mirror, built from grant reports only
  bool waiting = false;
  bool wounded = false;
  bool need_restart = false;
  bool done = false;  // budget exhausted and last txn committed
  uint64_t committed = 0;
  uint64_t restarts = 0;
};

class Harness {
 public:
  Harness(TxnProtocol protocol, uint64_t seed)
      : protocol_(protocol), lm_(protocol), rng_(seed) {
    lm_.Attach({.label = /*instance*/ 0}, /*sim=*/nullptr);
    slots_.resize(kSlots);
    for (int i = 0; i < kSlots; ++i) NewTxn(i);
  }

  LockManager& lm() { return lm_; }
  uint64_t total_ops() const { return total_ops_; }
  uint64_t total_commits() const {
    uint64_t n = 0;
    for (const Slot& s : slots_) n += s.committed;
    return n;
  }

  // Random-schedules the slots until the op budget is spent and every
  // in-flight transaction committed. Fails on deadlock (no runnable slot
  // while work remains) or on step exhaustion (livelock).
  bool RunToCompletion() {
    for (int step = 0; step < kMaxSteps; ++step) {
      std::vector<int> runnable;
      bool live = false;
      for (int i = 0; i < kSlots; ++i) {
        const Slot& s = slots_[static_cast<size_t>(i)];
        if (s.done) continue;
        live = true;
        if (!s.waiting) runnable.push_back(i);
      }
      if (!live) return true;
      if (runnable.empty()) {
        std::ostringstream dump;
        for (int i = 0; i < kSlots; ++i) {
          const Slot& s = slots_[static_cast<size_t>(i)];
          if (s.done) continue;
          dump << "\n  slot " << i << " id=" << s.id << " ts=" << s.ts
               << " pos=" << s.pos << "/" << s.plan.size()
               << (s.wounded ? " wounded" : "") << " wants ";
          if (s.pos < s.plan.size()) {
            dump << s.plan[s.pos].first
                 << (s.plan[s.pos].second == LockMode::kExclusive ? "X"
                                                                  : "S");
          } else {
            dump << "-";
          }
          dump << " holds";
          for (const auto& [k, m] : s.held) {
            dump << " " << k << (m == LockMode::kExclusive ? "X" : "S");
          }
        }
        ADD_FAILURE() << "deadlock: all live transactions are waiting ("
                      << ToString(protocol_) << ")" << dump.str();
        return false;
      }
      StepOne(runnable[rng_.NextBounded(runnable.size())]);
      if (step % 512 == 0) FullCrossCheck();
    }
    ADD_FAILURE() << "livelock: work remained after " << kMaxSteps
                  << " steps (" << ToString(protocol_) << ")";
    return false;
  }

  void FullCrossCheck() {
    // Mutual exclusion over the mirror: per key at most one X holder and
    // never S alongside another transaction's X.
    for (int k = 0; k < kKeys; ++k) {
      int holders = 0, xholders = 0;
      for (const Slot& s : slots_) {
        auto it = s.held.find(static_cast<Key>(k));
        if (it == s.held.end()) continue;
        ++holders;
        if (it->second == LockMode::kExclusive) ++xholders;
      }
      ASSERT_LE(xholders, 1) << "two X holders on key " << k;
      if (xholders == 1) {
        ASSERT_EQ(holders, 1) << "S holder alongside X on key " << k;
      }
    }
    // Introspection agrees with the mirror.
    size_t waiting = 0;
    for (const Slot& s : slots_) {
      if (s.waiting) ++waiting;
      if (s.id == kNoTxn) continue;
      ASSERT_EQ(lm_.held_count(s.id), s.held.size());
      for (const auto& [key, mode] : s.held) {
        (void)mode;
        ASSERT_TRUE(lm_.Holds(s.id, key));
      }
    }
    ASSERT_EQ(lm_.total_waiting(), waiting);
  }

 private:
  void NewTxn(int i) {
    Slot& s = slots_[static_cast<size_t>(i)];
    s.ts = next_ts_++;
    s.plan.clear();
    const size_t ops = 2 + rng_.NextBounded(6);
    for (size_t j = 0; j < ops; ++j) {
      s.plan.emplace_back(static_cast<Key>(rng_.NextBounded(kKeys)),
                          rng_.NextBool(0.4) ? LockMode::kExclusive
                                             : LockMode::kShared);
    }
    BeginAttempt(i);
  }

  void BeginAttempt(int i) {
    Slot& s = slots_[static_cast<size_t>(i)];
    s.id = next_id_++;
    s.pos = 0;
    s.held.clear();
    s.waiting = false;
    s.wounded = false;
    s.need_restart = false;
    // The coordinator's contract: a parked victim aborts inside the wound
    // callback (it has no pending event to abort from later); a "running"
    // victim (mid-IO in the real system) defers to its next step.
    lm_.Begin(s.id, s.ts, [this, i]() { OnWound(i); });
  }

  void OnWound(int i) {
    Slot& s = slots_[static_cast<size_t>(i)];
    s.wounded = true;
    if (s.waiting) {
      s.waiting = false;
      AbortAttempt(i);
    }
  }

  void OnGrant(int i, Key key, LockMode mode) {
    Slot& s = slots_[static_cast<size_t>(i)];
    s.waiting = false;
    NoteHeld(s, key, mode);
    ++s.pos;
  }

  static void NoteHeld(Slot& s, Key key, LockMode mode) {
    auto it = s.held.find(key);
    if (it == s.held.end()) {
      s.held.emplace(key, mode);
    } else if (mode == LockMode::kExclusive) {
      it->second = LockMode::kExclusive;
    }
  }

  void AbortAttempt(int i) {
    Slot& s = slots_[static_cast<size_t>(i)];
    lm_.ReleaseAll(s.id);
    s.id = kNoTxn;
    s.held.clear();
    s.need_restart = true;  // retries later with the same ts
    ++s.restarts;
  }

  void StepOne(int i) {
    Slot& s = slots_[static_cast<size_t>(i)];
    if (s.need_restart) {
      BeginAttempt(i);
      return;
    }
    if (s.wounded) {
      AbortAttempt(i);
      return;
    }
    if (s.pos >= s.plan.size()) {
      lm_.PinCommit(s.id);
      lm_.ReleaseAll(s.id);
      s.id = kNoTxn;
      s.held.clear();
      ++s.committed;
      if (total_ops_ < kOpsBudget) {
        NewTxn(i);  // closed loop: next logical transaction, fresh ts
      } else {
        s.done = true;
      }
      return;
    }
    const auto [key, mode] = s.plan[s.pos];
    ++total_ops_;
    auto it = s.held.find(key);
    const bool reacquire =
        it != s.held.end() && (it->second == LockMode::kExclusive ||
                               mode == LockMode::kShared);
    // Armed BEFORE the call (the coordinator's idiom): a WOUND_WAIT
    // requester that wounds a parked victim can be granted synchronously
    // inside Acquire — the victim's abort releases the key and promotes
    // the requester's freshly queued request — so the grant (which clears
    // the flag) may fire before Acquire returns kWaiting.
    s.waiting = true;
    const LockManager::Outcome out = lm_.Acquire(
        s.id, key, mode, [this, i, key, mode]() { OnGrant(i, key, mode); });
    switch (out) {
      case LockManager::Outcome::kGranted:
        s.waiting = false;
        NoteHeld(s, key, mode);
        ++s.pos;
        break;
      case LockManager::Outcome::kWaiting:
        EXPECT_FALSE(reacquire) << "re-acquire of a held lock queued";
        EXPECT_NE(protocol_, TxnProtocol::kNoWait)
            << "NO_WAIT returned kWaiting";
        break;  // s.waiting may already be false again (grant or wound)
      case LockManager::Outcome::kAbort:
        s.waiting = false;
        EXPECT_FALSE(reacquire) << "re-acquire of a held lock aborted";
        EXPECT_NE(protocol_, TxnProtocol::kWoundWait)
            << "WOUND_WAIT aborted the requester";
        AbortAttempt(i);
        break;
    }
  }

  TxnProtocol protocol_;
  LockManager lm_;
  Rng rng_;
  std::vector<Slot> slots_;
  TxnId next_id_ = 1;
  uint64_t next_ts_ = 1;
  uint64_t total_ops_ = 0;
};

void RunProperty(TxnProtocol protocol) {
  uint64_t ops = 0, commits = 0;
  for (uint64_t seed : {11u, 42u, 1009u}) {
    Harness h(protocol, seed);
    ASSERT_TRUE(h.RunToCompletion())
        << ToString(protocol) << " seed=" << seed;
    h.FullCrossCheck();
    // Strict 2PL drained: every lock came back, nothing waits, no state.
    EXPECT_TRUE(h.lm().idle()) << ToString(protocol) << " seed=" << seed;
    EXPECT_EQ(h.lm().total_waiting(), 0u);
    EXPECT_EQ(h.lm().table_keys(), 0u);
    const auto& s = h.lm().stats();
    // An upgrade is an acquire that does not add a held key, so each key
    // still releases exactly once: acquires = releases + upgrades.
    EXPECT_EQ(s.acquires, s.releases + s.upgrades)
        << ToString(protocol) << " seed=" << seed;
    if (protocol == TxnProtocol::kNoWait) {
      EXPECT_EQ(s.waits, 0u) << "NO_WAIT queued a waiter";
      EXPECT_EQ(s.wounds, 0u);
    }
    if (protocol == TxnProtocol::kWaitDie) {
      EXPECT_EQ(s.wounds, 0u);
    }
    ops += h.total_ops();
    commits += h.total_commits();
  }
  // The sweep must be a real stress, not a vacuous no-op. (NO_WAIT on a
  // 16-key 40%-exclusive keyspace aborts most attempts, so its commit
  // count is far below the waiting protocols' — the floor reflects that.)
  EXPECT_GT(ops, 100'000u) << ToString(protocol);
  EXPECT_GT(commits, 500u) << ToString(protocol);
}

TEST(TxnLockProperty, NoWaitNeverWaits) { RunProperty(TxnProtocol::kNoWait); }

TEST(TxnLockProperty, WaitDieDeadlockFree) {
  RunProperty(TxnProtocol::kWaitDie);
}

TEST(TxnLockProperty, WoundWaitDeadlockFree) {
  RunProperty(TxnProtocol::kWoundWait);
}

}  // namespace
}  // namespace gimbal::kv
