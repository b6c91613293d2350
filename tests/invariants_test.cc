// Unit tests for the invariant checker's per-session ledger lifetime
// (src/check/invariants.h, "Ledger lifetime"):
//
//   * a closed ledger is freed as soon as it balances — at the close hook,
//     or at the terminal/deliver/fail/device-return hook that balances it;
//   * a closed ledger that never balances is kept and reported by
//     CheckDrained() exactly as before;
//   * a (tenant, ssd) reused after its ledger was freed starts from a
//     zeroed ledger, checked at least as strictly as the old one;
//   * a credit grant never creates a client ledger;
//   * differential: a checker that gets the close hooks and one that never
//     does report identical violation lists on the same random hook
//     streams, seeded faults included.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "check/invariants.h"
#include "common/rng.h"

namespace gimbal::check {
namespace {

constexpr TenantId kTenant = 7;
constexpr int kSsd = 1;

// One IO's valid client-side hook sequence with nothing else in flight.
void ClientIo(InvariantChecker& chk, TenantId t, int ssd) {
  chk.OnClientAdmit(t, ssd, 1);
  chk.OnClientIssue(t, ssd, 0, 1, 8, false);
  chk.OnClientTerminal(t, ssd, true, true, 0);
}

// One IO's valid target-side hook sequence.
void PolicyIo(InvariantChecker& chk, TenantId t, int ssd) {
  chk.OnTargetAdmit(t, ssd);
  chk.OnPolicyDispatch(t, ssd);
  chk.OnDeviceReturn(t, ssd, true);
  chk.OnPolicyDeliver(t, ssd, true);
}

TEST(CheckerLedgers, ClosedBalancedLedgerIsFreedAtOnce) {
  InvariantChecker chk(/*fail_fast=*/false);
  ClientIo(chk, kTenant, kSsd);
  PolicyIo(chk, kTenant, kSsd);
  EXPECT_EQ(chk.live_ledgers().client, 1u);
  EXPECT_EQ(chk.live_ledgers().policy, 1u);

  chk.OnClientClose(kTenant, kSsd);
  EXPECT_EQ(chk.live_ledgers().client, 0u);
  EXPECT_EQ(chk.live_ledgers().policy, 1u);
  chk.OnTargetSessionClosed(kTenant, kSsd);
  EXPECT_EQ(chk.live_ledgers().policy, 0u);

  // Closing a (tenant, ssd) that never saw an IO is a no-op.
  chk.OnClientClose(kTenant + 1, kSsd);
  chk.OnTargetSessionClosed(kTenant + 1, kSsd);
  EXPECT_EQ(chk.live_ledgers().client, 0u);
  EXPECT_EQ(chk.live_ledgers().policy, 0u);
  EXPECT_TRUE(chk.CheckDrained());
  EXPECT_TRUE(chk.ok());
}

TEST(CheckerLedgers, OpenBalancedLedgerIsKept) {
  InvariantChecker chk(/*fail_fast=*/false);
  ClientIo(chk, kTenant, kSsd);
  PolicyIo(chk, kTenant, kSsd);
  // Balanced but never closed: the next IO of the session needs it.
  EXPECT_EQ(chk.live_ledgers().client, 1u);
  EXPECT_EQ(chk.live_ledgers().policy, 1u);
  // Closing another SSD's session of the same tenant frees nothing here.
  chk.OnClientClose(kTenant, kSsd + 1);
  chk.OnTargetSessionClosed(kTenant, kSsd + 1);
  EXPECT_EQ(chk.live_ledgers().client, 1u);
  EXPECT_EQ(chk.live_ledgers().policy, 1u);
}

TEST(CheckerLedgers, ClosedLedgerIsFreedByTheHookThatBalancesIt) {
  InvariantChecker chk(/*fail_fast=*/false);
  // Client: two IOs issued, one terminal, then the session closes.
  chk.OnClientAdmit(kTenant, kSsd, 1);
  chk.OnClientAdmit(kTenant, kSsd, 2);
  chk.OnClientIssue(kTenant, kSsd, 1, 1, 8, false);
  chk.OnClientIssue(kTenant, kSsd, 0, 2, 8, false);
  chk.OnClientTerminal(kTenant, kSsd, true, true, 1);
  chk.OnClientClose(kTenant, kSsd);
  EXPECT_EQ(chk.live_ledgers().client, 1u);
  chk.OnClientTerminal(kTenant, kSsd, true, true, 0);
  EXPECT_EQ(chk.live_ledgers().client, 0u);

  // Policy: the deliver that balances frees it.
  chk.OnTargetAdmit(kTenant, kSsd);
  chk.OnTargetAdmit(kTenant, kSsd);
  chk.OnPolicyDispatch(kTenant, kSsd);
  chk.OnPolicyDispatch(kTenant, kSsd);
  chk.OnDeviceReturn(kTenant, kSsd, true);
  chk.OnPolicyDeliver(kTenant, kSsd, true);
  chk.OnTargetSessionClosed(kTenant, kSsd);
  EXPECT_EQ(chk.live_ledgers().policy, 1u);
  chk.OnDeviceReturn(kTenant, kSsd, false);
  EXPECT_EQ(chk.live_ledgers().policy, 1u) << "returned, not delivered";
  chk.OnPolicyDeliver(kTenant, kSsd, false);
  EXPECT_EQ(chk.live_ledgers().policy, 0u);

  // An IO failed before dispatch balances at the fail hook.
  chk.OnTargetAdmit(kTenant + 1, kSsd);
  chk.OnTargetSessionClosed(kTenant + 1, kSsd);
  EXPECT_EQ(chk.live_ledgers().policy, 1u);
  chk.OnPolicyFail(kTenant + 1, kSsd);
  EXPECT_EQ(chk.live_ledgers().policy, 0u);

  // Terminal counts alone do not balance: a device return still owed for
  // a dispatch keeps the ledger until it lands.
  chk.OnTargetAdmit(kTenant + 2, kSsd);
  chk.OnPolicyDispatch(kTenant + 2, kSsd);
  chk.OnPolicyFail(kTenant + 2, kSsd);
  chk.OnTargetSessionClosed(kTenant + 2, kSsd);
  EXPECT_EQ(chk.live_ledgers().policy, 1u);
  chk.OnDeviceReturn(kTenant + 2, kSsd, true);
  EXPECT_EQ(chk.live_ledgers().policy, 0u);

  EXPECT_TRUE(chk.CheckDrained());
  EXPECT_TRUE(chk.ok());
}

TEST(CheckerLedgers, ClosedUnbalancedLedgerIsReportedAtDrain) {
  InvariantChecker chk(/*fail_fast=*/false);
  // Client: issued IO whose terminal never comes.
  chk.OnClientAdmit(kTenant, kSsd, 1);
  chk.OnClientIssue(kTenant, kSsd, 0, 1, 8, false);
  chk.OnClientClose(kTenant, kSsd);
  // Policy: dispatched IO the device never returns.
  chk.OnTargetAdmit(kTenant + 1, kSsd + 1);
  chk.OnPolicyDispatch(kTenant + 1, kSsd + 1);
  chk.OnTargetSessionClosed(kTenant + 1, kSsd + 1);
  EXPECT_EQ(chk.live_ledgers().client, 1u);
  EXPECT_EQ(chk.live_ledgers().policy, 1u);
  ASSERT_TRUE(chk.ok());

  EXPECT_FALSE(chk.CheckDrained());
  const auto& v = chk.violations();
  ASSERT_EQ(v.size(), 4u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(v[i].invariant, "drain.client.balance");
    EXPECT_EQ(v[i].tenant, static_cast<int32_t>(kTenant));
    EXPECT_EQ(v[i].ssd, kSsd);
  }
  for (int i = 2; i < 4; ++i) {
    EXPECT_EQ(v[i].invariant, "drain.policy.balance");
    EXPECT_EQ(v[i].tenant, static_cast<int32_t>(kTenant + 1));
    EXPECT_EQ(v[i].ssd, kSsd + 1);
  }
}

TEST(CheckerLedgers, ReusedKeyStartsFromZeroedLedger) {
  InvariantChecker chk(/*fail_fast=*/false);
  // Session 1: one IO, a credit of 32 granted and adopted, one IO the
  // policy failed before dispatch, then both sides close.
  chk.OnClientAdmit(kTenant, kSsd, 1);
  chk.OnClientIssue(kTenant, kSsd, 0, 1, 8, true);
  chk.OnTargetAdmit(kTenant, kSsd);
  chk.OnPolicyDispatch(kTenant, kSsd);
  chk.OnDeviceReturn(kTenant, kSsd, true);
  chk.OnCreditGrant(kTenant, kSsd, 32);
  chk.OnPolicyDeliver(kTenant, kSsd, true);
  chk.OnClientCreditUpdate(kTenant, kSsd, 32);
  chk.OnClientTerminal(kTenant, kSsd, true, true, 0);
  chk.OnTargetAdmit(kTenant, kSsd);
  chk.OnPolicyFail(kTenant, kSsd);
  chk.OnClientClose(kTenant, kSsd);
  chk.OnTargetSessionClosed(kTenant, kSsd);
  ASSERT_EQ(chk.live_ledgers().client, 0u);
  ASSERT_EQ(chk.live_ledgers().policy, 0u);
  ASSERT_TRUE(chk.ok());

  // Session 2 on the same (tenant, ssd). Valid traffic passes.
  chk.OnClientAdmit(kTenant, kSsd, 1);
  chk.OnClientIssue(kTenant, kSsd, 0, 1, 8, true);
  chk.OnTargetAdmit(kTenant, kSsd);
  EXPECT_TRUE(chk.ok());
  // The session-1 grant is gone: adopting 32 now is a credit the switch
  // never granted this session.
  chk.OnClientCreditUpdate(kTenant, kSsd, 32);
  ASSERT_EQ(chk.violations().size(), 1u);
  EXPECT_EQ(chk.violations()[0].invariant, "client.credit.bound");
  // Session 1's failed-before-dispatch IO left no slack: a second dispatch
  // against one target admit is caught at once.
  chk.OnPolicyDispatch(kTenant, kSsd);
  EXPECT_EQ(chk.violations().size(), 1u);
  chk.OnPolicyDispatch(kTenant, kSsd);
  ASSERT_EQ(chk.violations().size(), 2u);
  EXPECT_EQ(chk.violations()[1].invariant, "policy.dispatch");

  // The drain report shows session-2 counts only.
  EXPECT_FALSE(chk.CheckDrained());
  bool saw_client = false;
  for (const auto& v : chk.violations()) {
    if (v.invariant != "drain.client.balance") continue;
    saw_client = saw_client ||
                 v.detail == "admitted=1 but terminal=0 after drain";
  }
  EXPECT_TRUE(saw_client);
}

TEST(CheckerLedgers, CreditGrantForUnknownOrFreedKeyAllocatesNothing) {
  InvariantChecker chk(/*fail_fast=*/false);
  // A grant for a (tenant, ssd) that never admitted an IO.
  chk.OnCreditGrant(kTenant, kSsd, 16);
  EXPECT_EQ(chk.live_ledgers().client, 0u);

  // A grant for a timed-out IO arriving after the client closed and its
  // ledger was freed.
  ClientIo(chk, kTenant + 1, kSsd);
  chk.OnClientClose(kTenant + 1, kSsd);
  ASSERT_EQ(chk.live_ledgers().client, 0u);
  chk.OnCreditGrant(kTenant + 1, kSsd, 16);
  EXPECT_EQ(chk.live_ledgers().client, 0u);
  EXPECT_EQ(chk.live_ledgers().policy, 0u);

  // A grant for an open ledger still raises its bound.
  chk.OnClientAdmit(kTenant + 2, kSsd, 1);
  chk.OnCreditGrant(kTenant + 2, kSsd, 16);
  chk.OnClientCreditUpdate(kTenant + 2, kSsd, 16);
  EXPECT_EQ(chk.live_ledgers().client, 1u);
  EXPECT_TRUE(chk.ok());
}

TEST(CheckerLedgers, DrainReportIsInTenantSsdOrder) {
  InvariantChecker chk(/*fail_fast=*/false);
  // Allocate in descending order, then free and recycle slots so the
  // arena's live order is neither allocation nor key order.
  for (TenantId t = 9; t >= 1; --t) chk.OnClientAdmit(t, 0, 1);
  for (TenantId t = 2; t <= 8; t += 3) {
    chk.OnClientTerminal(t, 0, false, false, 0);
    chk.OnClientClose(t, 0);
  }
  chk.OnClientAdmit(5, 1, 1);
  EXPECT_FALSE(chk.CheckDrained());
  std::vector<std::pair<int32_t, int>> order;
  for (const auto& v : chk.violations()) order.emplace_back(v.tenant, v.ssd);
  const std::vector<std::pair<int32_t, int>> want = {
      {1, 0}, {3, 0}, {4, 0}, {5, 1}, {6, 0}, {7, 0}, {9, 0}};
  EXPECT_EQ(order, want);
}

// --- Differential: freeing ledgers changes no verdict ----------------------
//
// Random per-hook streams of sessions over a small (tenant, ssd) key space,
// so keys are reused many times. Both checkers get every data hook; only
// `retiring` gets the close hooks. Faults, one per faulted session:
//   * lost terminal — a completed IO's client terminal hook never fires;
//   * double terminal — the session's last IO reports terminal twice, after
//     the close (a late duplicate);
//   * over-dispatch after reuse — a phantom dispatch with no target admit
//     on a key that has served an earlier session.
// A faulted key is not reused, and the phantom dispatch only hits keys
// whose earlier sessions failed no IO before dispatch: either would leave
// slack in the never-freed ledger that makes it the looser of the two
// (invariants.h), and the claim under test is identical verdicts.
class LedgerStream {
 public:
  LedgerStream(uint64_t seed, double fault_rate)
      : rng_(seed), fault_rate_(fault_rate) {}

  void Run(int sessions) {
    while (started_ < sessions || !open_.empty()) {
      if (started_ < sessions && open_.size() < kMaxOpen &&
          rng_.NextBool(0.05)) {
        Start();
        continue;
      }
      if (open_.empty()) continue;
      const size_t i = rng_.NextBounded(open_.size());
      Step(open_[i], /*draining=*/started_ >= sessions);
      if (Finished(open_[i])) {
        keys_[open_[i].key].busy = false;
        open_[i] = open_.back();
        open_.pop_back();
      }
    }
  }

  InvariantChecker retiring{/*fail_fast=*/false};
  InvariantChecker keeping{/*fail_fast=*/false};
  int faults = 0;

 private:
  enum Stage { kQueued, kIssued, kAtPolicy, kDispatched, kReturned,
               kToClient, kDone };
  enum Fault { kNone, kLostTerminal, kDoubleTerminal, kOverDispatch };
  struct Io {
    Stage stage = kQueued;
    bool ok = true;
    uint32_t credit = 0;
    bool client_dropped = false;  // failed locally by a crash
  };
  struct Key {
    bool busy = false;
    bool faulted = false;        // never reused
    int sessions = 0;
    bool policy_failed = false;  // some earlier IO failed before dispatch
  };
  struct Session {
    int key = 0;
    TenantId tenant = 0;
    int ssd = 0;
    Fault fault = kNone;
    bool fault_done = false;
    bool client_closed = false;
    bool target_closed = false;
    uint32_t queued = 0;
    uint32_t inflight = 0;
    std::vector<Io> ios;
  };
  static constexpr size_t kMaxOpen = 6;
  static constexpr int kTenants = 10;
  static constexpr int kSsds = 2;

  void Start() {
    int key = -1;
    for (int tries = 0; tries < 64 && key < 0; ++tries) {
      const int k = static_cast<int>(rng_.NextBounded(kTenants * kSsds));
      if (!keys_[k].busy && !keys_[k].faulted) key = k;
    }
    if (key < 0) {  // the free keys are all faulted: widen the space
      key = static_cast<int>(keys_.size());
      keys_.emplace_back();
    }
    Key& k = keys_[key];
    Session s;
    s.key = key;
    s.tenant = static_cast<TenantId>(1 + key / kSsds);
    s.ssd = key % kSsds;
    if (rng_.NextBool(fault_rate_)) {
      s.fault = static_cast<Fault>(1 + rng_.NextBounded(3));
      if (s.fault == kOverDispatch && (k.sessions == 0 || k.policy_failed)) {
        s.fault = kNone;
      }
    }
    if (s.fault != kNone) {
      k.faulted = true;
      ++faults;
    }
    k.busy = true;
    ++k.sessions;
    ++started_;
    open_.push_back(std::move(s));
  }

  bool Finished(const Session& s) const {
    if (!s.client_closed || !s.target_closed) return false;
    for (const Io& io : s.ios) {
      if (io.stage != kDone) return false;
    }
    return s.fault == kNone || s.fault_done;
  }

  // Calls `f` on both checkers.
  template <typename F>
  void Both(F f) {
    f(retiring);
    f(keeping);
  }

  void Step(Session& s, bool draining) {
    const TenantId t = s.tenant;
    const int d = s.ssd;
    if (!s.client_closed && !draining && rng_.NextBool(0.4)) {
      s.ios.emplace_back();
      ++s.queued;
      Both([&](InvariantChecker& c) { c.OnClientAdmit(t, d, s.queued); });
      return;
    }
    if (!s.client_closed && (draining || rng_.NextBool(0.03))) {
      CloseClient(s, /*crash=*/rng_.NextBool(0.2));
      return;
    }
    if (s.fault == kOverDispatch && !s.fault_done && rng_.NextBool(0.1)) {
      s.fault_done = true;
      Both([&](InvariantChecker& c) { c.OnPolicyDispatch(t, d); });
      return;
    }
    // Advance one IO one stage.
    std::vector<size_t> movable;
    for (size_t i = 0; i < s.ios.size(); ++i) {
      if (s.ios[i].stage != kDone) movable.push_back(i);
    }
    if (movable.empty()) {
      MaybeCloseTarget(s);
      return;
    }
    Io& io = s.ios[movable[rng_.NextBounded(movable.size())]];
    switch (io.stage) {
      case kQueued:
        --s.queued;
        ++s.inflight;
        io.stage = kIssued;
        Both([&](InvariantChecker& c) {
          c.OnClientIssue(t, d, s.queued, s.inflight, 64, false);
        });
        break;
      case kIssued:
        io.stage = kAtPolicy;
        Both([&](InvariantChecker& c) { c.OnTargetAdmit(t, d); });
        break;
      case kAtPolicy:
        if (rng_.NextBool(0.1)) {
          io.stage = kToClient;
          io.ok = false;
          keys_[s.key].policy_failed = true;
          Both([&](InvariantChecker& c) { c.OnPolicyFail(t, d); });
        } else {
          io.stage = kDispatched;
          Both([&](InvariantChecker& c) { c.OnPolicyDispatch(t, d); });
        }
        break;
      case kDispatched:
        io.stage = kReturned;
        io.ok = rng_.NextBool(0.95);
        Both([&](InvariantChecker& c) { c.OnDeviceReturn(t, d, io.ok); });
        break;
      case kReturned:
        io.stage = kToClient;
        io.credit = 8 + static_cast<uint32_t>(rng_.NextBounded(57));
        Both([&](InvariantChecker& c) {
          c.OnCreditGrant(t, d, io.credit);
          c.OnPolicyDeliver(t, d, io.ok);
        });
        break;
      case kToClient:
        io.stage = kDone;
        if (!io.client_dropped) ClientCompletion(s, io);
        break;
      case kDone:
        break;
    }
  }

  void ClientCompletion(Session& s, const Io& io) {
    const TenantId t = s.tenant;
    const int d = s.ssd;
    --s.inflight;
    if (io.credit > 0) {
      Both([&](InvariantChecker& c) {
        c.OnClientCreditUpdate(t, d, io.credit);
      });
    }
    if (s.fault == kLostTerminal && !s.fault_done) {
      s.fault_done = true;
      return;
    }
    int calls = 1;
    if (s.fault == kDoubleTerminal && !s.fault_done && s.client_closed &&
        s.inflight == 0) {
      s.fault_done = true;
      calls = 2;
    }
    for (int i = 0; i < calls; ++i) {
      Both([&](InvariantChecker& c) {
        c.OnClientTerminal(t, d, io.ok, true, s.inflight);
      });
    }
  }

  // Shutdown fails the local queue; a crash also fails every issued IO,
  // whose completions then die at the client.
  void CloseClient(Session& s, bool crash) {
    const TenantId t = s.tenant;
    const int d = s.ssd;
    s.client_closed = true;
    for (Io& io : s.ios) {
      if (io.stage != kQueued) continue;
      io.stage = kDone;
      --s.queued;
      Both([&](InvariantChecker& c) {
        c.OnClientTerminal(t, d, false, false, s.inflight);
      });
    }
    if (crash) {
      for (Io& io : s.ios) {
        if (io.stage == kDone || io.client_dropped) continue;
        io.client_dropped = true;
        --s.inflight;
        Both([&](InvariantChecker& c) {
          c.OnClientTerminal(t, d, false, true, s.inflight);
        });
      }
    }
    retiring.OnClientClose(t, d);
    // A fault that needs IO the session no longer has is moot.
    if (s.fault == kDoubleTerminal && s.inflight == 0 && !s.fault_done) {
      s.fault_done = true;
      Both([&](InvariantChecker& c) {
        c.OnClientTerminal(t, d, true, true, 0);
      });
    }
    if (s.fault == kLostTerminal && s.inflight == 0) s.fault_done = true;
  }

  // The target frees the session once the client has disconnected and
  // every command it admitted has completed back (FIFO fabric: nothing
  // trails the disconnect).
  void MaybeCloseTarget(Session& s) {
    if (!s.client_closed || s.target_closed) return;
    if (s.fault == kOverDispatch && !s.fault_done) {
      s.fault_done = true;
      Both([&](InvariantChecker& c) { c.OnPolicyDispatch(s.tenant, s.ssd); });
    }
    s.target_closed = true;
    retiring.OnTargetSessionClosed(s.tenant, s.ssd);
  }

  Rng rng_;
  double fault_rate_;
  std::vector<Key> keys_ = std::vector<Key>(kTenants * kSsds);
  std::vector<Session> open_;
  int started_ = 0;
};

using Verdict = std::tuple<std::string, int32_t, int>;

std::vector<Verdict> Verdicts(const InvariantChecker& chk) {
  std::vector<Verdict> out;
  for (const auto& v : chk.violations()) {
    out.emplace_back(v.invariant, v.tenant, v.ssd);
  }
  return out;
}

class LedgerDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LedgerDifferential, FreeingLedgersChangesNoVerdict) {
  LedgerStream s(GetParam(), /*fault_rate=*/0.15);
  s.Run(/*sessions=*/400);
  EXPECT_EQ(Verdicts(s.retiring), Verdicts(s.keeping))
      << "per-hook verdicts diverged";
  const size_t per_hook = s.retiring.violations().size();
  s.retiring.CheckDrained();
  s.keeping.CheckDrained();
  EXPECT_EQ(Verdicts(s.retiring), Verdicts(s.keeping))
      << "drain verdicts diverged";
  // The stream exercised what it claims: faults fired and were caught,
  // and the close hooks freed all but the faulted keys' ledgers.
  EXPECT_GT(s.faults, 0);
  EXPECT_GT(s.retiring.violations().size(), per_hook);
  EXPECT_LE(s.retiring.live_ledgers().client + s.retiring.live_ledgers().policy,
            static_cast<size_t>(s.faults));
  EXPECT_GT(s.keeping.live_ledgers().client, s.retiring.live_ledgers().client);
  EXPECT_GT(s.keeping.live_ledgers().policy, s.retiring.live_ledgers().policy);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LedgerDifferential,
                         ::testing::Values(1u, 2u, 3u, 7u, 42u, 1234u));

TEST(LedgerDifferential, FaultFreeStreamsAreCleanAndFreeEveryLedger) {
  for (uint64_t seed = 100; seed < 104; ++seed) {
    LedgerStream s(seed, /*fault_rate=*/0.0);
    s.Run(/*sessions=*/300);
    EXPECT_EQ(s.faults, 0);
    EXPECT_TRUE(s.retiring.ok()) << "seed " << seed;
    EXPECT_TRUE(s.retiring.CheckDrained()) << "seed " << seed;
    EXPECT_TRUE(s.keeping.CheckDrained()) << "seed " << seed;
    EXPECT_EQ(s.retiring.live_ledgers().client, 0u) << "seed " << seed;
    EXPECT_EQ(s.retiring.live_ledgers().policy, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace gimbal::check
