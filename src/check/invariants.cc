#include "check/invariants.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace gimbal::check {
namespace {

// Sentinel for violations not tied to a tenant (bucket, latency, health);
// renders as tenant=-1, matching the obs::Labels convention.
constexpr TenantId kNoTenant = static_cast<TenantId>(-1);

// Tolerances for double-precision token accounting. Buckets hold at most a
// few hundred MB of tokens, so absolute slack of a few bytes dwarfs any
// rounding the arithmetic can accumulate in one step while staying far
// below the smallest real overrun (an IO is >= 512 bytes).
constexpr double kTokenEps = 1.0;

// Worst-case rounds of quantum lead one continuously backlogged tenant can
// legitimately build over another. DRR's per-round skew is O(quantum +
// max_weighted); slot deferral and priority WRR add small constant factors,
// so 16 rounds is a generous envelope that still catches a linearly
// diverging scheduler within a few tens of milliseconds of simulated time.
constexpr double kSkewRounds = 16.0;

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return std::string(buf);
}

// Independent copy of the health legality table (docs/FAULTS.md). Kept
// deliberately out of sync with fault::ValidTransition so a bug (or seeded
// mutation) there cannot blind the checker. Numeric values follow
// fault::SsdHealth: 0 healthy, 1 degraded, 2 failed, 3 recovering.
bool LegalHealthTransition(int from, int to) {
  if (from == to) return true;
  switch (from) {
    case 0: return to == 1 || to == 2;
    case 1: return to == 0 || to == 2;
    case 2: return to == 3;
    case 3: return to == 0 || to == 2;
    default: return false;
  }
}

// A ledger arena's live slots in (tenant, ssd) order. Live order depends on
// which ledgers were freed and recycled; the drain report must not.
template <typename Ledger>
std::vector<uint32_t> ByTenantSsd(const common::SlabArena<Ledger>& arena) {
  std::vector<uint32_t> slots = arena.live();
  std::sort(slots.begin(), slots.end(), [&](uint32_t a, uint32_t b) {
    return std::make_pair(arena[a].tenant, arena[a].ssd) <
           std::make_pair(arena[b].tenant, arena[b].ssd);
  });
  return slots;
}

}  // namespace

void InvariantChecker::Violate(const char* invariant, TenantId tenant,
                               int ssd, std::string detail) {
  Violation v;
  v.when = now();
  v.invariant = invariant;
  v.tenant = static_cast<int32_t>(tenant);
  v.ssd = ssd;
  v.detail = std::move(detail);
  violations_.push_back(v);
  if (!fail_fast_) return;

  std::fprintf(stderr,
               "\n=== INVARIANT VIOLATION ===\n"
               "t=%" PRId64 "ns invariant=%s tenant=%d ssd=%d\n"
               "  %s\n",
               v.when, v.invariant.c_str(), v.tenant, v.ssd,
               v.detail.c_str());
  if (tracer_ != nullptr && !tracer_->events().empty()) {
    const auto& events = tracer_->events();
    const size_t n = std::min<size_t>(events.size(), 16);
    std::fprintf(stderr, "last %zu trace events:\n", n);
    for (size_t i = events.size() - n; i < events.size(); ++i) {
      const auto& e = events[i];
      std::fprintf(stderr, "  [%12" PRIu64 "] %-24s tenant=%d ssd=%d\n",
                   e.ts, e.name, e.labels.tenant, e.labels.ssd);
    }
  }
  std::fprintf(stderr, "===========================\n");
  std::abort();
}

// --- Client ----------------------------------------------------------------

void InvariantChecker::OnClientAdmit(TenantId tenant, int ssd,
                                     size_t queued) {
  ++checks_run_;
  ClientLedger& c = Client(tenant, ssd);
  ++c.admitted;
  // Every admitted IO is queued, in flight, or terminal — so the local
  // queue depth must equal admitted minus everything that has left it.
  const uint64_t left = c.issued + (c.terminal - c.terminal_issued);
  if (c.admitted < left || c.admitted - left != queued) {
    Violate("client.conservation.queued", tenant, ssd,
            Format("admitted=%" PRIu64 " issued=%" PRIu64
                   " failed_unissued=%" PRIu64 " but local queue=%zu",
                   c.admitted, c.issued, c.terminal - c.terminal_issued,
                   queued));
  }
}

void InvariantChecker::OnClientIssue(TenantId tenant, int ssd, size_t queued,
                                     uint32_t inflight, uint32_t credit_total,
                                     bool credit_throttled) {
  ++checks_run_;
  ClientLedger& c = Client(tenant, ssd);
  ++c.issued;
  if (c.issued > c.admitted) {
    Violate("client.conservation.queued", tenant, ssd,
            Format("issued=%" PRIu64 " exceeds admitted=%" PRIu64, c.issued,
                   c.admitted));
    return;
  }
  const uint64_t left = c.issued + (c.terminal - c.terminal_issued);
  if (c.admitted - left != queued) {
    Violate("client.conservation.queued", tenant, ssd,
            Format("admitted=%" PRIu64 " issued=%" PRIu64
                   " failed_unissued=%" PRIu64 " but local queue=%zu",
                   c.admitted, c.issued, c.terminal - c.terminal_issued,
                   queued));
  }
  if (c.issued - c.terminal_issued != inflight) {
    Violate("client.conservation.inflight", tenant, ssd,
            Format("ledger in-flight=%" PRIu64
                   " but initiator inflight=%u",
                   c.issued - c.terminal_issued, inflight));
  }
  // §3.6 Algorithm 3: issue while credit_total > inflight, i.e. after the
  // issue the pool is never exceeded.
  if (credit_throttled && inflight > credit_total) {
    Violate("client.credit.law", tenant, ssd,
            Format("inflight=%u exceeds credit_total=%u after issue",
                   inflight, credit_total));
  }
}

void InvariantChecker::OnClientTerminal(TenantId tenant, int ssd, bool ok,
                                        bool was_issued, uint32_t inflight) {
  ++checks_run_;
  (void)ok;
  ClientLedger& c = Client(tenant, ssd);
  ++c.terminal;
  if (was_issued) ++c.terminal_issued;
  if (c.terminal > c.admitted) {
    Violate("client.terminal.overrun", tenant, ssd,
            Format("terminal=%" PRIu64 " exceeds admitted=%" PRIu64,
                   c.terminal, c.admitted));
    return;
  }
  if (c.terminal_issued > c.issued) {
    Violate("client.terminal.overrun", tenant, ssd,
            Format("terminal_issued=%" PRIu64 " exceeds issued=%" PRIu64,
                   c.terminal_issued, c.issued));
    return;
  }
  if (c.issued - c.terminal_issued != inflight) {
    Violate("client.conservation.inflight", tenant, ssd,
            Format("ledger in-flight=%" PRIu64
                   " but initiator inflight=%u",
                   c.issued - c.terminal_issued, inflight));
  }
  MaybeRetireClient(c);
}

void InvariantChecker::OnClientCreditUpdate(TenantId tenant, int ssd,
                                            uint32_t credit) {
  ++checks_run_;
  ClientLedger& c = Client(tenant, ssd);
  if (credit > c.max_credit_granted) {
    Violate("client.credit.bound", tenant, ssd,
            Format("client adopted credit=%u but switch never granted more "
                   "than %u",
                   credit, c.max_credit_granted));
  }
}

void InvariantChecker::OnClientClose(TenantId tenant, int ssd) {
  const uint32_t slot = client_index_.Find(Key(tenant, ssd));
  if (slot == common::IdIndexMap::kNotFound) return;  // never admitted
  ClientLedger& c = clients_[slot];
  c.closed = true;
  MaybeRetireClient(c);
}

// --- Target / policy -------------------------------------------------------

void InvariantChecker::OnTargetAdmit(TenantId tenant, int ssd) {
  ++checks_run_;
  ++Policy(tenant, ssd).target_admitted;
}

void InvariantChecker::OnPolicyDispatch(TenantId tenant, int ssd) {
  ++checks_run_;
  PolicyLedger& p = Policy(tenant, ssd);
  ++p.dispatched;
  if (p.dispatched > p.target_admitted) {
    Violate("policy.dispatch", tenant, ssd,
            Format("dispatched=%" PRIu64 " exceeds target admits=%" PRIu64,
                   p.dispatched, p.target_admitted));
  }
}

void InvariantChecker::OnDeviceReturn(TenantId tenant, int ssd, bool ok) {
  ++checks_run_;
  (void)ok;
  PolicyLedger& p = Policy(tenant, ssd);
  ++p.device_returns;
  if (p.device_returns > p.dispatched) {
    Violate("policy.device.return", tenant, ssd,
            Format("device returns=%" PRIu64 " exceed dispatches=%" PRIu64,
                   p.device_returns, p.dispatched));
  }
  MaybeRetirePolicy(p);
}

void InvariantChecker::OnPolicyDeliver(TenantId tenant, int ssd, bool ok) {
  ++checks_run_;
  (void)ok;
  PolicyLedger& p = Policy(tenant, ssd);
  ++p.delivered;
  if (p.delivered > p.device_returns) {
    Violate("policy.deliver", tenant, ssd,
            Format("delivered=%" PRIu64 " exceed device returns=%" PRIu64,
                   p.delivered, p.device_returns));
    return;
  }
  if (p.delivered + p.failed > p.target_admitted) {
    Violate("policy.deliver", tenant, ssd,
            Format("delivered+failed=%" PRIu64 " exceed target admits=%" PRIu64,
                   p.delivered + p.failed, p.target_admitted));
  }
  MaybeRetirePolicy(p);
}

void InvariantChecker::OnPolicyFail(TenantId tenant, int ssd) {
  ++checks_run_;
  PolicyLedger& p = Policy(tenant, ssd);
  ++p.failed;
  if (p.delivered + p.failed > p.target_admitted) {
    Violate("policy.deliver", tenant, ssd,
            Format("delivered+failed=%" PRIu64 " exceed target admits=%" PRIu64,
                   p.delivered + p.failed, p.target_admitted));
  }
  MaybeRetirePolicy(p);
}

void InvariantChecker::OnTargetSessionClosed(TenantId tenant, int ssd) {
  const uint32_t slot = policy_index_.Find(Key(tenant, ssd));
  if (slot == common::IdIndexMap::kNotFound) return;  // no IO reached it
  PolicyLedger& p = policies_[slot];
  p.closed = true;
  MaybeRetirePolicy(p);
}

// --- Gimbal switch ---------------------------------------------------------

void InvariantChecker::ConfigureDrr(int ssd, uint64_t quantum_bytes,
                                    uint64_t slot_bytes, double cost_worst) {
  DrrState& d = drr_[ssd];
  d.quantum = quantum_bytes;
  d.max_weighted =
      static_cast<uint64_t>(static_cast<double>(slot_bytes) * cost_worst);
}

void InvariantChecker::OnCreditGrant(TenantId tenant, int ssd,
                                     uint32_t credit) {
  ++checks_run_;
  const uint32_t slot = client_index_.Find(Key(tenant, ssd));
  if (slot == common::IdIndexMap::kNotFound) return;
  ClientLedger& c = clients_[slot];
  c.max_credit_granted = std::max(c.max_credit_granted, credit);
}

void InvariantChecker::OnDrrQuantum(TenantId tenant, int ssd,
                                    uint64_t deficit_before,
                                    uint64_t deficit_after, double weight,
                                    uint64_t rounds, double frac_before,
                                    double frac_after) {
  ++checks_run_;
  DrrState& d = drr_[ssd];
  // §3.5 Algorithm 2 with fractional carry: `rounds` rounds grant
  // floor(rounds x weight x quantum + carry) whole bytes and the remainder
  // stays in the carry. Same double arithmetic as the scheduler
  // (GrantRounds), so equality is exact. The carry itself must stay in
  // [0, 1) — a drifting carry would mint or destroy service.
  if (frac_before < 0.0 || frac_before >= 1.0) {
    Violate("drr.quantum.carry", tenant, ssd,
            Format("carry %.9f outside [0,1) before grant", frac_before));
  }
  const double step = weight * static_cast<double>(d.quantum);
  const double total = static_cast<double>(rounds) * step + frac_before;
  const uint64_t expected = static_cast<uint64_t>(total);
  const double expected_frac = total - static_cast<double>(expected);
  if (deficit_after < deficit_before ||
      deficit_after - deficit_before != expected) {
    Violate("drr.quantum.grant", tenant, ssd,
            Format("grant=%" PRIu64 " but rounds=%" PRIu64
                   " x weight=%.3f x quantum=%" PRIu64 " + carry = %" PRIu64,
                   deficit_after - deficit_before, rounds, weight, d.quantum,
                   expected));
  } else if (frac_after != expected_frac) {
    Violate("drr.quantum.carry", tenant, ssd,
            Format("carry after grant %.9f, expected %.9f", frac_after,
                   expected_frac));
  }
  // A deficit only accumulates while it cannot cover the head-of-line IO,
  // so right after a grant it is bounded by one grant plus the costliest
  // single IO.
  if (deficit_after > expected + d.max_weighted) {
    Violate("drr.deficit.bound", tenant, ssd,
            Format("deficit=%" PRIu64 " exceeds grant=%" PRIu64
                   " + max weighted IO=%" PRIu64,
                   deficit_after, expected, d.max_weighted));
  }
}

void InvariantChecker::OnDrrPassExhausted(int ssd, uint64_t passes,
                                          uint64_t active, uint64_t queued) {
  ++checks_run_;
  Violate("drr.pass.exhausted", 0, ssd,
          Format("Dequeue gave up after %" PRIu64 " passes with %" PRIu64
                 " active tenants and %" PRIu64 " queued IOs",
                 passes, active, queued));
}

void InvariantChecker::OnDrrBacklog(TenantId tenant, int ssd,
                                    bool backlogged) {
  DrrState& d = drr_[ssd];
  const uint32_t pos = d.index.Find(tenant);
  const bool member = pos != common::IdIndexMap::kNotFound;
  if (backlogged == member) return;  // idempotent: no membership change
  // Fairness is only promised between tenants backlogged over the same
  // interval; any membership change starts a fresh comparison epoch.
  // Members re-baseline lazily at their first serve of the new epoch —
  // they receive no service before that serve, so the captured baseline is
  // identical to an eager reset at O(1) cost per membership change.
  ++d.epoch;
  d.serves_since_scan = 0;
  if (backlogged) {
    d.index.Put(tenant, static_cast<uint32_t>(d.members.size()));
    d.members.push_back(DrrMember{tenant, 0.0, 0.0, d.epoch});
  } else {
    const uint32_t last = static_cast<uint32_t>(d.members.size() - 1);
    if (pos != last) {
      d.members[pos] = d.members[last];
      d.index.Put(d.members[pos].tenant, pos);
    }
    d.members.pop_back();
    d.index.Erase(tenant);
  }
}

void InvariantChecker::CheckDrrSkew(const DrrState& d, int ssd) {
  double lo = 0.0, hi = 0.0;
  bool first = true;
  TenantId lo_t = 0, hi_t = 0;
  for (const DrrMember& m : d.members) {
    // A member unserved since the last membership change sits exactly at
    // its (pending) baseline.
    const double rel = m.epoch == d.epoch ? m.service - m.base : 0.0;
    if (first || rel < lo) { lo = rel; lo_t = m.tenant; }
    if (first || rel > hi) { hi = rel; hi_t = m.tenant; }
    first = false;
  }
  const double bound =
      kSkewRounds * static_cast<double>(d.quantum + d.max_weighted);
  if (hi - lo > bound) {
    Violate("drr.service.skew", hi_t, ssd,
            Format("normalized service skew %.0f (tenant %u ahead of %u) "
                   "exceeds %.0f over one backlogged epoch",
                   hi - lo, hi_t, lo_t, bound));
  }
}

void InvariantChecker::OnDrrServe(TenantId tenant, int ssd,
                                  uint64_t weighted_bytes, double weight) {
  ++checks_run_;
  DrrState& d = drr_[ssd];
  if (weight <= 0.0) weight = 1.0;
  const uint32_t pos = d.index.Find(tenant);
  // A serve for a tenant outside the backlogged set has no comparison
  // peers; the old lifetime-service ledger ignored it for skew purposes
  // too (it was never in the baseline map).
  if (pos == common::IdIndexMap::kNotFound) return;
  DrrMember& m = d.members[pos];
  if (m.epoch != d.epoch) {  // lazy re-baseline (see OnDrrBacklog)
    m.base = m.service;
    m.epoch = d.epoch;
  }
  m.service += static_cast<double>(weighted_bytes) / weight;
  if (d.members.size() < 2) return;
  // Amortize the O(members) min/max scan: run it once every |members|
  // serves. Detection lags by at most one scan period, which a linearly
  // diverging scheduler crosses within the same order of simulated time;
  // per-serve checker cost stays O(1) no matter how many tenants churn.
  if (++d.serves_since_scan < d.members.size()) return;
  d.serves_since_scan = 0;
  CheckDrrSkew(d, ssd);
}

void InvariantChecker::OnSlotOpen(TenantId tenant, int ssd,
                                  uint32_t slots_in_use, uint32_t allotted) {
  ++checks_run_;
  if (slots_in_use > allotted) {
    Violate("slot.occupancy", tenant, ssd,
            Format("slots in use=%u exceed allotment=%u", slots_in_use,
                   allotted));
  }
}

// --- Token bucket ----------------------------------------------------------

void InvariantChecker::OnBucketUpdate(int ssd, Tick elapsed,
                                      double target_rate, double read_before,
                                      double write_before, double read_after,
                                      double write_after, double cap) {
  ++checks_run_;
  const double before = read_before + write_before;
  const double after = read_after + write_after;
  const double expected =
      target_rate * static_cast<double>(elapsed) / kNsPerSec;
  if (after - before > expected + kTokenEps) {
    Violate("bucket.conservation", kNoTenant, ssd,
            Format("accrued %.1f tokens in %" PRIu64
                   "ns but rate %.0f B/s allows %.1f",
                   after - before, elapsed, target_rate, expected));
  }
  if (read_after > cap + kTokenEps || write_after > cap + kTokenEps) {
    Violate("bucket.ceiling", kNoTenant, ssd,
            Format("tokens read=%.1f write=%.1f exceed capacity=%.1f",
                   read_after, write_after, cap));
  }
  if (read_after < -kTokenEps || write_after < -kTokenEps) {
    Violate("bucket.conservation", kNoTenant, ssd,
            Format("negative tokens read=%.1f write=%.1f", read_after,
                   write_after));
  }
}

void InvariantChecker::OnBucketConsume(int ssd, bool is_read, uint64_t bytes,
                                       double before, double after,
                                       double cap) {
  ++checks_run_;
  (void)cap;
  const double delta = before - after;
  const double want = static_cast<double>(bytes);
  if (delta > want + kTokenEps || delta < want - kTokenEps) {
    Violate("bucket.conservation", kNoTenant, ssd,
            Format("%s consume of %" PRIu64 " bytes drained %.1f tokens",
                   is_read ? "read" : "write", bytes, delta));
  }
  if (after < -kTokenEps) {
    Violate("bucket.conservation", kNoTenant, ssd,
            Format("%s bucket overdrawn to %.1f by %" PRIu64 "-byte consume",
                   is_read ? "read" : "write", after, bytes));
  }
}

// --- Latency monitor -------------------------------------------------------

void InvariantChecker::OnLatencySample(int ssd, bool is_read, double ewma,
                                       double threshold, double thresh_min,
                                       double thresh_max, int state) {
  ++checks_run_;
  const char* dir = is_read ? "read" : "write";
  if (ewma < 0.0) {
    Violate("latency.sanity", kNoTenant, ssd,
            Format("%s EWMA negative: %.1f", dir, ewma));
    return;
  }
  if (threshold < thresh_min - 1e-6 || threshold > thresh_max + 1e-6) {
    Violate("latency.sanity", kNoTenant, ssd,
            Format("%s threshold %.1f outside [%.1f, %.1f]", dir, threshold,
                   thresh_min, thresh_max));
  }
  // State 3 (overloaded) requires EWMA above Thresh_max; state 0
  // (under-utilized) requires EWMA at or below Thresh_min (§3.2 Alg 1).
  if (state == 3 && ewma <= thresh_max) {
    Violate("latency.sanity", kNoTenant, ssd,
            Format("%s state overloaded but EWMA %.1f <= Thresh_max %.1f",
                   dir, ewma, thresh_max));
  }
  if (state == 0 && ewma > thresh_min + 1e-6) {
    Violate("latency.sanity", kNoTenant, ssd,
            Format("%s state under-utilized but EWMA %.1f > Thresh_min %.1f",
                   dir, ewma, thresh_min));
  }
}

// --- SSD health ------------------------------------------------------------

void InvariantChecker::OnHealthTransition(int ssd, int from, int to) {
  ++checks_run_;
  if (!LegalHealthTransition(from, to)) {
    static const char* kNames[] = {"healthy", "degraded", "failed",
                                   "recovering"};
    auto name = [](int s) {
      return (s >= 0 && s < 4) ? kNames[s] : "invalid";
    };
    Violate("health.transition", kNoTenant, ssd,
            Format("illegal SSD health transition %s -> %s", name(from),
                   name(to)));
  }
}

// --- KV fault tolerance ------------------------------------------------------

void InvariantChecker::OnKvWriteAck(TenantId instance, int ssd, int durable,
                                    bool acked) {
  ++checks_run_;
  if (acked && durable < 1) {
    Violate("kv.ack.lost", instance, ssd,
            Format("write acked with %d durable replicas — acked data could "
                   "be lost",
                   durable));
  }
}

void InvariantChecker::OnKvDirtyRecord(TenantId instance, int ssd,
                                       uint64_t bytes) {
  ++checks_run_;
  KvLedger& l = kv_[Key(instance, ssd)];
  ++l.recorded;
  l.recorded_bytes += bytes;
}

void InvariantChecker::OnKvDirtyRepair(TenantId instance, int ssd,
                                       uint64_t bytes) {
  ++checks_run_;
  KvLedger& l = kv_[Key(instance, ssd)];
  ++l.repaired;
  l.repaired_bytes += bytes;
  if (l.repaired + l.dropped > l.recorded) {
    Violate("kv.dirty.balance", instance, ssd,
            Format("repaired=%" PRIu64 " + dropped=%" PRIu64
                   " exceed recorded=%" PRIu64,
                   l.repaired, l.dropped, l.recorded));
  }
}

void InvariantChecker::OnKvDirtyDrop(TenantId instance, int ssd,
                                     uint64_t bytes) {
  ++checks_run_;
  KvLedger& l = kv_[Key(instance, ssd)];
  ++l.dropped;
  l.dropped_bytes += bytes;
  if (l.repaired + l.dropped > l.recorded) {
    Violate("kv.dirty.balance", instance, ssd,
            Format("repaired=%" PRIu64 " + dropped=%" PRIu64
                   " exceed recorded=%" PRIu64,
                   l.repaired, l.dropped, l.recorded));
  }
}

// --- Rack topology ----------------------------------------------------------

void InvariantChecker::OnKvReplicaPlacement(TenantId instance, int primary,
                                            int shadow, int primary_node,
                                            int shadow_node) {
  ++checks_run_;
  if (primary_node == shadow_node) {
    Violate("kv.placement.domain", instance, primary,
            Format("replicas share failure domain: primary backend %d and "
                   "shadow backend %d both on node %d",
                   primary, shadow, primary_node));
  }
}

void InvariantChecker::OnRackUplink(int node, uint64_t bytes,
                                    uint64_t node_total_sum,
                                    uint64_t uplink_total) {
  ++checks_run_;
  if (node_total_sum != uplink_total) {
    Violate("rack.uplink.conservation", kNoTenant, node,
            Format("per-node uplink bytes sum to %" PRIu64
                   " but the uplink carried %" PRIu64 " (last: %" PRIu64
                   " bytes for node %d)",
                   node_total_sum, uplink_total, bytes, node));
  }
}

// --- Transactions ----------------------------------------------------------

InvariantChecker::TxnState* InvariantChecker::FindTxn(TenantId instance,
                                                      uint64_t txn) {
  auto it = txn_live_.find(TxnKey(instance, txn));
  return it == txn_live_.end() ? nullptr : &it->second;
}

void InvariantChecker::OnTxnBegin(TenantId instance, uint64_t txn,
                                  uint64_t ts) {
  ++checks_run_;
  TxnLedger& l = txns_[static_cast<int32_t>(instance)];
  ++l.begun;
  ++l.live;
  auto [it, inserted] = txn_live_.try_emplace(TxnKey(instance, txn));
  if (!inserted) {
    Violate("txn.lifecycle", instance, -1,
            Format("txn %" PRIu64 " began twice", txn));
    return;
  }
  it->second.ts = ts;
}

void InvariantChecker::OnTxnLockAcquire(TenantId instance, uint64_t txn,
                                        uint64_t key, bool exclusive,
                                        bool upgrade) {
  ++checks_run_;
  (void)exclusive;
  TxnState* t = FindTxn(instance, txn);
  if (t == nullptr) {
    Violate("txn.lifecycle", instance, -1,
            Format("lock acquire on key %" PRIu64 " by unknown txn %" PRIu64,
                   key, txn));
    return;
  }
  // Strict two-phase discipline: the growing phase ends at the first
  // release; any acquire after that would let another transaction slip
  // between this one's reads and writes.
  if (t->releasing) {
    Violate("txn.two_phase", instance, -1,
            Format("txn %" PRIu64 " acquired key %" PRIu64
                   " after entering its release phase",
                   txn, key));
  }
  const bool held =
      std::find(t->held.begin(), t->held.end(), key) != t->held.end();
  if (upgrade != held) {
    Violate("txn.lock.conservation", instance, -1,
            Format("txn %" PRIu64 " %s key %" PRIu64 " it %s hold", txn,
                   upgrade ? "upgraded" : "freshly acquired", key,
                   held ? "already" : "does not"));
    return;
  }
  // Upgrades change the mode of a lock already in the ledger; only fresh
  // acquisitions enter the acquired/released conservation count (each held
  // key releases exactly once no matter how many times it was upgraded).
  if (!held) {
    t->held.push_back(key);
    ++txns_[static_cast<int32_t>(instance)].acquired;
  }
}

void InvariantChecker::OnTxnLockRelease(TenantId instance, uint64_t txn,
                                        uint64_t key) {
  ++checks_run_;
  TxnState* t = FindTxn(instance, txn);
  if (t == nullptr) {
    Violate("txn.lock.phantom", instance, -1,
            Format("lock release of key %" PRIu64 " by unknown txn %" PRIu64,
                   key, txn));
    return;
  }
  t->releasing = true;
  auto it = std::find(t->held.begin(), t->held.end(), key);
  if (it == t->held.end()) {
    Violate("txn.lock.phantom", instance, -1,
            Format("txn %" PRIu64 " released key %" PRIu64 " it does not hold",
                   txn, key));
    return;
  }
  t->held.erase(it);
  ++txns_[static_cast<int32_t>(instance)].released;
  if (t->terminal && t->held.empty()) txn_live_.erase(TxnKey(instance, txn));
}

void InvariantChecker::OnTxnWound(TenantId instance, uint64_t wounder,
                                  uint64_t wounder_ts, uint64_t victim,
                                  uint64_t victim_ts) {
  ++checks_run_;
  // Wound-wait legality: only an older (smaller-ts) transaction may wound;
  // a younger wounder would re-introduce the abort cycles the timestamp
  // order exists to break.
  if (wounder_ts >= victim_ts) {
    Violate("txn.wound.order", instance, -1,
            Format("txn %" PRIu64 " (ts=%" PRIu64 ") wounded txn %" PRIu64
                   " (ts=%" PRIu64 ") but is not older",
                   wounder, wounder_ts, victim, victim_ts));
  }
}

void InvariantChecker::OnTxnCommit(TenantId instance, uint64_t txn,
                                   uint64_t writes_acked,
                                   uint64_t writes_total) {
  ++checks_run_;
  TxnState* t = FindTxn(instance, txn);
  if (t == nullptr) {
    Violate("txn.lifecycle", instance, -1,
            Format("commit of unknown txn %" PRIu64, txn));
    return;
  }
  // "No committed transaction is ever lost": a commit may only be reported
  // once every one of its writes was durably acked through the WAL path.
  if (writes_acked != writes_total) {
    Violate("txn.commit.lost", instance, -1,
            Format("txn %" PRIu64 " committed with %" PRIu64 " of %" PRIu64
                   " writes durably acked",
                   txn, writes_acked, writes_total));
  }
  TxnLedger& l = txns_[static_cast<int32_t>(instance)];
  ++l.committed;
  --l.live;
  // Commit fires before ReleaseAll (strict 2PL) — keep auditing the
  // releases; the drain check catches any lock that never comes back.
  t->terminal = true;
  if (t->held.empty()) txn_live_.erase(TxnKey(instance, txn));
}

void InvariantChecker::OnTxnAbort(TenantId instance, uint64_t txn) {
  ++checks_run_;
  TxnState* t = FindTxn(instance, txn);
  if (t == nullptr) {
    Violate("txn.lifecycle", instance, -1,
            Format("abort of unknown txn %" PRIu64, txn));
    return;
  }
  TxnLedger& l = txns_[static_cast<int32_t>(instance)];
  ++l.aborted;
  --l.live;
  t->terminal = true;
  if (t->held.empty()) txn_live_.erase(TxnKey(instance, txn));
}

// --- End-of-run ------------------------------------------------------------

bool InvariantChecker::CheckDrained() {
  const size_t before = violations_.size();
  for (const uint32_t slot : ByTenantSsd(clients_)) {
    const ClientLedger& c = clients_[slot];
    ++checks_run_;
    if (c.terminal != c.admitted) {
      Violate("drain.client.balance", c.tenant, c.ssd,
              Format("admitted=%" PRIu64 " but terminal=%" PRIu64
                     " after drain",
                     c.admitted, c.terminal));
    }
    if (c.terminal_issued != c.issued) {
      Violate("drain.client.balance", c.tenant, c.ssd,
              Format("issued=%" PRIu64 " but terminal_issued=%" PRIu64
                     " after drain",
                     c.issued, c.terminal_issued));
    }
  }
  for (const uint32_t slot : ByTenantSsd(policies_)) {
    const PolicyLedger& p = policies_[slot];
    ++checks_run_;
    if (p.delivered + p.failed != p.target_admitted) {
      Violate("drain.policy.balance", p.tenant, p.ssd,
              Format("target admits=%" PRIu64 " but delivered=%" PRIu64
                     " + failed=%" PRIu64 " after drain",
                     p.target_admitted, p.delivered, p.failed));
    }
    if (p.device_returns != p.dispatched) {
      Violate("drain.policy.balance", p.tenant, p.ssd,
              Format("dispatched=%" PRIu64 " but device returns=%" PRIu64
                     " after drain",
                     p.dispatched, p.device_returns));
    }
  }
  for (const auto& [key, l] : kv_) {
    ++checks_run_;
    // Key(instance, ssd) packs ssd into the low 16 bits, instance above.
    const TenantId instance = static_cast<TenantId>(key >> 16);
    const int ssd = static_cast<int>(key & 0xFFFF);
    if (l.repaired + l.dropped != l.recorded) {
      Violate("drain.kv.dirty", instance, ssd,
              Format("dirty replicas recorded=%" PRIu64 " but repaired=%"
                     PRIu64 " + dropped=%" PRIu64
                     " after drain — replica count did not converge",
                     l.recorded, l.repaired, l.dropped));
    }
  }
  for (const auto& [instance, l] : txns_) {
    ++checks_run_;
    if (l.acquired != l.released) {
      Violate("drain.txn.locks", static_cast<TenantId>(instance), -1,
              Format("locks acquired=%" PRIu64 " but released=%" PRIu64
                     " after drain — lock table leaked",
                     l.acquired, l.released));
    }
    if (l.live != 0 || l.committed + l.aborted != l.begun) {
      Violate("drain.txn.locks", static_cast<TenantId>(instance), -1,
              Format("begun=%" PRIu64 " committed=%" PRIu64 " aborted=%"
                     PRIu64 " live=%" PRIu64 " after drain",
                     l.begun, l.committed, l.aborted, l.live));
    }
  }
  for (const auto& [key, t] : txn_live_) {
    ++checks_run_;
    if (!t.held.empty()) {
      Violate("drain.txn.locks", static_cast<TenantId>(key >> 48), -1,
              Format("txn %" PRIu64 " still holds %zu locks after drain",
                     key & ((1ull << 48) - 1), t.held.size()));
    }
  }
  return violations_.size() == before;
}

}  // namespace gimbal::check
