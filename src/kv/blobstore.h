// Blobstore: the NVMe-oF-aware storage layer the LSM tree runs on (§4.3).
//
// One DB instance owns one Blobstore, which owns one Initiator per remote
// backend SSD. It provides:
//   * plain blob read/write (rounded up to device pages), with the IO's
//     terminal IoStatus propagated to the caller (docs/FAULTS.md),
//   * replicated writes — both copies are attempted; if exactly one
//     replica fails the write is acked degraded (quorum-of-available) and
//     the missing copy is recorded in the dirty-replica ledger for the
//     background rebuild scanner (kv/rebuild.h),
//   * load-balanced reads with failover — the copy whose backend currently
//     advertises more credits (§3.7 virtual view) is chosen; on a media
//     error / timeout / device failure the surviving replica is retried
//     under a per-blob budget with the initiator's capped backoff,
//   * the per-backend credit reading the hierarchical blob allocator's
//     load-aware placement uses.
//
// Backend health is tracked client-side, from the completion statuses this
// instance observes (kDeviceFailed marks a backend down, kOk marks it back
// up). The client deliberately never reads the injector's health machines
// directly: like a real initiator, it learns of a failure only from what
// crosses the fabric.
//
// Fault-free runs are event-for-event identical to the pre-fault-tolerance
// blobstore: no timers are armed and no submit order changes unless a
// completion actually fails.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "check/invariants.h"
#include "fabric/initiator.h"
#include "kv/types.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace gimbal::kv {

class Blobstore {
 public:
  // Terminal status of the blob operation (kOk for a degraded-acked
  // replicated write; the dirty ledger tracks the missing copy).
  using DoneFn = std::function<void(IoStatus)>;

  // One missing replica: `dirty` is the address whose write failed,
  // `source` the surviving copy the rebuild scanner re-reads.
  struct DirtyReplica {
    BlobAddr dirty;
    BlobAddr source;
  };

  // `backends[i]` is this instance's initiator to backend SSD i. Not owned.
  Blobstore(sim::Simulator& sim, std::vector<fabric::Initiator*> backends,
            bool load_balance_reads = true)
      : sim_(sim),
        backends_(std::move(backends)),
        load_balance_reads_(load_balance_reads),
        down_(backends_.size(), 0) {}

  void Read(const BlobAddr& addr, IoPriority prio, DoneFn done);
  void Write(const BlobAddr& addr, IoPriority prio, DoneFn done);

  // Write both copies. Both durable -> done(kOk). Exactly one durable ->
  // done(kOk) degraded + dirty-replica ledger entry (never on kAborted —
  // teardown is not a fault). Both failed -> done(non-ok); the caller must
  // not treat the data as durable.
  void WriteReplicated(const BlobAddr& primary, const BlobAddr& shadow,
                       IoPriority prio, DoneFn done);

  // Read whichever replica's backend has more credits (falls back to the
  // primary when balancing is disabled or the shadow is missing), never
  // knowingly targeting a down backend while the other copy is up. On a
  // non-ok completion the other replica is retried with capped backoff
  // until the per-blob budget (1 + the initiator's max_retries) runs out.
  void ReadBalanced(const BlobAddr& primary, const BlobAddr& shadow,
                    IoPriority prio, DoneFn done);

  // Deallocate a blob on its backend (NVMe TRIM): tells the SSD the data
  // is dead so garbage collection stops relocating it. Dirty-ledger
  // entries overlapping the range are invalidated (their data is moot).
  void Trim(const BlobAddr& addr);

  // --- Dirty-replica ledger (consumed by kv/rebuild.h) ---------------------
  size_t dirty_count() const { return dirty_.size(); }
  bool TakeDirty(DirtyReplica* out);
  // A repair attempt failed; the entry goes to the back of the ledger.
  void RequeueDirty(const DirtyReplica& d);
  // The scanner wrote the dirty copy successfully.
  void MarkRepaired(const DirtyReplica& d);
  // Invoked whenever the ledger grows or a down backend is observed up
  // again — the rebuild scanner's wake-up signal.
  void SetDirtyCallback(std::function<void()> cb) { dirty_cb_ = std::move(cb); }

  // Observed backend health (client-side view; see file header).
  bool backend_down(int backend) const {
    return down_[static_cast<size_t>(backend)] != 0;
  }

  // Rack topology: the node each backend SSD lives on, for the
  // kv.placement.domain invariant (replicated copies must land on distinct
  // failure domains). Empty — the default — means node == backend, which
  // is exactly the single-node bed's behavior.
  void SetNodeMap(std::vector<int> node_of) { node_of_ = std::move(node_of); }
  int NodeOf(int backend) const {
    return node_of_.empty() ? backend : node_of_[static_cast<size_t>(backend)];
  }

  uint32_t credits(int backend) const {
    return backends_[static_cast<size_t>(backend)]->credits();
  }
  int backend_count() const { return static_cast<int>(backends_.size()); }
  bool load_balance_reads() const { return load_balance_reads_; }
  // Bounded-exponential backoff before attempt `n` (1-based), reusing the
  // backend initiator's client retry policy.
  Tick RetryBackoff(int backend, int n) const {
    return fabric::BackoffFor(
        backends_[static_cast<size_t>(backend)]->retry_params(), n);
  }
  // Per-blob transmission budget for failover reads.
  int ReadBudget(int backend) const {
    return 1 + backends_[static_cast<size_t>(backend)]->retry_params()
                   .max_retries;
  }

  // Metric/trace sinks + the instance id used as the tenant label on
  // kv.* series and the checker's KV ledgers.
  void AttachObservability(obs::Observability* obs, int32_t instance);
  void AttachChecker(check::InvariantChecker* chk) { chk_ = chk; }
  int32_t instance() const { return instance_; }

  struct Stats {
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t read_bytes = 0;
    uint64_t write_bytes = 0;
    uint64_t balanced_to_shadow = 0;  // reads steered off-primary
    uint64_t trims = 0;
    uint64_t failover_reads = 0;   // read attempts retried on the other copy
    uint64_t degraded_writes = 0;  // replicated writes acked at one copy
    uint64_t dirty_recorded = 0;
    uint64_t dirty_repaired = 0;
    uint64_t dirty_dropped = 0;  // invalidated by Trim before repair
    uint64_t rebuild_bytes = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct ReadCtx {
    BlobAddr primary, shadow;
    IoPriority prio;
    DoneFn done;
    int attempts = 0;  // transmissions so far
    int budget = 1;
  };

  static uint32_t PageAligned(uint32_t bytes) {
    return (bytes + 4095u) & ~4095u;
  }
  static bool Overlap(const BlobAddr& a, const BlobAddr& b) {
    return a.valid() && b.valid() && a.backend == b.backend &&
           a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes;
  }

  // Update the observed health view from a completion on `backend`.
  void ObserveStatus(int backend, IoStatus status);
  void StartRead(const std::shared_ptr<ReadCtx>& ctx, bool use_shadow);
  void RecordDirty(const BlobAddr& dirty, const BlobAddr& source);
  void UpdateDirtyGauge();

  sim::Simulator& sim_;
  std::vector<fabric::Initiator*> backends_;
  bool load_balance_reads_;
  uint64_t lb_rr_ = 0;  // epsilon-probe counter for replica selection
  std::vector<int> node_of_;   // backend -> node; empty = node == backend
  std::vector<uint8_t> down_;  // observed per-backend down flags
  std::deque<DirtyReplica> dirty_;
  std::function<void()> dirty_cb_;
  Stats stats_;

  int32_t instance_ = -1;
  obs::Observability* obs_ = nullptr;
  obs::Counter* m_failover_ = nullptr;
  obs::Counter* m_degraded_ = nullptr;
  obs::Counter* m_rebuild_bytes_ = nullptr;
  obs::Counter* m_lost_ = nullptr;
  obs::Gauge* m_dirty_ = nullptr;
  check::InvariantChecker* chk_ = nullptr;
};

}  // namespace gimbal::kv
