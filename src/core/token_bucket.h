// Dual token bucket rate pacer (§3.3, Appendix C.1, Algorithm 4).
//
// Tokens are generated at the congestion controller's target rate and split
// between a read bucket and a write bucket in proportion write_cost:1, so
// writes are paced at their own (costlier) rate rather than the aggregate
// one. Overflow transfers between buckets; both are capped.
#pragma once

#include <cstdint>

#include "check/invariants.h"
#include "common/time.h"
#include "core/params.h"
#include "nvme/types.h"
#include "obs/obs.h"

namespace gimbal::core {

class DualTokenBucket {
 public:
  explicit DualTokenBucket(const GimbalParams& params)
      : cap_(static_cast<double>(params.bucket_cap_bytes)) {}

  // Accrue tokens for the elapsed time at `target_rate` (bytes/sec), split
  // by the current write cost. Call before every dequeue attempt
  // (Algorithm 1's update_token_buckets()).
  void Update(Tick now, double target_rate, double write_cost);

  // Whether an IO of `bytes` of `type` can be submitted now.
  bool HasTokens(IoType type, uint64_t bytes) const {
    return tokens(type) >= static_cast<double>(bytes);
  }

  // Consume tokens for a submitted IO.
  void Consume(IoType type, uint64_t bytes);

  // Overloaded state: discard accumulated tokens to kill bursts (Alg 1).
  void DiscardTokens();

  // Simulated time until the bucket for `type` could cover `bytes` when
  // tokens arrive at `fill_rate` bytes/sec split by `write_cost` per
  // Algorithm 4: the bucket refills at its own share (wc/(1+wc) for reads,
  // 1/(1+wc) for writes) until the sibling bucket hits capacity, after
  // which the sibling's share spills over and tokens arrive at the full
  // rate. Returns 0 when the bucket already covers it and kNever when
  // fill_rate is non-positive (the caller picks a retry policy; the
  // bucket cannot).
  static constexpr Tick kNever = -1;
  Tick RefillEta(IoType type, uint64_t bytes, double fill_rate,
                 double write_cost) const;

  double tokens(IoType type) const {
    return type == IoType::kRead ? read_tokens_ : write_tokens_;
  }
  double capacity() const { return cap_; }

  // Invariant hooks: accrual never outruns target_rate x elapsed, tokens
  // stay in [0, cap], consumes decrement exactly (docs/TESTING.md). The
  // bucket emits no metrics; `sinks.label` is the ssd index.
  void Attach(const obs::Sinks& sinks) {
    chk_ = sinks.chk;
    ssd_index_ = sinks.label;
  }

 private:
  check::InvariantChecker* chk_ = nullptr;
  int ssd_index_ = -1;
  double cap_;
  double read_tokens_ = 0;
  double write_tokens_ = 0;
  Tick last_update_ = 0;
  bool started_ = false;
};

}  // namespace gimbal::core
