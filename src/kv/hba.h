// Hierarchical blob allocator (§4.3).
//
// Two levels, exactly as the paper describes:
//   * a rack-scale *global* allocator divides each backend SSD into mega
//     blobs (large contiguous chunks) tracked by bitmap;
//   * each DB instance runs a *local* agent that carves mega blobs into
//     micro blobs and serves file allocations from its free list, going
//     back to the global allocator only when the local pool is empty.
// Both levels are load-aware: given a per-backend credit reading (§3.7's
// virtual view), they prefer the least-loaded backend.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "kv/types.h"

namespace gimbal::kv {

struct HbaConfig {
  uint64_t backend_bytes = 512ull << 20;
  uint64_t mega_bytes = 4ull << 20;     // paper: 4 GB, scaled with capacity
  uint32_t micro_bytes = 256 * 1024;    // paper: 256 KB
};

// Rack-scale global allocator (one per cluster, shared by all instances).
class GlobalBlobAllocator {
 public:
  GlobalBlobAllocator(int backends, HbaConfig config);

  // Allocate one mega blob on `backend`; nullopt when that SSD is full.
  std::optional<BlobAddr> AllocateMega(int backend);

  int backends() const { return static_cast<int>(bitmaps_.size()); }
  uint64_t FreeMegasOn(int backend) const;
  const HbaConfig& config() const { return config_; }

 private:
  HbaConfig config_;
  uint64_t megas_per_backend_;
  std::vector<std::vector<bool>> bitmaps_;  // [backend][mega] true = in use
};

// Per-instance local agent: micro-blob free lists over owned mega blobs.
class LocalBlobAllocator {
 public:
  // `credit_of(backend)` reads the virtual-view load signal; higher credit
  // = less loaded = preferred (§4.3's "maximum credit" policy).
  LocalBlobAllocator(GlobalBlobAllocator& global,
                     std::function<uint32_t(int)> credit_of);

  // Rack topology (docs/SIMULATOR.md): `node_of[b]` is the failure domain
  // backend `b` lives on. Exclusion below is domain-wide, so replicas never
  // share a node. Unset, every backend is its own domain — exactly the
  // pre-rack per-backend exclusion.
  void SetNodeMap(std::vector<int> node_of) { node_of_ = std::move(node_of); }
  int NodeOf(int backend) const {
    return node_of_.empty() ? backend : node_of_[static_cast<size_t>(backend)];
  }

  // Allocate one micro blob. `exclude_backend` (>=0) forces the choice
  // off that backend's entire failure domain — used to place a shadow
  // replica off the primary's node.
  std::optional<BlobAddr> AllocateMicro(int exclude_backend = -1);
  void FreeMicro(const BlobAddr& micro);

  // Pick the least-loaded backend by credits (ties: lowest index).
  int PreferredBackend(int exclude_backend = -1) const;

  size_t FreeMicrosOn(int backend) const;

 private:
  bool RefillFrom(int backend);

  GlobalBlobAllocator& global_;
  std::function<uint32_t(int)> credit_of_;
  std::vector<int> node_of_;  // empty: node == backend
  std::vector<std::vector<BlobAddr>> free_micros_;  // per backend
};

}  // namespace gimbal::kv
