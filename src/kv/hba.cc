#include "kv/hba.h"

#include <cassert>

#include "core/params.h"

namespace gimbal::kv {

GlobalBlobAllocator::GlobalBlobAllocator(int backends, HbaConfig config)
    : config_(config),
      megas_per_backend_(config.backend_bytes / config.mega_bytes) {
  bitmaps_.assign(static_cast<size_t>(backends),
                  std::vector<bool>(megas_per_backend_, false));
}

std::optional<BlobAddr> GlobalBlobAllocator::AllocateMega(int backend) {
  auto& bm = bitmaps_[static_cast<size_t>(backend)];
  for (uint64_t i = 0; i < bm.size(); ++i) {
    if (!bm[i]) {
      bm[i] = true;
      return BlobAddr{backend, i * config_.mega_bytes,
                      static_cast<uint32_t>(config_.mega_bytes)};
    }
  }
  return std::nullopt;
}

uint64_t GlobalBlobAllocator::FreeMegasOn(int backend) const {
  uint64_t free = 0;
  for (bool used : bitmaps_[static_cast<size_t>(backend)]) {
    if (!used) ++free;
  }
  return free;
}

LocalBlobAllocator::LocalBlobAllocator(GlobalBlobAllocator& global,
                                       std::function<uint32_t(int)> credit_of)
    : global_(global), credit_of_(std::move(credit_of)) {
  free_micros_.resize(static_cast<size_t>(global_.backends()));
}

int LocalBlobAllocator::PreferredBackend(int exclude_backend) const {
  int best = -1;
  uint64_t best_credit = 0;
  const int exclude_node =
      exclude_backend >= 0 ? NodeOf(exclude_backend) : -1;
  for (int b = 0; b < global_.backends(); ++b) {
    // Failure-domain exclusion: skip every backend on the excluded
    // backend's node, not just the backend itself.
    if (GIMBAL_MUT(kPlacementCollapse) ? b == exclude_backend
                                       : exclude_node >= 0 &&
                                             NodeOf(b) == exclude_node) {
      continue;
    }
    // Backends with no space left are not candidates.
    if (free_micros_[static_cast<size_t>(b)].empty() &&
        global_.FreeMegasOn(b) == 0) {
      continue;
    }
    uint64_t credit = credit_of_ ? credit_of_(b) : 1;
    if (best < 0 || credit > best_credit) {
      best = b;
      best_credit = credit;
    }
  }
  return best;
}

bool LocalBlobAllocator::RefillFrom(int backend) {
  auto mega = global_.AllocateMega(backend);
  if (!mega) return false;
  const uint32_t micro = global_.config().micro_bytes;
  auto& pool = free_micros_[static_cast<size_t>(backend)];
  for (uint64_t off = 0; off + micro <= mega->bytes; off += micro) {
    pool.push_back(BlobAddr{backend, mega->offset + off, micro});
  }
  return true;
}

std::optional<BlobAddr> LocalBlobAllocator::AllocateMicro(
    int exclude_backend) {
  int backend = PreferredBackend(exclude_backend);
  if (backend < 0) return std::nullopt;
  auto& pool = free_micros_[static_cast<size_t>(backend)];
  if (pool.empty() && !RefillFrom(backend)) return std::nullopt;
  BlobAddr out = pool.back();
  pool.pop_back();
  return out;
}

void LocalBlobAllocator::FreeMicro(const BlobAddr& micro) {
  assert(micro.valid());
  free_micros_[static_cast<size_t>(micro.backend)].push_back(micro);
  // Note: micro blobs are retained by the local agent; mega blobs return
  // to the global pool only when an instance shuts down. This matches the
  // paper's free-list behaviour and keeps allocation O(1).
}

size_t LocalBlobAllocator::FreeMicrosOn(int backend) const {
  return free_micros_[static_cast<size_t>(backend)].size();
}

}  // namespace gimbal::kv
