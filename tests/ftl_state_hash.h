// StateHash: one fingerprint of everything an FTL exposes, for tests that
// pin a preconditioned state or compare two FTLs that must agree.
#pragma once

#include <cstdint>

#include "ssd/ftl.h"

namespace gimbal::ssd {

// FNV-1a over everything a preconditioned FTL exposes: the full mapping,
// per-block valid and erase counts, per-die free-block counts, the stats,
// and the PPNs the next 8 allocations on every die receive (taken on a copy,
// so they pin the free-list order and the wear-levelling pick without
// disturbing `ftl`).
inline uint64_t StateHash(const Ftl& ftl) {
  const SsdConfig& c = ftl.config();
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (Lpn l = 0; l < c.logical_pages(); ++l) mix(ftl.Translate(l));
  for (uint32_t b = 0; b < c.physical_blocks(); ++b) {
    mix(ftl.ValidPages(b));
    mix(ftl.EraseCount(b));
  }
  for (int d = 0; d < c.dies(); ++d) {
    mix(static_cast<uint64_t>(ftl.FreeBlocks(d)));
  }
  mix(ftl.stats().host_pages_written);
  mix(ftl.stats().gc_pages_relocated);
  mix(ftl.stats().blocks_erased);
  Ftl probe = ftl;
  for (int d = 0; d < c.dies(); ++d) {
    for (Lpn i = 0; i < 8; ++i) {
      Lpn lpn = (static_cast<Lpn>(d) * 8 + i) % c.logical_pages();
      mix(probe.AllocateOnDie(lpn, d));
    }
  }
  return h;
}

}  // namespace gimbal::ssd
