// Unit tests for the per-tenant containers: the dense index-pool arenas
// (src/common/index_arena.h) that back every per-tenant hot-path map —
// SlabArena slot recycling and live-list bookkeeping under churn, and
// IdIndexMap's open-addressing semantics (overwrite, backshift deletion
// across wrapped probe chains, growth) — and the Fifo ring
// (src/common/fifo.h) behind every per-tenant queue.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/fifo.h"
#include "common/index_arena.h"
#include "common/rng.h"

namespace gimbal::common {
namespace {

struct Slot {
  explicit Slot(uint64_t k) : key(k) { scratch.reserve(4); }
  void Reset(uint64_t k) {
    key = k;
    ++resets;  // scratch capacity must survive recycling
    scratch.clear();
  }
  uint64_t key;
  int resets = 0;
  std::vector<int> scratch;
};

TEST(SlabArena, AllocateFreeRecyclesLifo) {
  SlabArena<Slot> a;
  const uint32_t s0 = a.Allocate(10);
  const uint32_t s1 = a.Allocate(11);
  const uint32_t s2 = a.Allocate(12);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.capacity(), 3u);

  a.Free(s1);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.free_count(), 1u);

  // LIFO recycling: the freed slot comes back first, Reset() not a fresh
  // construction.
  const uint32_t s3 = a.Allocate(13);
  EXPECT_EQ(s3, s1);
  EXPECT_EQ(a[s3].key, 13u);
  EXPECT_EQ(a[s3].resets, 1);
  EXPECT_EQ(a.capacity(), 3u);  // no new slot carved
  (void)s0;
  (void)s2;
}

TEST(SlabArena, LiveListTracksSwapRemove) {
  SlabArena<Slot> a;
  std::vector<uint32_t> slots;
  for (uint64_t k = 0; k < 8; ++k) slots.push_back(a.Allocate(k));
  a.Free(slots[2]);
  a.Free(slots[5]);

  std::set<uint32_t> live(a.live().begin(), a.live().end());
  EXPECT_EQ(live.size(), 6u);
  EXPECT_EQ(a.live().size(), a.size());
  EXPECT_FALSE(live.count(slots[2]));
  EXPECT_FALSE(live.count(slots[5]));
  for (uint32_t s : a.live()) EXPECT_LT(a[s].key, 8u);
}

TEST(SlabArena, ChurnStormLeavesNoOrphans) {
  // 100k alloc/free cycles over a 64-slot working set: capacity must stay
  // at the high-water mark (recycling, not growth) and every slot must end
  // up either live or on the free list.
  SlabArena<Slot> a;
  Rng rng(7);
  std::vector<uint32_t> held;
  for (int i = 0; i < 100000; ++i) {
    if (held.size() < 64 && (held.empty() || rng.NextBool(0.55))) {
      held.push_back(a.Allocate(static_cast<uint64_t>(i)));
    } else {
      const size_t j = rng.NextBounded(held.size());
      a.Free(held[j]);
      held[j] = held.back();
      held.pop_back();
    }
  }
  EXPECT_EQ(a.size(), held.size());
  EXPECT_LE(a.capacity(), 64u);
  EXPECT_EQ(a.capacity(), a.size() + a.free_count());
  for (uint32_t s : held) a.Free(s);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.capacity(), a.free_count());
}

TEST(IdIndexMap, PutFindEraseOverwrite) {
  IdIndexMap m;
  EXPECT_EQ(m.Find(42), IdIndexMap::kNotFound);
  m.Put(42, 7);
  EXPECT_EQ(m.Find(42), 7u);
  m.Put(42, 9);  // overwrite, not duplicate
  EXPECT_EQ(m.Find(42), 9u);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.Erase(42));
  EXPECT_FALSE(m.Erase(42));
  EXPECT_EQ(m.Find(42), IdIndexMap::kNotFound);
  EXPECT_TRUE(m.empty());
}

TEST(IdIndexMap, GrowthPreservesAllEntries) {
  IdIndexMap m;
  for (uint64_t k = 0; k < 10000; ++k) m.Put(k, static_cast<uint32_t>(k * 3));
  EXPECT_EQ(m.size(), 10000u);
  for (uint64_t k = 0; k < 10000; ++k) {
    ASSERT_EQ(m.Find(k), static_cast<uint32_t>(k * 3)) << "key " << k;
  }
}

TEST(IdIndexMap, BackshiftDeletionKeepsProbeChainsIntact) {
  // Randomized differential test against a reference map: interleaved
  // insert/erase churn exercises backshift deletion across wrapped chains
  // (sequential-ish keys hash adjacently often enough after SplitMix64 at
  // high load).
  IdIndexMap m;
  std::set<uint64_t> ref;
  Rng rng(11);
  for (int i = 0; i < 200000; ++i) {
    const uint64_t key = rng.NextBounded(512);  // small space => collisions
    if (rng.NextBool(0.5)) {
      m.Put(key, static_cast<uint32_t>(key + 1));
      ref.insert(key);
    } else {
      EXPECT_EQ(m.Erase(key), ref.erase(key) > 0) << "key " << key;
    }
  }
  EXPECT_EQ(m.size(), ref.size());
  for (uint64_t k = 0; k < 512; ++k) {
    if (ref.count(k)) {
      ASSERT_EQ(m.Find(k), static_cast<uint32_t>(k + 1)) << "key " << k;
    } else {
      ASSERT_EQ(m.Find(k), IdIndexMap::kNotFound) << "key " << k;
    }
  }
}

TEST(Fifo, DefaultConstructedAllocatesNothing) {
  Fifo<int> q;
  EXPECT_EQ(q.capacity(), 0u);
  EXPECT_TRUE(q.empty());
  q.push_back(1);
  EXPECT_EQ(q.capacity(), 1u);  // growth starts at 1, then doubles
  q.push_back(2);
  EXPECT_EQ(q.capacity(), 2u);
  q.push_back(3);
  EXPECT_EQ(q.capacity(), 4u);
}

TEST(Fifo, OrderHoldsAcrossWrapAndGrowthWhileWrapped) {
  // Differential against a plain index sequence: pushes outpace pops, so
  // the ring wraps at every capacity and grows while its head sits
  // mid-buffer.
  Fifo<int> q;
  int next_in = 0;
  int next_out = 0;
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    if (q.empty() || rng.NextBool(0.55)) {
      q.push_back(next_in++);
    } else {
      ASSERT_EQ(q.front(), next_out) << "step " << i;
      q.pop_front();
      ++next_out;
    }
    ASSERT_EQ(q.size(), static_cast<size_t>(next_in - next_out));
  }
  for (; !q.empty(); q.pop_front()) ASSERT_EQ(q.front(), next_out++);
  EXPECT_EQ(next_out, next_in);

  // Deterministic wrapped growth: head at slot 3 of 4, then overflow.
  Fifo<int> w;
  for (int v = 0; v < 4; ++v) w.push_back(v);
  for (int v = 0; v < 3; ++v) w.pop_front();
  for (int v = 4; v < 8; ++v) w.push_back(v);  // wraps, then grows to 8
  EXPECT_EQ(w.capacity(), 8u);
  for (int v = 3; v < 8; ++v, w.pop_front()) ASSERT_EQ(w.front(), v);
  EXPECT_TRUE(w.empty());
}

TEST(Fifo, ClearKeepsCapacity) {
  Fifo<int> q;
  for (int v = 0; v < 5; ++v) q.push_back(v);
  q.pop_front();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 8u);
  q.push_back(42);
  EXPECT_EQ(q.front(), 42);
  EXPECT_EQ(q.capacity(), 8u);
}

TEST(Fifo, MovedFromIsEmptyAndReusable) {
  Fifo<int> a;
  for (int v = 0; v < 3; ++v) a.push_back(v);
  a.pop_front();
  Fifo<int> b = std::move(a);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.capacity(), 0u);
  a.push_back(7);
  EXPECT_EQ(a.front(), 7);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.front(), 1);

  Fifo<int> c;
  c.push_back(9);
  c = std::move(b);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  b.push_back(5);
  EXPECT_EQ(b.front(), 5);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.front(), 1);
}

TEST(Fifo, PopFrontReleasesTheElementAtOnce) {
  // A queued IO's completion callback owns its captures; popping it must
  // drop them immediately, not when the ring slot is next overwritten.
  auto token = std::make_shared<int>(0);
  Fifo<std::shared_ptr<int>> q;
  q.push_back(token);
  q.push_back(token);
  EXPECT_EQ(token.use_count(), 3);
  q.pop_front();
  EXPECT_EQ(token.use_count(), 2);
  q.clear();
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace gimbal::common
