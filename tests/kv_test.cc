// Unit tests for the key-value substrate: bloom filter, memtable,
// SSTable, hierarchical blob allocator, blobstore replication/balancing.
#include <gtest/gtest.h>

#include <set>

#include "kv/bloom.h"
#include "kv/hba.h"
#include "kv/memtable.h"
#include "kv/sstable.h"

namespace gimbal::kv {
namespace {

TEST(Bloom, NoFalseNegatives) {
  BloomFilter f(1000);
  for (uint64_t k = 0; k < 1000; ++k) f.Add(k * 7);
  for (uint64_t k = 0; k < 1000; ++k) EXPECT_TRUE(f.MayContain(k * 7));
}

TEST(Bloom, LowFalsePositiveRate) {
  BloomFilter f(10000);
  for (uint64_t k = 0; k < 10000; ++k) f.Add(k);
  int fp = 0;
  for (uint64_t k = 100000; k < 120000; ++k) {
    if (f.MayContain(k)) ++fp;
  }
  EXPECT_LT(fp, 20000 * 0.03);  // ~1% expected at 10 bits/key
}

TEST(Bloom, EmptyFilterRejectsEverything) {
  BloomFilter f(100);
  int hits = 0;
  for (uint64_t k = 0; k < 1000; ++k) {
    if (f.MayContain(k)) ++hits;
  }
  EXPECT_EQ(hits, 0);
}

TEST(Memtable, PutGetOverwrite) {
  Memtable m;
  m.Put(5, Value{.stamp = 1, .bytes = 1024});
  EXPECT_EQ(m.Get(5)->stamp, 1u);
  m.Put(5, Value{.stamp = 2, .bytes = 1024});
  EXPECT_EQ(m.Get(5)->stamp, 2u);
  EXPECT_FALSE(m.Get(6).has_value());
  EXPECT_EQ(m.count(), 1u);
}

TEST(Memtable, BytesAccounting) {
  Memtable m;
  m.Put(1, Value{.stamp = 1, .bytes = 1024});
  m.Put(2, Value{.stamp = 1, .bytes = 1024});
  EXPECT_EQ(m.bytes(), 2 * (1024 + Memtable::kEntryOverhead));
}

TEST(Memtable, SortedSnapshot) {
  Memtable m;
  m.Put(30, Value{.stamp = 1, .bytes = 8});
  m.Put(10, Value{.stamp = 2, .bytes = 8});
  m.Put(20, Value{.stamp = 3, .bytes = 8});
  auto s = m.Sorted();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].first, 10u);
  EXPECT_EQ(s[2].first, 30u);
}

std::vector<std::pair<Key, Value>> MakeEntries(uint64_t n,
                                               uint32_t bytes = 1024) {
  std::vector<std::pair<Key, Value>> e;
  for (uint64_t k = 0; k < n; ++k) {
    e.emplace_back(k * 2, Value{.stamp = k, .bytes = bytes});
  }
  return e;
}

TEST(SsTable, RangeAndLookup) {
  SsTable t(1, MakeEntries(100));
  EXPECT_EQ(t.min_key(), 0u);
  EXPECT_EQ(t.max_key(), 198u);
  EXPECT_TRUE(t.KeyInRange(100));
  EXPECT_FALSE(t.KeyInRange(199));
  EXPECT_TRUE(t.Lookup(10).has_value());
  EXPECT_FALSE(t.Lookup(11).has_value());  // odd keys absent
  EXPECT_EQ(t.Lookup(10)->stamp, 5u);
}

TEST(SsTable, MayContainFiltersAbsentKeys) {
  SsTable t(1, MakeEntries(1000));
  int fp = 0;
  for (uint64_t k = 1; k < 1999; k += 2) {
    if (t.MayContain(k)) ++fp;  // odd keys are absent
  }
  EXPECT_LT(fp, 50);
  EXPECT_TRUE(t.MayContain(500));  // present key always passes
}

TEST(SsTable, BlockOffsetMonotoneAndAligned) {
  SsTable t(1, MakeEntries(1000));
  uint64_t prev = 0;
  for (uint64_t k = 0; k < 2000; k += 100) {
    uint64_t off = t.BlockOffsetOf(k);
    EXPECT_EQ(off % 4096, 0u);
    EXPECT_GE(off, prev);
    prev = off;
  }
  EXPECT_LT(prev, t.data_bytes());
}

TEST(SsTable, BlobForOffsetWalksPlacement) {
  SsTable t(1, MakeEntries(1000));  // ~1MB data
  // Unreplicated: every shadow is invalid.
  t.placement = {{{0, 0, 256 * 1024}, {}},
                 {{1, 1 << 20, 256 * 1024}, {}},
                 {{0, 2 << 20, 256 * 1024}, {}},
                 {{2, 0, 256 * 1024}, {}}};
  auto [p0, s0] = t.BlobForOffset(0, 4096);
  EXPECT_EQ(p0.backend, 0);
  EXPECT_EQ(p0.offset, 0u);
  EXPECT_EQ(p0.bytes, 4096u);
  EXPECT_FALSE(s0.valid());
  auto [p1, s1] = t.BlobForOffset(256 * 1024 + 8192, 4096);
  EXPECT_EQ(p1.backend, 1);
  EXPECT_EQ(p1.offset, (1u << 20) + 8192u);
}

TEST(SsTable, ShadowPlacementMirrors) {
  SsTable t(1, MakeEntries(100));
  t.placement = {{{0, 0, 256 * 1024}, {1, 4096, 256 * 1024}}};
  auto [p, s] = t.BlobForOffset(8192, 4096);
  EXPECT_EQ(p.backend, 0);
  EXPECT_EQ(s.backend, 1);
  EXPECT_EQ(s.offset, 4096u + 8192u);
}

// The range form (bulk load) must answer every query exactly as an
// explicit table with the same contiguous, uniform contents does.
void ExpectRangeMatchesExplicit(Key first, uint64_t n) {
  SCOPED_TRACE(testing::Message() << "first=" << first << " n=" << n);
  const Value v{.stamp = 7, .bytes = 1000};
  std::vector<std::pair<Key, Value>> entries;
  for (uint64_t i = 0; i < n; ++i) entries.emplace_back(first + i, v);
  const SsTable ex(1, std::move(entries));
  const SsTable rg(2, first, n, v);

  EXPECT_EQ(rg.count(), ex.count());
  EXPECT_EQ(rg.min_key(), ex.min_key());
  EXPECT_EQ(rg.max_key(), ex.max_key());
  EXPECT_EQ(rg.data_bytes(), ex.data_bytes());
  for (uint64_t i = 0; i < ex.count(); ++i) {
    ASSERT_EQ(rg.KeyAt(i), ex.KeyAt(i)) << i;
    ASSERT_EQ(rg.ValueAt(i), ex.ValueAt(i)) << i;
  }
  const Key lo = ex.min_key() >= 2 ? ex.min_key() - 2 : 0;
  for (Key k = lo; k <= ex.max_key() + 2; ++k) {
    ASSERT_EQ(rg.MayContain(k), ex.MayContain(k)) << k;
    ASSERT_EQ(rg.Lookup(k), ex.Lookup(k)) << k;
    ASSERT_EQ(rg.BlockOffsetOf(k), ex.BlockOffsetOf(k)) << k;
    ASSERT_EQ(rg.RankOf(k), ex.RankOf(k)) << k;
  }
}

TEST(SsTable, RangeFormMatchesExplicitForm) {
  ExpectRangeMatchesExplicit(0, 1);       // 1-entry table at key 0
  ExpectRangeMatchesExplicit(500, 1);     // 1-entry table mid keyspace
  ExpectRangeMatchesExplicit(0, 4000);    // a full ~4 MiB target-sized table
  ExpectRangeMatchesExplicit(12345, 37);  // a short last chunk
}

TEST(SsTable, RankOfIsLowerBound) {
  SsTable t(1, MakeEntries(10));  // keys 0, 2, ..., 18
  EXPECT_EQ(t.RankOf(0), 0u);
  EXPECT_EQ(t.RankOf(3), 2u);
  EXPECT_EQ(t.RankOf(4), 2u);
  EXPECT_EQ(t.RankOf(18), 9u);
  EXPECT_EQ(t.RankOf(19), 10u);  // past the end: count()
  const SsTable r(2, 100, 10, Value{.stamp = 1, .bytes = 8});
  EXPECT_EQ(r.RankOf(0), 0u);
  EXPECT_EQ(r.RankOf(104), 4u);
  EXPECT_EQ(r.RankOf(1000), 10u);
}

// ---------------------------------------------------------------------------
// Hierarchical blob allocator
// ---------------------------------------------------------------------------

HbaConfig SmallHba() {
  HbaConfig h;
  h.backend_bytes = 64ull << 20;
  h.mega_bytes = 4ull << 20;
  h.micro_bytes = 256 * 1024;
  return h;
}

TEST(Hba, GlobalMegaBitmap) {
  GlobalBlobAllocator g(2, SmallHba());
  EXPECT_EQ(g.FreeMegasOn(0), 16u);
  auto m = g.AllocateMega(0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->backend, 0);
  EXPECT_EQ(m->bytes, 4u << 20);
  EXPECT_EQ(g.FreeMegasOn(0), 15u);
}

TEST(Hba, GlobalExhaustion) {
  GlobalBlobAllocator g(1, SmallHba());
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(g.AllocateMega(0).has_value());
  EXPECT_FALSE(g.AllocateMega(0).has_value());
}

TEST(Hba, MegasDoNotOverlap) {
  GlobalBlobAllocator g(1, SmallHba());
  std::set<uint64_t> offsets;
  for (int i = 0; i < 16; ++i) {
    auto m = g.AllocateMega(0);
    ASSERT_TRUE(m);
    EXPECT_TRUE(offsets.insert(m->offset).second);
    EXPECT_LE(m->offset + m->bytes, 64ull << 20);
  }
}

TEST(Hba, LocalRefillsFromGlobal) {
  GlobalBlobAllocator g(2, SmallHba());
  LocalBlobAllocator local(g, nullptr);
  auto b = local.AllocateMicro();
  ASSERT_TRUE(b);
  EXPECT_EQ(b->bytes, 256u * 1024);
  // One mega = 16 micros; the rest are in the local pool.
  EXPECT_EQ(local.FreeMicrosOn(b->backend), 15u);
}

TEST(Hba, LoadAwarePlacement) {
  GlobalBlobAllocator g(3, SmallHba());
  // Backend 1 advertises the most credits -> preferred.
  LocalBlobAllocator local(g, [](int b) { return b == 1 ? 100u : 10u; });
  auto blob = local.AllocateMicro();
  ASSERT_TRUE(blob);
  EXPECT_EQ(blob->backend, 1);
}

TEST(Hba, ExcludeBackendForShadow) {
  GlobalBlobAllocator g(2, SmallHba());
  LocalBlobAllocator local(g, [](int) { return 10u; });
  auto primary = local.AllocateMicro();
  ASSERT_TRUE(primary);
  auto shadow = local.AllocateMicro(primary->backend);
  ASSERT_TRUE(shadow);
  EXPECT_NE(shadow->backend, primary->backend);
}

TEST(Hba, FreeMicroReturnsToPool) {
  GlobalBlobAllocator g(1, SmallHba());
  LocalBlobAllocator local(g, nullptr);
  auto b = local.AllocateMicro();
  ASSERT_TRUE(b);
  size_t before = local.FreeMicrosOn(0);
  local.FreeMicro(*b);
  EXPECT_EQ(local.FreeMicrosOn(0), before + 1);
}

TEST(Hba, MicroAllocationsDistinct) {
  GlobalBlobAllocator g(1, SmallHba());
  LocalBlobAllocator local(g, nullptr);
  std::set<uint64_t> offsets;
  for (int i = 0; i < 64; ++i) {
    auto b = local.AllocateMicro();
    ASSERT_TRUE(b);
    EXPECT_TRUE(offsets.insert(b->offset).second) << "overlapping micro";
  }
}

}  // namespace
}  // namespace gimbal::kv
