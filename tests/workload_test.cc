// Tests for the workload layer: fio worker behaviour, YCSB generators,
// MDTS splitting at the initiator, and the report utilities.
#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "baselines/fcfs_policy.h"
#include "obs/schema.h"
#include "ssd/null_device.h"
#include "workload/report.h"
#include "workload/runner.h"
#include "workload/ycsb.h"

namespace gimbal::workload {
namespace {

TEST(FioWorkerTest, MixedRatioApproximatelyHonoured) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kVanilla;
  cfg.use_null_device = true;
  Testbed bed(cfg);
  FioSpec spec;
  spec.read_ratio = 0.7;
  spec.io_bytes = 4096;
  spec.queue_depth = 16;
  spec.region_bytes = 1ull << 30;
  FioWorker& w = bed.AddWorker(spec);
  bed.Run(Milliseconds(20), Milliseconds(200));
  double total = static_cast<double>(w.stats().total_ios());
  ASSERT_GT(total, 1000);
  EXPECT_NEAR(static_cast<double>(w.stats().read_ios) / total, 0.7, 0.05);
}

TEST(FioWorkerTest, SequentialCursorWraps) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kVanilla;
  cfg.use_null_device = true;
  Testbed bed(cfg);
  FioSpec spec;
  spec.sequential = true;
  spec.io_bytes = 4096;
  spec.queue_depth = 4;
  spec.region_bytes = 64 * 1024;  // tiny region: must wrap, not overflow
  FioWorker& w = bed.AddWorker(spec);
  bed.Run(Milliseconds(10), Milliseconds(50));
  EXPECT_GT(w.stats().total_ios(), 16u);
}

TEST(FioWorkerTest, DistinctSeedsDistinctSequentialStarts) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kVanilla;
  cfg.use_null_device = true;
  Testbed bed(cfg);
  // Two sequential workers with different seeds must not write the same
  // offsets in lockstep (the interference benches rely on this).
  FioSpec a;
  a.sequential = true;
  a.io_bytes = 4096;
  a.queue_depth = 1;
  a.seed = 1;
  FioSpec b = a;
  b.seed = 2;
  bed.AddWorker(a);
  bed.AddWorker(b);
  bed.Run(Milliseconds(1), Milliseconds(10));
  // Cannot observe offsets directly through stats; this is a smoke test
  // that both made progress (behavioural check lives in the SSD WA tests).
  EXPECT_GT(bed.workers()[0]->stats().total_ios(), 0u);
  EXPECT_GT(bed.workers()[1]->stats().total_ios(), 0u);
}

TEST(FioWorkerTest, StopQuiesces) {
  TestbedConfig cfg;
  cfg.scheme = Scheme::kVanilla;
  cfg.use_null_device = true;
  Testbed bed(cfg);
  FioSpec spec;
  spec.io_bytes = 4096;
  spec.queue_depth = 8;
  spec.region_bytes = 1 << 20;
  FioWorker& w = bed.AddWorker(spec);
  w.Start();
  bed.sim().RunUntil(Milliseconds(10));
  w.Stop();
  uint64_t at_stop = w.stats().total_ios();
  bed.sim().RunUntil(Milliseconds(20));
  // Only the outstanding QD can complete after Stop.
  EXPECT_LE(w.stats().total_ios(), at_stop + spec.queue_depth);
  bed.sim().RunUntil(Milliseconds(40));
  EXPECT_TRUE(bed.sim().idle());
}

TEST(InitiatorSplit, LargeIoSplitsIntoMdtsChunks) {
  sim::Simulator sim;
  fabric::Network net(sim);
  fabric::Target target(sim, net);
  obs::Observability obs;
  target.Attach(obs::Sinks{&obs, nullptr, -1});
  ssd::NullDevice dev(sim, 1ull << 30);
  target.AddPipeline(std::make_unique<baselines::FcfsPolicy>(sim, dev));
  fabric::Initiator init(sim, net, target, 0, 1);
  int completions = 0;
  uint32_t reported_length = 0;
  init.Submit(IoType::kRead, 0, 512 * 1024, IoPriority::kNormal,
              [&](const IoCompletion& cpl, Tick) {
                ++completions;
                reported_length = cpl.length;
              });
  sim.Run();
  EXPECT_EQ(completions, 1);               // one aggregated completion
  EXPECT_EQ(reported_length, 512u * 1024); // full length reported
  // but 4 fabric commands
  EXPECT_EQ(obs.metrics
                .GetCounter(obs::schema::kTargetAdmitted,
                            obs::Labels::TenantSsd(1, 0))
                .value(),
            4u);
}

TEST(InitiatorSplit, UnalignedTailChunk) {
  sim::Simulator sim;
  fabric::Network net(sim);
  fabric::Target target(sim, net);
  obs::Observability obs;
  target.Attach(obs::Sinks{&obs, nullptr, -1});
  ssd::NullDevice dev(sim, 1ull << 30);
  target.AddPipeline(std::make_unique<baselines::FcfsPolicy>(sim, dev));
  fabric::Initiator init(sim, net, target, 0, 1);
  int completions = 0;
  init.Submit(IoType::kWrite, 0, 128 * 1024 + 4096, IoPriority::kNormal,
              [&](const IoCompletion&, Tick) { ++completions; });
  sim.Run();
  EXPECT_EQ(completions, 1);
  const obs::Labels l = obs::Labels::TenantSsd(1, 0);
  EXPECT_EQ(obs.metrics.GetCounter(obs::schema::kTargetAdmitted, l).value(),
            2u);
  EXPECT_EQ(
      obs.metrics.GetCounter(obs::schema::kTargetAdmittedBytes, l).value(),
      128u * 1024 + 4096);
}

TEST(Ycsb, WorkloadMixesMatchSpecs) {
  struct Expect {
    YcsbWorkload wl;
    double reads_lo, reads_hi;
  };
  for (auto [wl, lo, hi] : {Expect{YcsbWorkload::kA, 0.45, 0.55},
                            Expect{YcsbWorkload::kB, 0.92, 0.98},
                            Expect{YcsbWorkload::kC, 1.0, 1.0},
                            Expect{YcsbWorkload::kF, 0.45, 0.55}}) {
    YcsbSpec spec;
    spec.workload = wl;
    spec.record_count = 1000;
    YcsbGenerator gen(spec);
    int reads = 0, total = 20000;
    for (int i = 0; i < total; ++i) {
      if (gen.Next().op == YcsbOp::kRead) ++reads;
    }
    double frac = static_cast<double>(reads) / total;
    EXPECT_GE(frac, lo) << ToString(wl);
    EXPECT_LE(frac, hi) << ToString(wl);
  }
}

TEST(Ycsb, InsertsGrowKeyspace) {
  YcsbSpec spec;
  spec.workload = YcsbWorkload::kD;
  spec.record_count = 1000;
  YcsbGenerator gen(spec);
  uint64_t inserts = 0;
  for (int i = 0; i < 20000; ++i) {
    auto op = gen.Next();
    if (op.op == YcsbOp::kInsert) {
      ++inserts;
      EXPECT_EQ(op.key, gen.record_count() - 1);  // appended at the end
    }
    EXPECT_LT(op.key, gen.record_count());
  }
  EXPECT_GT(inserts, 500u);
  EXPECT_EQ(gen.record_count(), 1000 + inserts);
}

TEST(Ycsb, LatestDistributionFavoursRecentKeys) {
  YcsbSpec spec;
  spec.workload = YcsbWorkload::kD;
  spec.record_count = 10000;
  YcsbGenerator gen(spec);
  uint64_t recent = 0, reads = 0;
  for (int i = 0; i < 30000; ++i) {
    auto op = gen.Next();
    if (op.op != YcsbOp::kRead) continue;
    ++reads;
    if (op.key >= gen.record_count() - gen.record_count() / 10) ++recent;
  }
  // Far more than 10% of reads hit the most recent 10% of keys.
  EXPECT_GT(static_cast<double>(recent) / static_cast<double>(reads), 0.5);
}

// Only D inserts. The Zipf-keyed workloads (A, B, C, F) must never grow
// the keyspace, so their Zipfian key domain stays the loaded record count
// and every key they draw is a loaded one.
TEST(Ycsb, ZipfKeyedWorkloadsKeepTheLoadedKeyspace) {
  for (YcsbWorkload wl : {YcsbWorkload::kA, YcsbWorkload::kB,
                          YcsbWorkload::kC, YcsbWorkload::kF}) {
    SCOPED_TRACE(ToString(wl));
    YcsbSpec spec;
    spec.workload = wl;
    spec.record_count = 1000;
    YcsbGenerator gen(spec);
    uint64_t inserts = 0, out_of_range = 0;
    for (int i = 0; i < 20000; ++i) {
      const YcsbGenerator::Op op = gen.Next();
      inserts += op.op == YcsbOp::kInsert;
      out_of_range += op.key >= spec.record_count;
    }
    EXPECT_EQ(inserts, 0u);
    EXPECT_EQ(out_of_range, 0u);
    EXPECT_EQ(gen.record_count(), spec.record_count);
  }
}

TEST(Ycsb, ZipfianReadsSkewed) {
  YcsbSpec spec;
  spec.workload = YcsbWorkload::kC;
  spec.record_count = 10000;
  YcsbGenerator gen(spec);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[gen.Next().key];
  int max_count = 0;
  for (auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 500);  // hottest key way above uniform (5)
}

// The first 200k ops of every workload, hashed as the generators produced
// them when each ZipfianGenerator summed its own zeta from i = 1. Reusing
// or extending a zeta sum must leave every stream bit-identical. D draws
// its reads from the "latest" generator, which is built once, while its
// inserts grow the range those reads cover. Each stream runs on a new
// thread, so it starts without a kept zeta sum (as a fresh process does)
// whatever the tests before it summed: its second generator reuses the
// first's sum. The hashed third field, 0 for every op, once held a scan
// length; it keeps the recorded hashes.
TEST(Ycsb, OpStreamsArePinned) {
  struct Pin {
    YcsbWorkload wl;
    uint64_t records;
    uint64_t hash;
  };
  const Pin pins[] = {
      {YcsbWorkload::kA, 1000, 12329472138553941407ull},
      {YcsbWorkload::kA, 20000, 6661687489771679249ull},
      {YcsbWorkload::kB, 1000, 15561835772134340347ull},
      {YcsbWorkload::kB, 20000, 14768904533437358625ull},
      {YcsbWorkload::kC, 1000, 4735209111216956149ull},
      {YcsbWorkload::kC, 20000, 4641396763586870975ull},
      {YcsbWorkload::kD, 1000, 13332977449238427742ull},
      {YcsbWorkload::kD, 20000, 7541261449800618480ull},
      {YcsbWorkload::kF, 1000, 3847271538854426731ull},
      {YcsbWorkload::kF, 20000, 1294765807483698665ull},
  };
  for (const Pin& p : pins) {
    SCOPED_TRACE(::testing::Message()
                 << ToString(p.wl) << " records " << p.records);
    uint64_t h = 0xCBF29CE484222325ull;
    uint64_t records_after = 0;
    std::thread([&] {
      YcsbSpec spec;
      spec.workload = p.wl;
      spec.record_count = p.records;
      YcsbGenerator gen(spec);
      auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001B3ull; };
      for (int i = 0; i < 200000; ++i) {
        const YcsbGenerator::Op op = gen.Next();
        mix(static_cast<uint64_t>(op.op));
        mix(op.key);
        mix(0);
      }
      records_after = gen.record_count();
    }).join();
    EXPECT_EQ(h, p.hash);
    if (p.wl == YcsbWorkload::kD) {
      // D's inserts grew the range its "latest" reads cover.
      EXPECT_GT(records_after, p.records + p.records / 4);
    }
  }
}

TEST(Report, TableFormatsNumbers) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::MBps(1048576.0), "1.0");
  EXPECT_EQ(Table::Us(1500.0), "1.5");
}

TEST(Report, TableJsonWritesNumericCellsAsNumbers) {
  Table t("t");
  t.Columns({"a", "b", "c", "d"});
  t.Row({"12", "-3.5", "1e6", "0.000"});
  EXPECT_EQ(t.ToJson(),
            "{\"title\": \"t\", \"columns\": [\"a\", \"b\", \"c\", \"d\"], "
            "\"rows\": [\n      [12, -3.5, 1e6, 0.000]]}");
}

TEST(Report, TableJsonQuotesEveryOtherCell) {
  Table t("t");
  t.Columns({"a"});
  // Not JSON number literals: placeholders, verdicts, units, padded or
  // non-finite values, and a column header that looks numeric.
  for (const char* cell : {"-", "PASS", "12.3x", "nan", "inf", "01", "1.",
                           ".5", "+1", " 1", ""}) {
    t.Row({cell});
  }
  Table h("h");
  h.Columns({"1"});
  EXPECT_EQ(t.ToJson(),
            "{\"title\": \"t\", \"columns\": [\"a\"], \"rows\": [\n"
            "      [\"-\"],\n      [\"PASS\"],\n      [\"12.3x\"],\n"
            "      [\"nan\"],\n      [\"inf\"],\n      [\"01\"],\n"
            "      [\"1.\"],\n      [\".5\"],\n      [\"+1\"],\n"
            "      [\" 1\"],\n      [\"\"]]}");
  EXPECT_EQ(h.ToJson(),
            "{\"title\": \"h\", \"columns\": [\"1\"], \"rows\": []}");
}

TEST(Report, TableJsonEscapesTitleAndCells) {
  Table t("say \"hi\"\\now");
  t.Columns({"q\""});
  t.Row({"a\"b"});
  EXPECT_EQ(t.ToJson(), R"({"title": "say \"hi\"\\now", "columns": ["q\""], )"
                        "\"rows\": [\n      " R"(["a\"b"]]})");
}

TEST(Report, PrintLogRecordsPrintedTables) {
  std::vector<Table> log;
  SetPrintLog(&log);
  Table a("a");
  a.Columns({"x"}).Row({"1"});
  a.Print();
  Table b("b");
  b.Print();
  SetPrintLog(nullptr);
  Table c("c");
  c.Print();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].ToJson(), a.ToJson());
  EXPECT_EQ(log[1].ToJson(), b.ToJson());
}

TEST(SchemeNames, AllDistinct) {
  std::set<std::string> names;
  for (Scheme s : {Scheme::kVanilla, Scheme::kReflex, Scheme::kParda,
                   Scheme::kFlashFq, Scheme::kGimbal}) {
    EXPECT_TRUE(names.insert(ToString(s)).second);
  }
}

// The simulator runs on the calling thread; a config still asking for
// worker threads must fail loudly in every build type, not silently run
// something other than what it asked for.
TEST(TestbedDeathTest, ThreadsOtherThanOneAbort) {
  TestbedConfig cfg;
  cfg.num_ssds = 2;
  cfg.ssd.logical_bytes = 64ull << 20;
  cfg.threads = 2;
  EXPECT_DEATH({ Testbed bed(cfg); }, "threads must be 1");
}

}  // namespace
}  // namespace gimbal::workload
