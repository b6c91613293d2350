// Tests for the flag parser of gimbal_figs, the figure runner
// (bench::ObsSession in bench/bench_util.h): malformed --fault-* values are
// rejected and the figure's default kept, and a figure only accepts the
// fault knobs it gives a default.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util.h"

namespace gimbal::bench {
namespace {

// Runs a session over `flags` and returns the knobs it parsed.
FaultKnobs Parse(const std::vector<std::string>& flags, FaultKnobs k = {}) {
  ObsSession session("fig_kv_faults", flags, &k);
  return k;
}

TEST(BenchFlags, WellFormedFaultValuesParse) {
  const FaultKnobs k = Parse({"--fault-media-p=0.5", "--fault-seed=42"});
  EXPECT_DOUBLE_EQ(k.media_p, 0.5);
  EXPECT_EQ(k.seed, 42u);
}

TEST(BenchFlags, MalformedFaultValuesKeepDefaults) {
  for (const char* bad : {"abc", "", "0.5x", "-0.1", "1.5", "nan", "inf"}) {
    EXPECT_DOUBLE_EQ(Parse({std::string("--fault-media-p=") + bad}).media_p,
                     0.2)
        << bad;
  }
  // A negative seed used to be a float-to-integer overflow.
  for (const char* bad : {"-1", "1.5", "x", "", "+3", "1e3",
                          "18446744073709551616"}) {
    EXPECT_EQ(Parse({std::string("--fault-seed=") + bad}).seed, 1u) << bad;
  }
}

TEST(BenchFlags, StallAndLinkKnobsOnlyWhereDefaulted) {
  const FaultKnobs plain =
      Parse({"--fault-stall-ms=5", "--fault-link-drop=0.5"});
  EXPECT_FALSE(plain.stall_ms.has_value());
  EXPECT_FALSE(plain.link_drop.has_value());

  FaultKnobs defaults;
  defaults.stall_ms = 2.0;
  defaults.link_drop = 0.01;
  const FaultKnobs k = Parse(
      {"--fault-stall-ms=5", "--fault-link-drop=0.5"}, defaults);
  EXPECT_DOUBLE_EQ(*k.stall_ms, 5.0);
  EXPECT_DOUBLE_EQ(*k.link_drop, 0.5);
  const FaultKnobs bad = Parse(
      {"--fault-stall-ms=-1", "--fault-link-drop=2"}, defaults);
  EXPECT_DOUBLE_EQ(*bad.stall_ms, 2.0);
  EXPECT_DOUBLE_EQ(*bad.link_drop, 0.01);
}

}  // namespace
}  // namespace gimbal::bench
