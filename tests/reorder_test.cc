// Device completions that return out of submission order. NVMe queues
// promise no completion order, so a policy must match each completion to
// its own request: the tenant, id, length and status it reports, and (for
// Gimbal) the virtual slot the IO was charged to.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "baselines/fcfs_policy.h"
#include "check/invariants.h"
#include "core/gimbal_switch.h"
#include "ssd/block_device.h"

namespace gimbal {
namespace {

constexpr int kSsd = 0;
constexpr int kTenants = 3;
constexpr uint64_t kRequests = 240;
constexpr uint64_t kStride = 65536;  // request id <-> offset, one per id

// The device fails every seventh command with a media error, so a
// completion handed to the wrong request shows in its status too.
bool FailsAtDevice(uint64_t id) { return id % 7 == 0; }

IoRequest Req(uint64_t id) {
  IoRequest r;
  r.id = id;
  r.tenant = static_cast<TenantId>(id % kTenants) + 1;
  r.type = id % 2 ? IoType::kRead : IoType::kWrite;
  r.offset = id * kStride;
  r.length = 4096 * static_cast<uint32_t>(1 + id % 4);
  return r;
}

// Holds every command until Flush(), then completes the held batch newest
// first. Commands submitted by those completions (a self-clocked policy
// re-pumps) wait for the next Flush().
class ReversingDevice : public ssd::BlockDevice {
 public:
  explicit ReversingDevice(sim::Simulator& sim) : sim_(sim) {}

  void Submit(const ssd::DeviceIo& io, CompletionFn done) override {
    held_.push_back(Held{io, sim_.now(), std::move(done)});
  }

  // Completes the held batch in reverse order; returns how many completed.
  size_t Flush() {
    std::vector<Held> batch;
    batch.swap(held_);
    for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
      ssd::DeviceCompletion cpl;
      cpl.type = it->io.type;
      cpl.length = it->io.length;
      cpl.status = FailsAtDevice(it->io.offset / kStride)
                       ? IoStatus::kMediaError
                       : IoStatus::kOk;
      cpl.submit_time = it->submit_time;
      cpl.complete_time = sim_.now();
      completing_ = it->io;
      it->done(cpl);
    }
    return batch.size();
  }

  // The command whose completion callback is running.
  const ssd::DeviceIo& completing() const { return completing_; }

  uint64_t capacity_bytes() const override { return 1ull << 30; }

 private:
  struct Held {
    ssd::DeviceIo io;
    Tick submit_time = 0;
    CompletionFn done;
  };
  sim::Simulator& sim_;
  std::vector<Held> held_;
  ssd::DeviceIo completing_;
};

// Feeds kRequests distinct requests to `policy` (each admitted at the
// checker as the target would), completes everything the device holds in
// reverse until nothing is left, and checks each completion against the
// request it answers and the device command that completed. Both policies
// deliver from inside the device's callback. Returns the completion order
// by request id.
std::vector<uint64_t> RunReversed(sim::Simulator& sim, ReversingDevice& dev,
                                  core::IoPolicy& policy,
                                  check::InvariantChecker& chk) {
  std::map<uint64_t, IoRequest> sent;
  std::vector<uint64_t> order;
  policy.set_completion_fn([&](const IoRequest& req, const IoCompletion& cpl) {
    auto it = sent.find(cpl.id);
    ASSERT_NE(it, sent.end()) << "completion for unknown id " << cpl.id;
    const IoRequest& want = it->second;
    EXPECT_EQ(req.id, want.id);
    EXPECT_EQ(dev.completing().offset, want.offset)
        << "id " << cpl.id << " got another command's completion";
    EXPECT_EQ(cpl.tenant, want.tenant) << "id " << cpl.id;
    EXPECT_EQ(cpl.length, want.length) << "id " << cpl.id;
    EXPECT_EQ(cpl.type, want.type) << "id " << cpl.id;
    EXPECT_EQ(cpl.ok(), !FailsAtDevice(want.id)) << "id " << cpl.id;
    sent.erase(it);
    order.push_back(cpl.id);
  });
  for (uint64_t id = 1; id <= kRequests; ++id) {
    const IoRequest r = Req(id);
    sent.emplace(id, r);
    chk.OnTargetAdmit(r.tenant, kSsd);
    policy.OnRequest(r);
  }
  // Pacing pokes run on the simulator; completions run from Flush().
  for (int rounds = 0; rounds < 100000; ++rounds) {
    sim.Run();
    if (dev.Flush() == 0 && sim.pending_events() == 0) break;
  }
  EXPECT_TRUE(sent.empty()) << sent.size() << " requests never completed";
  return order;
}

void ExpectLedgersDrain(check::InvariantChecker& chk) {
  EXPECT_TRUE(chk.CheckDrained());
  for (int t = 1; t <= kTenants; ++t) {
    chk.OnTargetSessionClosed(static_cast<TenantId>(t), kSsd);
  }
  EXPECT_EQ(chk.live_ledgers().policy, 0u);
  EXPECT_TRUE(chk.ok()) << chk.violations().front().invariant << ": "
                        << chk.violations().front().detail;
}

TEST(DeviceReorder, FcfsMatchesEachCompletionToItsRequest) {
  sim::Simulator sim;
  ReversingDevice dev(sim);
  baselines::FcfsPolicy policy(sim, dev);
  check::InvariantChecker chk(/*fail_fast=*/false);
  policy.Attach(obs::Sinks{nullptr, &chk, kSsd});
  const std::vector<uint64_t> order = RunReversed(sim, dev, policy, chk);
  ASSERT_EQ(order.size(), kRequests);
  // FCFS hands everything to the device at once, so the one batch comes
  // back exactly reversed.
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], kRequests - i);
  }
  ExpectLedgersDrain(chk);
}

TEST(DeviceReorder, GimbalReturnsEachCompletionToItsSlot) {
  sim::Simulator sim;
  ReversingDevice dev(sim);
  core::GimbalSwitch sw(sim, dev);
  check::InvariantChecker chk(/*fail_fast=*/false);
  sw.Attach(obs::Sinks{nullptr, &chk, kSsd});
  const std::vector<uint64_t> order = RunReversed(sim, dev, sw, chk);
  ASSERT_EQ(order.size(), kRequests);
  // Some completion overtook an earlier submission.
  size_t inversions = 0;
  for (size_t i = 1; i < order.size(); ++i) {
    inversions += order[i] < order[i - 1] ? 1 : 0;
  }
  EXPECT_GT(inversions, 0u);
  // Every slot charged to an IO was credited back by that IO's completion.
  for (int t = 1; t <= kTenants; ++t) {
    const core::TenantState* ts =
        sw.scheduler().FindTenant(static_cast<TenantId>(t));
    ASSERT_NE(ts, nullptr) << "tenant " << t;
    EXPECT_EQ(ts->SlotsInUse(), 0u) << "tenant " << t;
    EXPECT_EQ(ts->queued(), 0u) << "tenant " << t;
  }
  ExpectLedgersDrain(chk);
}

}  // namespace
}  // namespace gimbal
