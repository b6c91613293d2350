// Experiment harness: wires a complete disaggregated-storage testbed —
// simulator, network, target node, SSDs (conditioned clean/fragmented),
// one IoPolicy per SSD for the chosen scheme, initiators and fio workers —
// mirroring the §5.1 methodology so each bench stays a thin declaration of
// its workload matrix. Every component of a testbed runs on one
// sim::Simulator (docs/SIMULATOR.md).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/fcfs_policy.h"
#include "baselines/flashfq_policy.h"
#include "baselines/parda_policy.h"
#include "baselines/reflex_policy.h"
#include "baselines/timeslice_policy.h"
#include "check/invariants.h"
#include "core/gimbal_switch.h"
#include "fabric/initiator.h"
#include "fabric/network.h"
#include "fabric/target.h"
#include "fault/fault.h"
#include "fault/faulty_device.h"
#include "obs/obs.h"
#include "sim/shard.h"
#include "sim/simulator.h"
#include "ssd/null_device.h"
#include "ssd/ssd.h"
#include "workload/fio.h"

namespace gimbal::workload {

// The four comparison schemes of §5.1 plus the unmodified target.
enum class Scheme { kVanilla, kReflex, kParda, kFlashFq, kGimbal, kTimeslice };

const char* ToString(Scheme s);
fabric::ThrottleMode ThrottleFor(Scheme s);
inline const Scheme kAllSchemes[] = {Scheme::kReflex, Scheme::kFlashFq,
                                     Scheme::kParda, Scheme::kGimbal};

enum class SsdCondition { kClean, kFragmented };

struct TestbedConfig {
  int num_ssds = 1;
  // --- Rack topology (docs/SIMULATOR.md) -----------------------------------
  // Target nodes behind a shared ToR uplink. 1 — the default — is the
  // single-JBOF testbed, event-for-event identical to the pre-rack code.
  // With nodes > 1, num_ssds must divide evenly: SSD i lives on node
  // i / (num_ssds / nodes), each node gets its own Target (cfg.target.cores
  // are per node), fabric messages serialize on the shared uplink and the
  // node's access link, and replica placement / whole-node faults become
  // node-aware. The shared uplink runs at net.bandwidth_bps.
  int nodes = 1;
  ssd::SsdConfig ssd = {};
  SsdCondition condition = SsdCondition::kClean;
  fabric::TargetConfig target = fabric::TargetConfig::SmartNicLike();
  fabric::NetworkConfig net = {};
  Scheme scheme = Scheme::kGimbal;
  core::GimbalParams gimbal = {};
  baselines::ReflexParams reflex = {};
  baselines::PardaParams parda = {};
  baselines::FlashFqParams flashfq = {};
  baselines::TimesliceParams timeslice = {};
  bool use_null_device = false;  // Table 1b's NULL bdev mode

  // Must be 1: the simulator runs on the calling thread, and the Testbed
  // aborts on any other value. Kept only so existing configs that set it
  // compile.
  int threads = 1;

  // Fault injection (docs/FAULTS.md). A non-empty plan wraps every SSD in
  // a FaultyDevice, routes fabric messages through the injector when link
  // flaps are scheduled, and drives each pipeline's policy with its SSD's
  // health transitions. `retry` configures the initiators' client-side
  // fault tolerance; `target.session_timeout` the crash reaper. All
  // default off: a fault-free testbed is event-for-event identical to one
  // built before this subsystem existed.
  fault::FaultPlan faults = {};
  uint64_t fault_seed = 1;
  fabric::RetryParams retry = {};

  // Optional metrics/trace sinks (see docs/OBSERVABILITY.md). When set, the
  // testbed attaches them to the target, every policy and every SSD, and
  // labels everything it emits with `run_label` (defaults to the scheme
  // name). Run(warmup, ...) resets this run's counters at the end of
  // warmup so metric totals cover exactly the measurement window.
  obs::Observability* obs = nullptr;
  std::string run_label;

  // Online invariant checker (docs/TESTING.md). When null the testbed owns
  // a fail-fast checker of its own, so every testbed — in tests and quick
  // figure runs alike — is verified at every transition. Pass an external
  // checker to inspect violations without aborting (fail_fast=false).
  check::InvariantChecker* check = nullptr;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig cfg);
  ~Testbed();
  // Every component holds a reference to sim_.
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // The simulator every component of the testbed runs on.
  sim::Simulator& sim() { return sim_; }
  // Always null: every testbed runs on sim(). Kept because
  // perfbench/perfbench.cc still reads it.
  sim::ShardedEngine* engine() { return nullptr; }
  fabric::Network& net() { return *net_; }
  // Node 0's target (the whole testbed on a single-node bed).
  fabric::Target& target() { return *targets_[0]; }
  // The target node that owns pipeline/SSD `ssd` (global index).
  fabric::Target& target_of(int ssd) {
    return *targets_[static_cast<size_t>(node_of(ssd))];
  }
  int nodes() const { return cfg_.nodes; }
  int node_of(int ssd) const { return ssd / ssds_per_node_; }
  ssd::BlockDevice& device(int i) { return *devices_[i]; }
  // The full SSD model behind pipeline i (nullptr in NULL-device mode).
  ssd::Ssd* ssd(int i) { return ssds_[i]; }
  core::IoPolicy& policy(int i) { return target_of(i).policy(i); }
  // The Gimbal switch behind pipeline i, or nullptr for other schemes.
  core::GimbalSwitch* gimbal_switch(int i);
  // The fault injector driving this testbed (always present; inert when
  // the plan is empty and no crash is scheduled).
  fault::FaultInjector& faults() { return *faults_; }
  // The invariant checker attached to this testbed (config-supplied or the
  // testbed's own fail-fast instance).
  check::InvariantChecker& checker() { return *check_; }
  const TestbedConfig& config() const { return cfg_; }
  // What the testbed attaches every component it builds to: cfg.obs and
  // checker(), labelled `label`. Components built on top of the testbed
  // (KV instances) attach through it too.
  obs::Sinks sinks(int32_t label = -1) const {
    return obs::Sinks{cfg_.obs, check_, label};
  }

  // Overwrite the rack.* gauges in cfg.obs from the Network's totals (rack
  // mode + observed only; gauges, so repeated publishes are idempotent).
  // Call before reading them mid-run; teardown publishes them too.
  void FlushObservability();

  // Create a new tenant attached to SSD `ssd_index`; throttle mode follows
  // the scheme (credits for Gimbal, latency window for Parda) unless
  // overridden (the Fig 13 vanilla/+FC ablation disables the credit
  // throttle while keeping the Gimbal switch at the target).
  fabric::Initiator& AddInitiator(
      int ssd_index,
      std::optional<fabric::ThrottleMode> throttle = std::nullopt);

  // Allocate a fresh tenant id (monotonic, never recycled: a churned
  // session's id stays unique so ledgers, traces and late completions are
  // never ambiguous between two lives of one slot).
  TenantId AllocateTenantId() { return next_tenant_++; }

  // Construct a fully-attached initiator owned by the *caller*. The
  // open-loop fleet churns thousands of short-lived sessions and destroys
  // each after drain; parking them in the testbed's own vector would grow
  // it without bound. kCapsule connect orders mid-run bring-up:
  // registration rides the fabric in FIFO order ahead of the commands.
  std::unique_ptr<fabric::Initiator> MakeInitiator(
      int ssd_index, TenantId tenant, fabric::ConnectMode connect,
      std::optional<fabric::ThrottleMode> throttle = std::nullopt);

  // Convenience: new tenant + fio worker on it. An unset region defaults
  // to the whole device.
  FioWorker& AddWorker(FioSpec spec, int ssd_index = 0);

  std::vector<std::unique_ptr<FioWorker>>& workers() { return workers_; }
  std::vector<std::unique_ptr<fabric::Initiator>>& initiators() {
    return initiators_;
  }

  // Start every worker, warm up, reset stats, then run the measurement
  // window. Reported stats cover only the measurement window.
  void Run(Tick warmup, Tick measure);

  Tick measured() const { return measured_; }

 private:
  std::unique_ptr<core::IoPolicy> MakePolicy(ssd::BlockDevice& dev);

  TestbedConfig cfg_;
  // Destruction order matters, bottom-up at the `}`: components hold
  // references into the simulator, so it is declared first (destroyed
  // last), and the checker before everything it observes.
  sim::Simulator sim_;
  int ssds_per_node_ = 1;  // num_ssds / nodes
  // Owned checker when cfg.check is null; declared before the components
  // it observes so it outlives their destructors.
  std::unique_ptr<check::InvariantChecker> owned_check_;
  check::InvariantChecker* check_ = nullptr;
  std::unique_ptr<fabric::Network> net_;
  std::unique_ptr<fault::FaultInjector> faults_;
  // One target per node (a single entry on the classic single-node bed);
  // node n's target hands out global pipeline ids via its pipeline base.
  std::vector<std::unique_ptr<fabric::Target>> targets_;
  std::vector<std::unique_ptr<ssd::BlockDevice>> devices_;
  std::vector<ssd::Ssd*> ssds_;
  std::vector<std::unique_ptr<fabric::Initiator>> initiators_;
  std::vector<std::unique_ptr<FioWorker>> workers_;
  TenantId next_tenant_ = 1;
  Tick measured_ = 0;
};

// Aggregate bandwidth (bytes/sec) the workload class achieves when it has
// the SSD to itself — the paper's "standalone benchmark" (§5.2 runs 16
// workers of the same shape) and the denominator of the f-Util metric.
// `workers` instances of `spec` run on a fresh testbed.
double StandaloneBandwidth(const TestbedConfig& cfg, const FioSpec& spec,
                           Tick warmup = Milliseconds(300),
                           Tick measure = Milliseconds(500),
                           int workers = 16);

// f-Util (§5.1): per-worker bandwidth over its fair share of standalone.
inline double FUtil(double worker_bps, double standalone_bps, int workers) {
  if (standalone_bps <= 0) return 0;
  return worker_bps / (standalone_bps / workers);
}

}  // namespace gimbal::workload
