#include "workload/runner.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace gimbal::workload {

const char* ToString(Scheme s) {
  switch (s) {
    case Scheme::kVanilla: return "vanilla";
    case Scheme::kReflex: return "reflex";
    case Scheme::kParda: return "parda";
    case Scheme::kFlashFq: return "flashfq";
    case Scheme::kGimbal: return "gimbal";
    case Scheme::kTimeslice: return "timeslice";
  }
  return "?";
}

fabric::ThrottleMode ThrottleFor(Scheme s) {
  switch (s) {
    case Scheme::kGimbal: return fabric::ThrottleMode::kCredit;
    case Scheme::kParda: return fabric::ThrottleMode::kParda;
    default: return fabric::ThrottleMode::kNone;
  }
}

Testbed::Testbed(TestbedConfig cfg) : cfg_(cfg) {
  if (cfg_.obs && cfg_.run_label.empty()) cfg_.run_label = ToString(cfg_.scheme);
  if (cfg_.obs) cfg_.obs->metrics.set_run(cfg_.run_label);

  if (cfg_.threads != 1) {
    // The simulator runs on the calling thread; the field stays only so
    // existing configs compile. Checked in every build type.
    std::fprintf(stderr,
                 "Testbed: TestbedConfig::threads=%d is not supported; the "
                 "simulator is single-threaded (threads must be 1)\n",
                 cfg_.threads);
    std::abort();
  }
  assert(cfg_.nodes >= 1);
  assert(cfg_.num_ssds % cfg_.nodes == 0 &&
         "num_ssds must divide evenly across nodes");
  ssds_per_node_ = cfg_.num_ssds / cfg_.nodes;

  if (cfg_.check) {
    check_ = cfg_.check;
  } else {
    owned_check_ = std::make_unique<check::InvariantChecker>();
    check_ = owned_check_.get();
  }
  check_->AttachSim(&sim_);
  if (cfg_.obs) check_->AttachTracer(&cfg_.obs->tracer);

  net_ = std::make_unique<fabric::Network>(sim_, cfg_.net);
  faults_ = std::make_unique<fault::FaultInjector>(sim_, cfg_.num_ssds,
                                                   cfg_.fault_seed);
  if (cfg_.nodes > 1) {
    // Rack fabric: every message crosses the shared ToR uplink and its
    // node's access link; whole-node failures black the node out at the
    // fabric and fail its SSDs atomically via the injector's node map.
    std::vector<int> node_map(static_cast<size_t>(cfg_.num_ssds));
    for (int i = 0; i < cfg_.num_ssds; ++i) node_map[i] = node_of(i);
    net_->ConfigureRack(node_map, cfg_.nodes);
    net_->AttachChecker(check_);
    faults_->ConfigureNodes(std::move(node_map));
    for (const fault::NodeFailure& nf : cfg_.faults.node_failures) {
      net_->AddNodeOutage(nf.node, nf.fail_at, nf.recover_at);
    }
  }
  faults_->AttachObservability(cfg_.obs);
  const bool faulted = !cfg_.faults.empty();
  if (!cfg_.faults.link_flaps.empty()) net_->set_fault_injector(faults_.get());
  faults_->AttachChecker(check_);

  // One Target per node; node n hands out global pipeline ids starting at
  // its base, so pipeline/SSD/tenant addressing stays flat rack-wide.
  for (int n = 0; n < cfg_.nodes; ++n) {
    auto target = std::make_unique<fabric::Target>(sim_, *net_, cfg_.target);
    target->SetPipelineBase(n * ssds_per_node_);
    // Attach before AddPipeline so policies resolve handles as they appear.
    target->AttachObservability(cfg_.obs);
    target->AttachChecker(check_);
    targets_.push_back(std::move(target));
  }
  for (int i = 0; i < cfg_.num_ssds; ++i) {
    if (cfg_.use_null_device) {
      devices_.push_back(std::make_unique<ssd::NullDevice>(sim_));
      ssds_.push_back(nullptr);
    } else {
      auto dev = std::make_unique<ssd::Ssd>(sim_, cfg_.ssd);
      if (cfg_.condition == SsdCondition::kClean) {
        dev->PreconditionClean();
      } else {
        dev->PreconditionFragmented(3.0, /*seed=*/42 + i);
      }
      ssds_.push_back(dev.get());
      devices_.push_back(std::move(dev));
    }
    if (faulted) {
      // Interpose the fault layer between the policy and the device model;
      // ssd(i) still exposes the inner model for preconditioning/stats.
      devices_[i] = std::make_unique<fault::FaultyDevice>(
          sim_, std::move(devices_[i]), *faults_, i);
    }
    if (cfg_.obs) devices_.back()->AttachObservability(cfg_.obs, i);
    int id = target_of(i).AddPipeline(MakePolicy(*devices_.back()));
    assert(id == i);
    (void)id;
    // Health transitions reach the pipeline's policy (fail-fast drain on
    // kFailed, EWMA reset on recovery — core/gimbal_switch.cc).
    core::IoPolicy* policy = &target_of(i).policy(i);
    faults_->Subscribe(i, [policy](fault::SsdHealth h) {
      policy->OnSsdHealthChange(h);
    });
  }
  if (faulted) faults_->Schedule(cfg_.faults);
}

Testbed::~Testbed() { FlushObservability(); }

void Testbed::FlushObservability() {
  if (!cfg_.obs || !net_->rack()) return;
  namespace schema = obs::schema;
  obs::MetricsRegistry& reg = cfg_.obs->metrics;
  reg.GetGauge(schema::kRackUplinkBytes)
      .Set(static_cast<double>(net_->uplink_bytes()));
  for (int n = 0; n < net_->nodes(); ++n) {
    reg.GetGauge(schema::kRackNodeUplinkBytes, obs::Labels::Ssd(n))
        .Set(static_cast<double>(net_->node_uplink_bytes(n)));
  }
  reg.GetGauge(schema::kRackNodeDrops)
      .Set(static_cast<double>(net_->node_drops()));
}

std::unique_ptr<core::IoPolicy> Testbed::MakePolicy(ssd::BlockDevice& dev) {
  switch (cfg_.scheme) {
    case Scheme::kVanilla:
      return std::make_unique<baselines::FcfsPolicy>(sim_, dev);
    case Scheme::kReflex:
      return std::make_unique<baselines::ReflexPolicy>(sim_, dev, cfg_.reflex);
    case Scheme::kParda:
      return std::make_unique<baselines::PardaPolicy>(sim_, dev);
    case Scheme::kFlashFq:
      return std::make_unique<baselines::FlashFqPolicy>(sim_, dev,
                                                        cfg_.flashfq);
    case Scheme::kGimbal:
      return std::make_unique<core::GimbalSwitch>(sim_, dev, cfg_.gimbal);
    case Scheme::kTimeslice:
      return std::make_unique<baselines::TimeslicePolicy>(sim_, dev,
                                                          cfg_.timeslice);
  }
  return nullptr;
}

core::GimbalSwitch* Testbed::gimbal_switch(int i) {
  return cfg_.scheme == Scheme::kGimbal
             ? static_cast<core::GimbalSwitch*>(&target_of(i).policy(i))
             : nullptr;
}

std::unique_ptr<fabric::Initiator> Testbed::MakeInitiator(
    int ssd_index, TenantId tenant, fabric::ConnectMode connect,
    std::optional<fabric::ThrottleMode> throttle) {
  auto init = std::make_unique<fabric::Initiator>(
      sim_, *net_, target_of(ssd_index), ssd_index, tenant,
      throttle.value_or(ThrottleFor(cfg_.scheme)), cfg_.parda, cfg_.retry,
      connect);
  init->AttachObservability(cfg_.obs);
  init->AttachChecker(check_);
  return init;
}

fabric::Initiator& Testbed::AddInitiator(
    int ssd_index, std::optional<fabric::ThrottleMode> throttle) {
  initiators_.push_back(MakeInitiator(ssd_index, next_tenant_++,
                                      fabric::ConnectMode::kDirect,
                                      throttle));
  return *initiators_.back();
}

FioWorker& Testbed::AddWorker(FioSpec spec, int ssd_index) {
  if (spec.region_bytes == 0) {
    spec.region_bytes = device(ssd_index).capacity_bytes();
  }
  fabric::Initiator& init = AddInitiator(ssd_index);
  workers_.push_back(std::make_unique<FioWorker>(sim_, init, spec));
  return *workers_.back();
}

void Testbed::Run(Tick warmup, Tick measure) {
  for (auto& w : workers_) w->Start();
  sim_.RunUntil(sim_.now() + warmup);
  for (auto& w : workers_) w->stats().Reset();
  // Align metric totals with the workers' measurement window (gauges and
  // latency EWMAs keep their warmed-up values; counters/histograms restart).
  if (cfg_.obs) cfg_.obs->metrics.ResetRun(cfg_.run_label);
  sim_.RunUntil(sim_.now() + measure);
  measured_ = measure;
}

double StandaloneBandwidth(const TestbedConfig& cfg, const FioSpec& spec,
                           Tick warmup, Tick measure, int workers) {
  // The denominator of f-Util is what the workload could achieve running
  // exclusively on the *device* — measured through the unmodified target
  // so a scheme's own throttling (e.g. ReFlex's static token cap) cannot
  // flatter its fairness number.
  TestbedConfig standalone_cfg = cfg;
  standalone_cfg.scheme = Scheme::kVanilla;
  // Standalone runs are denominators, not results: keep them out of the
  // caller's metrics/trace output.
  standalone_cfg.obs = nullptr;
  standalone_cfg.run_label.clear();
  Testbed bed(standalone_cfg);
  for (int i = 0; i < workers; ++i) {
    FioSpec s = spec;
    s.seed = spec.seed + static_cast<uint64_t>(i) * 7919 + 1;
    bed.AddWorker(s, 0);
  }
  bed.Run(warmup, measure);
  uint64_t bytes = 0;
  for (auto& w : bed.workers()) bytes += w->stats().total_bytes();
  return RateBps(bytes, measure);
}

}  // namespace gimbal::workload
