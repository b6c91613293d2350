#include "workload/runner.h"

#include <algorithm>
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

int Testbed::ShardOf(int i) const {
  const int node = i / ssds_per_node_;
  return 1 + node * used_cores_ + (i % ssds_per_node_) % used_cores_;
}

sim::Simulator& Testbed::SsdSim(int i) {
  if (!engine_) return *sim_;
  return engine_->shard(ShardOf(i));
}

obs::Observability* Testbed::SsdObs(int i) {
  if (shard_obs_.empty()) return cfg_.obs;
  return shard_obs_[static_cast<size_t>(ShardOf(i))].get();
}

Testbed::Testbed(TestbedConfig cfg) : cfg_(cfg) {
  if (cfg_.obs && cfg_.run_label.empty()) cfg_.run_label = ToString(cfg_.scheme);
  if (cfg_.obs) cfg_.obs->metrics.set_run(cfg_.run_label);

  if (cfg_.threads != 1) {
    // The engine runs every shard on the calling thread; the field stays
    // only so existing configs compile. Checked in every build type.
    std::fprintf(stderr,
                 "Testbed: TestbedConfig::threads=%d is not supported; the "
                 "sharded engine is single-threaded (threads must be 1)\n",
                 cfg_.threads);
    std::abort();
  }
  assert(cfg_.nodes >= 1);
  assert(cfg_.num_ssds % cfg_.nodes == 0 &&
         "num_ssds must divide evenly across nodes");
  ssds_per_node_ = cfg_.num_ssds / cfg_.nodes;

  // A multi-SSD testbed runs on the sharded engine, whose epoch schedule
  // is the canonical event order the goldens pin. A single-SSD testbed (or
  // a zero-latency fabric, which admits no lookahead) keeps the original
  // single-simulator path unchanged.
  const bool sharded = cfg_.num_ssds > 1 && cfg_.net.base_latency > 0;
  if (sharded) {
    // (node, core) topology: one shard per used core per node.
    used_cores_ = std::min(cfg_.target.cores, ssds_per_node_);
    sim::ShardedEngine::Config ec;
    ec.lookahead = cfg_.net.base_latency;
    engine_ =
        std::make_unique<sim::ShardedEngine>(1 + cfg_.nodes * used_cores_, ec);
    sim_ = &engine_->shard(0);
    if (cfg_.obs) {
      shard_obs_.resize(static_cast<size_t>(engine_->num_shards()));
      for (auto& o : shard_obs_) {
        o = std::make_unique<obs::Observability>();
        o->metrics.set_run(cfg_.run_label);
      }
    }
    engine_->set_barrier_fn([this]() { OnEpochBarrier(); });
    // Trace stitching is deferred off the barrier path: it runs once per
    // Run()/RunToIdle, after the final barrier, so callers that read the
    // session tracer right after sim().Run() still see a complete trace.
    engine_->set_run_end_fn([this]() { MergeShardTracers(); });
  } else {
    owned_sim_ = std::make_unique<sim::Simulator>();
    sim_ = owned_sim_.get();
  }

  if (cfg_.check) {
    check_ = cfg_.check;
  } else {
    owned_check_ = std::make_unique<check::InvariantChecker>();
    check_ = owned_check_.get();
  }
  check_->AttachSim(sim_);
  if (cfg_.obs) check_->AttachTracer(&cfg_.obs->tracer);

  net_ = std::make_unique<fabric::Network>(*sim_, cfg_.net);
  faults_ = std::make_unique<fault::FaultInjector>(*sim_, cfg_.num_ssds,
                                                   cfg_.fault_seed);
  if (cfg_.nodes > 1) {
    // Rack fabric: every message crosses the shared ToR uplink and its
    // node's access link; whole-node failures black the node out at the
    // fabric and fail its SSDs atomically via the injector's node map.
    std::vector<int> node_map(static_cast<size_t>(cfg_.num_ssds));
    for (int i = 0; i < cfg_.num_ssds; ++i) node_map[i] = node_of(i);
    net_->ConfigureRack(node_map, cfg_.nodes,
                        cfg_.uplink_bps > 0 ? cfg_.uplink_bps
                                            : cfg_.net.bandwidth_bps);
    net_->AttachChecker(check_);
    faults_->ConfigureNodes(std::move(node_map));
    for (const fault::NodeFailure& nf : cfg_.faults.node_failures) {
      net_->AddNodeOutage(nf.node, nf.fail_at, nf.recover_at);
    }
  }
  if (engine_) {
    std::vector<sim::Simulator*> ssd_sims(static_cast<size_t>(cfg_.num_ssds));
    std::vector<obs::Observability*> ssd_obs(static_cast<size_t>(cfg_.num_ssds));
    for (int i = 0; i < cfg_.num_ssds; ++i) {
      ssd_sims[i] = &SsdSim(i);
      ssd_obs[i] = shard_obs_.empty() ? nullptr : SsdObs(i);
    }
    net_->ConfigureSharded(sim_, ssd_sims, engine_->num_shards());
    faults_->ConfigureShards(ssd_sims, ssd_obs);
  }
  // Client-side components record into shard 0's private observability
  // under sharding, so their events merge into the session tracer in
  // timestamp order with everything else.
  obs::Observability* client_obs =
      shard_obs_.empty() ? cfg_.obs : shard_obs_[0].get();
  faults_->AttachObservability(client_obs);
  const bool faulted = !cfg_.faults.empty();
  if (!cfg_.faults.link_flaps.empty()) net_->set_fault_injector(faults_.get());
  faults_->AttachChecker(check_);

  // One Target per node; node n hands out global pipeline ids starting at
  // its base, so pipeline/SSD/tenant addressing stays flat rack-wide.
  for (int n = 0; n < cfg_.nodes; ++n) {
    auto target = std::make_unique<fabric::Target>(*sim_, *net_, cfg_.target);
    target->SetPipelineBase(n * ssds_per_node_);
    if (engine_) {
      std::vector<sim::Simulator*> core_sims(
          static_cast<size_t>(cfg_.target.cores), sim_);
      for (int c = 0; c < used_cores_; ++c) {
        core_sims[c] = &engine_->shard(1 + n * used_cores_ + c);
      }
      target->ConfigureShards(core_sims);
    }
    // Attach before AddPipeline so policies resolve handles as they appear.
    target->AttachObservability(cfg_.obs);
    target->AttachChecker(check_);
    targets_.push_back(std::move(target));
  }
  for (int i = 0; i < cfg_.num_ssds; ++i) {
    sim::Simulator& psim = SsdSim(i);
    if (cfg_.use_null_device) {
      devices_.push_back(std::make_unique<ssd::NullDevice>(psim));
      ssds_.push_back(nullptr);
    } else {
      auto dev = std::make_unique<ssd::Ssd>(psim, cfg_.ssd);
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
          psim, std::move(devices_[i]), *faults_, i);
    }
    if (cfg_.obs) devices_.back()->AttachObservability(SsdObs(i), i);
    int id = target_of(i).AddPipeline(MakePolicy(psim, *devices_.back()),
                                      shard_obs_.empty() ? nullptr : SsdObs(i));
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

Testbed::~Testbed() {
  // Shard tracers merge at the end of every engine run; metrics drain here
  // (and at the end of every Run), while everything is still alive and
  // quiescent.
  PublishRackMetrics();
  MergeShardTracers();
  FlushShardMetrics();
}

void Testbed::PublishRackMetrics() {
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

void Testbed::OnEpochBarrier() {
  // The barrier is the engine's per-epoch constant factor: only the work
  // that *must* happen while all shards are quiescent lives here. Trace
  // stitching and metric merging are deferred to the end of the run; the
  // barrier just records where each batch ends.
  PropagateTracerEnable();
  RecordTraceMarks();
  net_->ReplayPending();
}

void Testbed::RecordTraceMarks() {
  if (!tracers_live_) return;
  size_t total = 0;
  for (auto& o : shard_obs_) total += o->tracer.size();
  // Buffer sizes only grow between merges, so an unchanged total means an
  // empty batch: it would stitch to nothing, and skipping it keeps the
  // mark log proportional to the trace, not to the barrier count. (The
  // session mark can be skipped along with it: session-direct events
  // recorded across skipped barriers sit before the next *recorded*
  // batch, which is where the inline stitch left them too.)
  if (total == last_mark_total_) return;
  last_mark_total_ = total;
  trace_marks_.push_back(cfg_.obs->tracer.size());
  for (auto& o : shard_obs_) trace_marks_.push_back(o->tracer.size());
}

void Testbed::PropagateTracerEnable() {
  if (tracers_live_ || !cfg_.obs || shard_obs_.empty()) return;
  obs::EventTracer& session = cfg_.obs->tracer;
  if (!session.enabled()) return;
  // Session tracer enabled after construction: bring the shard tracers up
  // now; events before this point are lost exactly as they would be with a
  // late Enable() in plain mode. Latched so steady-state barriers pay one
  // boolean test.
  for (auto& o : shard_obs_) {
    if (!o->tracer.enabled()) o->tracer.Enable(session.limit());
  }
  tracers_live_ = true;
}

void Testbed::MergeShardTracers() {
  if (!cfg_.obs || shard_obs_.empty()) return;
  obs::EventTracer& session = cfg_.obs->tracer;
  if (!session.enabled()) return;
  PropagateTracerEnable();
  // Replay of the per-barrier stitch the engine used to do inline: every
  // mark row recorded by OnEpochBarrier delimits one barrier's batch — the
  // events each shard recorded since the previous row. A batch is
  // concatenated in shard order and stable-sorted by timestamp, the same
  // canonical (ts, shard) order the inline stitch appended at that
  // barrier, so deferring the sorts and appends to the end of the run
  // changes when the work happens, not the resulting byte stream. Span
  // events make this batch structure load-bearing: a span is recorded at
  // completion but carries its start as `ts`, so a single whole-run sort
  // would hoist it ahead of batches that preceded its recording.
  //
  // Some components record into the session tracer directly, mid-run: the
  // txn coordinators and the invariant checker attach the session obs, not
  // a shard one. The inline stitch interleaved its batches with those live
  // appends, so each mark row also carries the session buffer's size at
  // that barrier, and the merge rebuilds the whole stream: take the live
  // buffer out, then emit (session-direct events up to the row's mark,
  // then the row's batch) per row, in order.
  //
  // Truncation also matches: the rebuilt stream fills in exact inline
  // order, so its first `limit` events are the inline stitch's kept set.
  // Live appends the splice then drops had at least `limit` stream
  // predecessors, as do events dropped shard-side or (when session-direct
  // traffic alone overflows the buffer) live; each attempted event lands
  // in exactly one of the kept stream, the splice drop count, a shard's
  // drop count or the session's own, so the totals agree too.
  const size_t ns = shard_obs_.size();
  const size_t stride = ns + 1;  // session mark + one mark per shard
  std::vector<obs::EventTracer::Event> live = session.TakeForStitch();
  const size_t limit = session.limit();
  std::vector<obs::EventTracer::Event> out;
  size_t batched = 0;
  for (auto& o : shard_obs_) batched += o->tracer.size();
  out.reserve(std::min(live.size() + batched, limit));
  size_t extra_dropped = 0;
  size_t live_pos = 0;
  auto emit = [&](const obs::EventTracer::Event& e) {
    if (out.size() < limit) {
      out.push_back(e);
    } else {
      ++extra_dropped;
    }
  };
  std::vector<size_t> prev(ns, 0);
  auto stitch_batch = [&](const size_t* row) {
    for (; live_pos < row[0] && live_pos < live.size(); ++live_pos) {
      emit(live[live_pos]);
    }
    merge_buf_.clear();
    for (size_t s = 0; s < ns; ++s) {
      const auto& events = shard_obs_[s]->tracer.events();
      for (size_t i = prev[s]; i < row[s + 1]; ++i) {
        merge_buf_.push_back(events[i]);
      }
      prev[s] = row[s + 1];
    }
    std::stable_sort(
        merge_buf_.begin(), merge_buf_.end(),
        [](const obs::EventTracer::Event& a,
           const obs::EventTracer::Event& b) { return a.ts < b.ts; });
    for (const obs::EventTracer::Event& e : merge_buf_) emit(e);
  };
  for (size_t r = 0; r + stride <= trace_marks_.size(); r += stride) {
    stitch_batch(&trace_marks_[r]);
  }
  // Tail: events recorded since the last barrier (a mid-run flush) form
  // one final batch, exactly as an inline stitch at this point would.
  std::vector<size_t> tail(stride);
  tail[0] = live.size();
  for (size_t s = 0; s < ns; ++s) tail[s + 1] = shard_obs_[s]->tracer.size();
  stitch_batch(tail.data());
  session.RestoreFromStitch(std::move(out), extra_dropped);
  for (auto& o : shard_obs_) {
    session.AddDropped(o->tracer.dropped());
    o->tracer.Clear();
  }
  trace_marks_.clear();
  last_mark_total_ = 0;
}

void Testbed::FlushShardMetrics() {
  if (!cfg_.obs || shard_obs_.empty()) return;
  // Delta drain: only series touched since the previous flush move, each
  // through a cached session-side pointer — repeated flushes of a
  // quiescent shard cost a linear dirty scan and add nothing twice.
  for (auto& o : shard_obs_) {
    o->metrics.DrainDeltaInto(cfg_.obs->metrics);
  }
  PublishEngineMetrics();
}

void Testbed::PublishEngineMetrics() {
  if (!cfg_.obs || !engine_) return;
  namespace schema = obs::schema;
  obs::MetricsRegistry& reg = cfg_.obs->metrics;
  reg.GetGauge(schema::kShardEpochs)
      .Set(static_cast<double>(engine_->epochs()));
}

std::unique_ptr<core::IoPolicy> Testbed::MakePolicy(sim::Simulator& psim,
                                                    ssd::BlockDevice& dev) {
  switch (cfg_.scheme) {
    case Scheme::kVanilla:
      return std::make_unique<baselines::FcfsPolicy>(psim, dev);
    case Scheme::kReflex:
      return std::make_unique<baselines::ReflexPolicy>(psim, dev, cfg_.reflex);
    case Scheme::kParda:
      return std::make_unique<baselines::PardaPolicy>(psim, dev);
    case Scheme::kFlashFq:
      return std::make_unique<baselines::FlashFqPolicy>(psim, dev,
                                                        cfg_.flashfq);
    case Scheme::kGimbal:
      return std::make_unique<core::GimbalSwitch>(psim, dev, cfg_.gimbal);
    case Scheme::kTimeslice:
      return std::make_unique<baselines::TimeslicePolicy>(psim, dev,
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
  obs::Observability* client_obs =
      shard_obs_.empty() ? cfg_.obs : shard_obs_[0].get();
  auto init = std::make_unique<fabric::Initiator>(
      *sim_, *net_, target_of(ssd_index), ssd_index, tenant,
      throttle.value_or(ThrottleFor(cfg_.scheme)), cfg_.parda, cfg_.retry,
      connect);
  init->AttachObservability(cfg_.obs ? client_obs : nullptr);
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
  workers_.push_back(std::make_unique<FioWorker>(*sim_, init, spec));
  return *workers_.back();
}

void Testbed::Run(Tick warmup, Tick measure) {
  for (auto& w : workers_) w->Start();
  sim_->RunUntil(sim_->now() + warmup);
  for (auto& w : workers_) w->stats().Reset();
  // Align metric totals with the workers' measurement window (gauges and
  // latency EWMAs keep their warmed-up values; counters/histograms restart).
  if (cfg_.obs) {
    cfg_.obs->metrics.ResetRun(cfg_.run_label);
    for (auto& o : shard_obs_) o->metrics.ResetRun(cfg_.run_label);
  }
  sim_->RunUntil(sim_->now() + measure);
  measured_ = measure;
  // Make this run's shard-recorded totals visible to callers that read the
  // session registry while the testbed is still alive.
  FlushShardMetrics();
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
