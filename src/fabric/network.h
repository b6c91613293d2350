// Fabric network model for NVMe-oF/RDMA traffic.
//
// Models the storage node's NIC as a full-duplex shared link: messages
// serialize on the direction's bandwidth and then experience a fixed
// propagation/switching latency. Capsules are 64 B; RDMA data moves in
// messages of the IO's size (§2.1's five-step request flow is built from
// these primitives by the target).
//
// The flat (single-node) link keeps one serialization frontier per
// direction: a message starts when both it and the link are ready, and
// its delivery is scheduled once, at serialization end plus the base
// latency. A rack (ConfigureRack) chains FifoResources instead, so each
// stage of the uplink/access-link tandem serves messages in the order they
// reach it (docs/SIMULATOR.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace gimbal::check {
class InvariantChecker;
}  // namespace gimbal::check

namespace gimbal::fabric {

struct NetworkConfig {
  double bandwidth_bps = 100e9 / 8;       // 100 Gbps, in bytes/sec
  Tick base_latency = Microseconds(5);    // NIC + switch + propagation
};

enum class Direction { kClientToTarget, kTargetToClient };

constexpr uint32_t kCapsuleBytes = 64;      // command/completion capsule
constexpr uint32_t kRdmaControlBytes = 16;  // RDMA_READ request header

class Network {
 public:
  Network(sim::Simulator& sim, NetworkConfig config = {})
      : sim_(sim), config_(config) {}

  // Deliver a `bytes`-sized message in `dir`; `deliver` runs after
  // serialization on the link plus the base latency. `ssd` identifies the
  // target-side pipeline the message belongs to, which picks its node's
  // access link on a rack. During a scheduled link flap (docs/FAULTS.md)
  // the message may be silently dropped — recovery is the initiator's
  // per-IO timeout — or delayed.
  void Send(Direction dir, int ssd, uint64_t bytes, sim::EventFn deliver) {
    Tick fault_delay = 0;
    if (faults_) {
      const fault::FaultInjector::LinkFault lf =
          faults_->OnLinkMessage(sim_.now());
      if (lf.drop) {
        ++messages_dropped_;
        return;
      }
      fault_delay = lf.extra_delay;
    }
    if (rack()) {
      SendRack(dir, node_of(ssd), bytes, config_.base_latency + fault_delay,
               std::move(deliver));
      return;
    }
    bytes_sent_ += bytes;
    // Serialize back-to-back from the later of now and the direction's
    // frontier; the base latency then elapses off-link.
    Tick& busy = busy_until_[dir == Direction::kClientToTarget ? 0 : 1];
    busy = std::max(sim_.now(), busy) +
           TransferTime(bytes, config_.bandwidth_bps);
    sim_.At(busy + config_.base_latency + fault_delay, std::move(deliver));
  }

  // Route every message through `faults` (null detaches).
  void set_fault_injector(fault::FaultInjector* faults) { faults_ = faults; }

  // --- Rack topology (docs/SIMULATOR.md) -----------------------------------
  // Place the pipelines on `num_nodes` target nodes behind a shared ToR
  // uplink: `node_of[ssd]` is the node pipeline `ssd` lives on. A message
  // serializes on the shared uplink and then on the destination node's
  // access link (access link first, uplink second target-to-client), then
  // the base latency elapses. The uplink and every access link run at
  // config().bandwidth_bps. Call before any Send.
  void ConfigureRack(std::vector<int> node_of, int num_nodes);
  bool rack() const { return num_nodes_ > 0; }
  int nodes() const { return num_nodes_; }
  int node_of(int ssd) const {
    return rack() ? node_of_[static_cast<size_t>(ssd)] : 0;
  }

  // Register a node outage window [fail_at, recover_at) (recover_at 0 =
  // never recovers): every message to or from the node whose *send time*
  // falls inside the window is dropped.
  void AddNodeOutage(int node, Tick fail_at, Tick recover_at);
  bool NodeDown(int node, Tick when) const;

  // Fires the rack.uplink.conservation check on every uplink crossing.
  void AttachChecker(check::InvariantChecker* chk) { chk_ = chk; }

  const NetworkConfig& config() const { return config_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t messages_dropped() const { return messages_dropped_; }
  uint64_t uplink_bytes() const { return uplink_bytes_total_; }
  uint64_t node_uplink_bytes(int node) const {
    return node_uplink_bytes_[static_cast<size_t>(node)];
  }
  // Messages dropped because a node was down (separate from link flaps).
  uint64_t node_drops() const { return node_drops_; }
  // Total uplink serialization time ever scheduled (utilization numerator).
  Tick uplink_busy_time() const { return uplink_busy_accum_; }

 private:
  // Rack path: chain the uplink and node access link FifoResources.
  void SendRack(Direction dir, int node, uint64_t bytes, Tick extra,
                sim::EventFn deliver);
  // Per-node uplink byte accounting + the conservation check.
  void AccountUplink(int node, uint64_t bytes);

  sim::Simulator& sim_;
  NetworkConfig config_;
  // Flat link: when each direction finishes serializing what it has
  // accepted (0 = client-to-target, 1 = target-to-client).
  Tick busy_until_[2] = {0, 0};
  uint64_t bytes_sent_ = 0;
  uint64_t messages_dropped_ = 0;
  fault::FaultInjector* faults_ = nullptr;  // null = fault-free link

  // Rack mode state (num_nodes_ == 0 = flat single-node fabric). Indexed
  // [direction][...] with 0 = client-to-target, 1 = target-to-client.
  std::vector<int> node_of_;  // pipeline -> node
  int num_nodes_ = 0;
  struct Outage {
    int node;
    Tick fail_at;
    Tick recover_at;  // 0 = never
  };
  std::vector<Outage> outages_;
  // One shared uplink + one access link per node, per direction.
  std::unique_ptr<sim::FifoResource> uplink_res_[2];
  std::vector<std::unique_ptr<sim::FifoResource>> node_res_[2];
  // Uplink accounting (rack.uplink.* metrics + conservation invariant).
  uint64_t uplink_bytes_total_ = 0;
  std::vector<uint64_t> node_uplink_bytes_;
  uint64_t node_drops_ = 0;
  Tick uplink_busy_accum_ = 0;
  check::InvariantChecker* chk_ = nullptr;
};

}  // namespace gimbal::fabric
