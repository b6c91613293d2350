#include "fabric/network.h"

#include <cassert>

#include "check/invariants.h"
#include "core/params.h"

namespace gimbal::fabric {

void Network::ConfigureRack(std::vector<int> node_of, int num_nodes) {
  assert(num_nodes > 0);
  node_of_ = std::move(node_of);
  num_nodes_ = num_nodes;
  for (int d = 0; d < 2; ++d) {
    uplink_res_[d] = std::make_unique<sim::Resource>(sim_);
    node_res_[d].clear();
    for (int n = 0; n < num_nodes; ++n) {
      node_res_[d].push_back(std::make_unique<sim::Resource>(sim_));
    }
  }
  node_uplink_bytes_.assign(static_cast<size_t>(num_nodes), 0);
}

void Network::AddNodeOutage(int node, Tick fail_at, Tick recover_at) {
  assert(rack() && node >= 0 && node < num_nodes_);
  outages_.push_back(Outage{node, fail_at, recover_at});
}

bool Network::NodeDown(int node, Tick when) const {
  for (const Outage& o : outages_) {
    if (o.node == node && when >= o.fail_at &&
        (o.recover_at == 0 || when < o.recover_at)) {
      return true;
    }
  }
  return false;
}

void Network::AccountUplink(int node, uint64_t bytes) {
  uplink_bytes_total_ += bytes;
  uplink_busy_accum_ += TransferTime(bytes, config_.bandwidth_bps);
  if (!(GIMBAL_MUT(kUplinkLeak) && node == 0)) {
    node_uplink_bytes_[static_cast<size_t>(node)] += bytes;
  }
  if (chk_) {
    uint64_t sum = 0;
    for (uint64_t v : node_uplink_bytes_) sum += v;
    chk_->OnRackUplink(node, bytes, sum, uplink_bytes_total_);
  }
}

void Network::SendRack(Direction dir, int node, uint64_t bytes, Tick extra,
                       sim::EventFn deliver) {
  if (NodeDown(node, sim_.now())) {
    ++node_drops_;
    return;
  }
  bytes_sent_ += bytes;
  AccountUplink(node, bytes);
  // The uplink and the access link run at the same rate.
  const Tick t = TransferTime(bytes, config_.bandwidth_bps);
  const int d = dir == Direction::kClientToTarget ? 0 : 1;
  sim::Resource& uplink = *uplink_res_[d];
  sim::Resource& link = *node_res_[d][static_cast<size_t>(node)];
  // Client-to-target crosses the ToR uplink first, then the node's access
  // link; target-to-client the reverse. The second stage runs inside the
  // first stage's completion, so the tandem keeps FIFO order per stage.
  auto chain = [t, extra](sim::Resource& first,
                          sim::Resource* second, sim::EventFn done) {
    first.AcquireDeferred(
        t, 0, [second, t, extra, done = std::move(done)]() mutable {
          second->AcquireDeferred(t, extra, std::move(done));
        });
  };
  if (dir == Direction::kClientToTarget) {
    chain(uplink, &link, std::move(deliver));
  } else {
    chain(link, &uplink, std::move(deliver));
  }
}

}  // namespace gimbal::fabric
