#include "sim/network_sim.hpp"

#include <stdexcept>

namespace netsel::sim {

NetworkSim::NetworkSim(topo::TopologyGraph topology, NetworkSimConfig cfg)
    : topology_(std::move(topology)) {
  topology_.validate();
  routes_ = std::make_unique<topo::RoutingTable>(topology_);
  network_ = std::make_unique<Network>(sim_, topology_, *routes_, cfg.network);
  hosts_.resize(topology_.node_count());
  for (std::size_t i = 0; i < topology_.node_count(); ++i) {
    auto id = static_cast<topo::NodeId>(i);
    const topo::Node& n = topology_.node(id);
    if (n.kind() != topo::NodeKind::Compute) continue;
    HostConfig hc = cfg.host;
    hc.capacity = cfg.host.capacity * n.cpu_capacity;
    hosts_[i] =
        std::make_unique<Host>(sim_, hc, std::string(topology_.node_name(id)));
  }
}

Host& NetworkSim::host(topo::NodeId n) {
  auto& h = hosts_.at(static_cast<std::size_t>(n));
  if (!h) throw std::invalid_argument("NetworkSim::host: not a compute node");
  return *h;
}

const Host& NetworkSim::host(topo::NodeId n) const {
  const auto& h = hosts_.at(static_cast<std::size_t>(n));
  if (!h) throw std::invalid_argument("NetworkSim::host: not a compute node");
  return *h;
}

bool NetworkSim::has_host(topo::NodeId n) const {
  return static_cast<std::size_t>(n) < hosts_.size() &&
         hosts_[static_cast<std::size_t>(n)] != nullptr;
}

OwnerTag NetworkSim::new_owner() { return next_owner_++; }

}  // namespace netsel::sim
