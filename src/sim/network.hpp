#pragma once
// Fluid flow network with global max-min fair bandwidth sharing.
//
// Every active transfer (application message or background traffic stream)
// is a fluid flow along its static route. Each *direction* of each link is a
// separate resource — matching §3.3 of the paper, where a pair of nodes may
// be connected by distinct links per direction and the available capacity of
// a bidirectional link is the minimum of the two directions.
//
// Rates are recomputed by progressive filling (water-filling) whenever a
// flow starts or ends: all unfrozen flows grow at the same rate until some
// directional link saturates, flows through saturated links freeze, repeat.
// This is the standard max-min fair allocation and reproduces, at the fluid
// level, how TCP-like sharing degrades transfers on congested links — the
// phenomenon the paper's traffic generator creates on the CMU testbed.

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"
#include "sim/host.hpp"
#include "topo/graph.hpp"
#include "topo/routing.hpp"

namespace netsel::sim {

using FlowId = std::uint64_t;

struct NetworkConfig {
  /// Fixed per-hop latency added to every transfer's completion time
  /// (models store-and-forward/propagation; the paper treats latency as
  /// future work, so the default is 0).
  double hop_latency = 0.0;
};

class Network {
 public:
  Network(Simulator& sim, const topo::TopologyGraph& g,
          const topo::RoutingTable& routes, NetworkConfig cfg = {});
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Start a transfer of `bytes` from src to dst along the static route.
  /// `on_complete` fires when the last byte arrives. Throws
  /// std::out_of_range for an id outside [0, node count), before any state
  /// change.
  FlowId start_flow(topo::NodeId src, topo::NodeId dst, double bytes,
                    OwnerTag owner, std::function<void(FlowId)> on_complete = {});

  /// Abort a transfer; its callback never fires. Returns remaining bytes.
  double cancel_flow(FlowId id);

  bool is_active(FlowId id) const { return flows_.count(id) > 0; }
  /// Current max-min fair rate of a flow in bits/second.
  double flow_rate(FlowId id) const;
  /// Remaining bytes of an active flow, settled to now.
  double remaining_bytes(FlowId id);

  int active_flows() const { return static_cast<int>(flows_.size()); }

  /// Sum of the rates of flows currently using the given link direction
  /// (bits/second); what an SNMP byte counter would show as utilisation.
  double link_used_bw(topo::LinkId l, bool forward) const;
  /// Utilisation excluding flows owned by `owner` (for migration queries).
  double link_used_bw_excluding(topo::LinkId l, bool forward,
                                OwnerTag owner) const;
  /// Directional capacity of a link.
  double link_capacity(topo::LinkId l, bool forward) const;
  /// Number of flows currently traversing the given link direction.
  int link_flow_count(topo::LinkId l, bool forward) const;
  /// Bandwidth used on the direction by this owner's flows alone.
  double link_used_bw_by(topo::LinkId l, bool forward, OwnerTag owner) const;
  /// Owners of the currently active flows (deduplicated, unordered).
  std::vector<OwnerTag> active_owners() const;

  const topo::TopologyGraph& graph() const { return *graph_; }
  const topo::RoutingTable& routes() const { return *routes_; }

 private:
  struct Flow {
    std::vector<topo::Hop> hops;
    double remaining = 0.0;  // bytes
    double rate = 0.0;       // bits/second
    OwnerTag owner = kBackgroundOwner;
    double latency_left = 0.0;  // residual path latency not yet elapsed
    std::function<void(FlowId)> on_complete;
  };

  std::size_t dir_index(topo::LinkId l, bool forward) const {
    return static_cast<std::size_t>(l) * 2 + (forward ? 0 : 1);
  }

  /// Integrate all flows' remaining bytes to now.
  void settle();
  /// Recompute max-min fair rates and the next completion event.
  void recompute();
  void on_completion_event();

  Simulator& sim_;
  const topo::TopologyGraph* graph_;
  const topo::RoutingTable* routes_;
  NetworkConfig cfg_;
  std::unordered_map<FlowId, Flow> flows_;
  FlowId next_flow_ = 1;
  SimTime last_settle_ = 0.0;
  EventId completion_event_ = kInvalidEvent;
  /// Directional capacities, indexed by dir_index().
  std::vector<double> dir_capacity_;
  /// Cached per-direction used bandwidth (sum of flow rates).
  std::vector<double> dir_used_;
  /// Cached per-direction flow counts.
  std::vector<int> dir_count_;
};

}  // namespace netsel::sim
