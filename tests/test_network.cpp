#include "sim/network.hpp"

#include <gtest/gtest.h>

#include "topo/generators.hpp"
#include "util/rng.hpp"

namespace netsel::sim {
namespace {

struct Net {
  topo::TopologyGraph g;
  Simulator sim;
  topo::RoutingTable routes;
  Network net;

  explicit Net(topo::TopologyGraph graph, NetworkConfig cfg = {})
      : g(std::move(graph)), routes(g), net(sim, g, routes, cfg) {}
};

topo::NodeId host(const Net& n, const std::string& name) {
  return n.g.find_node(name).value();
}

TEST(Network, SingleFlowGetsFullBottleneck) {
  Net n(topo::star(2));
  double done_at = -1.0;
  // 100 Mbps path, 25 MB => 2 s.
  n.net.start_flow(host(n, "h0"), host(n, "h1"), 25e6, kBackgroundOwner,
                   [&](FlowId) { done_at = n.sim.now(); });
  n.sim.run();
  EXPECT_NEAR(done_at, 2.0, 1e-9);
}

TEST(Network, TwoFlowsOnSameLinkShareFairly) {
  Net n(topo::star(2));
  double a = -1, b = -1;
  // Both h0->h1: share h0's uplink 50/50. 25 MB each at 50 Mbps = 4 s.
  n.net.start_flow(host(n, "h0"), host(n, "h1"), 25e6, kBackgroundOwner,
                   [&](FlowId) { a = n.sim.now(); });
  n.net.start_flow(host(n, "h0"), host(n, "h1"), 25e6, kBackgroundOwner,
                   [&](FlowId) { b = n.sim.now(); });
  n.sim.run();
  EXPECT_NEAR(a, 4.0, 1e-9);
  EXPECT_NEAR(b, 4.0, 1e-9);
}

TEST(Network, OppositeDirectionsDoNotContend) {
  // Full-duplex: h0->h1 and h1->h0 use different link directions.
  Net n(topo::star(2));
  double a = -1, b = -1;
  n.net.start_flow(host(n, "h0"), host(n, "h1"), 25e6, kBackgroundOwner,
                   [&](FlowId) { a = n.sim.now(); });
  n.net.start_flow(host(n, "h1"), host(n, "h0"), 25e6, kBackgroundOwner,
                   [&](FlowId) { b = n.sim.now(); });
  n.sim.run();
  EXPECT_NEAR(a, 2.0, 1e-9);
  EXPECT_NEAR(b, 2.0, 1e-9);
}

TEST(Network, MaxMinUnbottleneckedFlowGetsLeftover) {
  // Dumbbell with 10 Mbps bottleneck: flow X crosses it, flow Y stays on
  // the left switch. Y is limited only by the 100 Mbps access links; max-min
  // gives X 10 Mbps and Y... wait, Y shares L0's uplink with X.
  // X: L0 -> R0 (crosses bottleneck), Y: L0 -> L1.
  // L0 uplink carries both (100 Mbps): equal split would be 50/50, but X is
  // frozen at 10 by the bottleneck, so Y gets 90.
  Net n(topo::dumbbell(2, 1, topo::k100Mbps, 10e6));
  FlowId x = n.net.start_flow(host(n, "L0"), host(n, "R0"), 1e9, kBackgroundOwner);
  FlowId y = n.net.start_flow(host(n, "L0"), host(n, "L1"), 1e9, kBackgroundOwner);
  EXPECT_NEAR(n.net.flow_rate(x), 10e6, 1.0);
  EXPECT_NEAR(n.net.flow_rate(y), 90e6, 1.0);
}

TEST(Network, LateFlowCausesReshare) {
  Net n(topo::star(2));
  double a = -1, b = -1;
  // A: 25 MB at t=0. B: 12.5 MB at t=1.
  // 0..1: A alone at 100 Mbps, ships 12.5 MB.
  // 1..3: both at 50 Mbps; B ships its 12.5 MB by t=3; A ships 12.5 MB too.
  // A done exactly at 3 as well.
  n.net.start_flow(host(n, "h0"), host(n, "h1"), 25e6, kBackgroundOwner,
                   [&](FlowId) { a = n.sim.now(); });
  n.sim.schedule_at(1.0, [&] {
    n.net.start_flow(host(n, "h0"), host(n, "h1"), 12.5e6, kBackgroundOwner,
                     [&](FlowId) { b = n.sim.now(); });
  });
  n.sim.run();
  EXPECT_NEAR(a, 3.0, 1e-6);
  EXPECT_NEAR(b, 3.0, 1e-6);
}

TEST(Network, CancelFlowReturnsRemainingAndFreesBandwidth) {
  Net n(topo::star(2));
  bool a_completed = false;
  FlowId a = n.net.start_flow(host(n, "h0"), host(n, "h1"), 100e6,
                              kBackgroundOwner, [&](FlowId) { a_completed = true; });
  FlowId b = n.net.start_flow(host(n, "h0"), host(n, "h1"), 100e6,
                              kBackgroundOwner);
  n.sim.run_until(2.0);  // each has shipped 12.5 MB at 50 Mbps
  double left = n.net.cancel_flow(a);
  EXPECT_NEAR(left, 100e6 - 12.5e6, 1.0);
  EXPECT_FALSE(n.net.is_active(a));
  EXPECT_NEAR(n.net.flow_rate(b), 100e6, 1.0) << "b should get full link";
  n.sim.run();
  EXPECT_FALSE(a_completed);
  EXPECT_THROW(n.net.cancel_flow(a), std::invalid_argument);
}

TEST(Network, LocalDeliveryCompletesImmediately) {
  Net n(topo::star(2));
  bool done = false;
  n.net.start_flow(host(n, "h0"), host(n, "h0"), 1e9, kBackgroundOwner,
                   [&](FlowId) { done = true; });
  n.sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(n.sim.now(), 0.0);
}

TEST(Network, HopLatencyDelaysCompletion) {
  NetworkConfig cfg;
  cfg.hop_latency = 0.1;
  Net n(topo::star(2), cfg);
  double done_at = -1.0;
  // 2 hops: latency 0.2 in parallel with a 2 s transfer -> 2 s dominates.
  n.net.start_flow(host(n, "h0"), host(n, "h1"), 25e6, kBackgroundOwner,
                   [&](FlowId) { done_at = n.sim.now(); });
  n.sim.run();
  EXPECT_NEAR(done_at, 2.0, 1e-9);
  // A tiny transfer is latency-bound.
  done_at = -1.0;
  n.net.start_flow(host(n, "h0"), host(n, "h1"), 8.0, kBackgroundOwner,
                   [&](FlowId) { done_at = n.sim.now(); });
  n.sim.run();
  EXPECT_NEAR(done_at, 2.0 + 0.2, 1e-6);
}

TEST(Network, LinkUtilisationTracksFlows) {
  Net n(topo::testbed());
  topo::NodeId m1 = host(n, "m-1");
  topo::NodeId m13 = host(n, "m-13");
  FlowId f = n.net.start_flow(m1, m13, 1e9, kBackgroundOwner);
  double rate = n.net.flow_rate(f);
  EXPECT_NEAR(rate, 100e6, 1.0);
  for (const topo::Hop& h : n.routes.route(m1, m13)) {
    EXPECT_NEAR(n.net.link_used_bw(h.link, h.forward), rate, 1.0);
    EXPECT_NEAR(n.net.link_used_bw(h.link, !h.forward), 0.0, 1e-9);
    EXPECT_EQ(n.net.link_flow_count(h.link, h.forward), 1);
  }
}

TEST(Network, UsedBwExcludingOwner) {
  Net n(topo::star(3));
  topo::NodeId h0 = host(n, "h0"), h1 = host(n, "h1");
  n.net.start_flow(h0, h1, 1e9, /*owner=*/5);
  n.net.start_flow(h0, h1, 1e9, kBackgroundOwner);
  const topo::Hop h = n.routes.route(h0, h1)[0];
  EXPECT_NEAR(n.net.link_used_bw(h.link, h.forward), 100e6, 1.0);
  EXPECT_NEAR(n.net.link_used_bw_excluding(h.link, h.forward, 5), 50e6, 1.0);
}

TEST(Network, AtmLinkGivesHigherCrossRate) {
  // gibraltar--suez is 155 Mbps: two flows m-7 -> m-13 / m-8 -> m-14 share
  // it at 77.5 each, below their 100 Mbps access limits.
  Net n(topo::testbed());
  FlowId f1 = n.net.start_flow(host(n, "m-7"), host(n, "m-13"), 1e9, 0);
  FlowId f2 = n.net.start_flow(host(n, "m-8"), host(n, "m-14"), 1e9, 0);
  EXPECT_NEAR(n.net.flow_rate(f1), 77.5e6, 1.0);
  EXPECT_NEAR(n.net.flow_rate(f2), 77.5e6, 1.0);
}

TEST(Network, ManyFlowsConservation) {
  // Property: on any link direction, the sum of flow rates never exceeds
  // capacity, and every flow has a strictly positive rate.
  Net n(topo::testbed());
  util::Rng rng(99);
  auto hosts = n.g.compute_nodes();
  std::vector<FlowId> flows;
  for (int i = 0; i < 40; ++i) {
    auto a = hosts[static_cast<std::size_t>(rng.uniform_int(0, 17))];
    auto b = hosts[static_cast<std::size_t>(rng.uniform_int(0, 17))];
    if (a == b) continue;
    flows.push_back(n.net.start_flow(a, b, 1e9, kBackgroundOwner));
  }
  for (FlowId f : flows) EXPECT_GT(n.net.flow_rate(f), 0.0);
  for (std::size_t l = 0; l < n.g.link_count(); ++l) {
    for (bool fwd : {true, false}) {
      auto id = static_cast<topo::LinkId>(l);
      EXPECT_LE(n.net.link_used_bw(id, fwd),
                n.net.link_capacity(id, fwd) * (1.0 + 1e-9));
    }
  }
}

TEST(Network, MaxMinNoFlowCanBeRaisedWithoutHurtingSmaller) {
  // Max-min certificate: every flow crosses at least one saturated link
  // direction where it has the (joint) largest rate.
  Net n(topo::dumbbell(3, 3, topo::k100Mbps, 60e6));
  std::vector<FlowId> flows;
  flows.push_back(n.net.start_flow(host(n, "L0"), host(n, "R0"), 1e9, 0));
  flows.push_back(n.net.start_flow(host(n, "L1"), host(n, "R1"), 1e9, 0));
  flows.push_back(n.net.start_flow(host(n, "L0"), host(n, "L1"), 1e9, 0));
  flows.push_back(n.net.start_flow(host(n, "R2"), host(n, "R0"), 1e9, 0));
  auto cross = [&](FlowId f) { return n.net.flow_rate(f); };
  // Bottleneck flows share 60 Mbps: 30 each.
  EXPECT_NEAR(cross(flows[0]), 30e6, 1.0);
  EXPECT_NEAR(cross(flows[1]), 30e6, 1.0);
  // L0->L1 limited by L0 uplink shared with flow 0: 70 remaining.
  EXPECT_NEAR(cross(flows[2]), 70e6, 1.0);
  // R2->R0 shares R0 downlink with flow 0: gets 70.
  EXPECT_NEAR(cross(flows[3]), 70e6, 1.0);
}

TEST(Network, RemainingBytesSettles) {
  Net n(topo::star(2));
  FlowId f = n.net.start_flow(host(n, "h0"), host(n, "h1"), 100e6,
                              kBackgroundOwner);
  n.sim.run_until(1.0);
  EXPECT_NEAR(n.net.remaining_bytes(f), 100e6 - 12.5e6, 1.0);
}

TEST(Network, Rejections) {
  Net n(topo::star(2));
  EXPECT_THROW(
      n.net.start_flow(host(n, "h0"), host(n, "h1"), 0.0, kBackgroundOwner),
      std::invalid_argument);
  EXPECT_THROW(n.net.flow_rate(123), std::invalid_argument);
  EXPECT_THROW(n.net.remaining_bytes(123), std::invalid_argument);
  NetworkConfig bad;
  bad.hop_latency = -1.0;
  EXPECT_THROW(Net nn(topo::star(2), bad), std::invalid_argument);
}

}  // namespace
}  // namespace netsel::sim
