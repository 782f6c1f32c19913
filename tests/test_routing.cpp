#include "topo/routing.hpp"

#include <gtest/gtest.h>

#include "topo/generators.hpp"
#include "util/rng.hpp"

namespace netsel::topo {
namespace {

TEST(Routing, SameNodeEmptyRoute) {
  auto g = star(3);
  RoutingTable rt(g);
  EXPECT_TRUE(rt.route(1, 1).empty());
  EXPECT_EQ(rt.hops(1, 1), 0u);
  auto nodes = rt.route_nodes(1, 1);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0], 1);
}

TEST(Routing, StarRoutesThroughHub) {
  auto g = star(4);
  RoutingTable rt(g);
  NodeId h0 = g.find_node("h0").value();
  NodeId h3 = g.find_node("h3").value();
  auto nodes = rt.route_nodes(h0, h3);
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0], h0);
  EXPECT_EQ(g.node(nodes[1]).kind(), NodeKind::Network);
  EXPECT_EQ(nodes[2], h3);
  EXPECT_EQ(rt.hops(h0, h3), 2u);
}

TEST(Routing, TestbedCrossRouterPath) {
  auto g = testbed();
  RoutingTable rt(g);
  NodeId m1 = g.find_node("m-1").value();    // panama
  NodeId m13 = g.find_node("m-13").value();  // suez
  auto nodes = rt.route_nodes(m1, m13);
  // m-1 -> panama -> gibraltar -> suez -> m-13
  ASSERT_EQ(nodes.size(), 5u);
  EXPECT_EQ(g.node_name(nodes[1]), "panama");
  EXPECT_EQ(g.node_name(nodes[2]), "gibraltar");
  EXPECT_EQ(g.node_name(nodes[3]), "suez");
  EXPECT_EQ(rt.hops(m1, m13), 4u);
}

TEST(Routing, RouteAndNodesConsistent) {
  auto g = testbed();
  RoutingTable rt(g);
  NodeId m7 = g.find_node("m-7").value();
  NodeId m18 = g.find_node("m-18").value();
  auto links = rt.route(m7, m18);
  auto nodes = rt.route_nodes(m7, m18);
  ASSERT_EQ(nodes.size(), links.size() + 1);
  for (std::size_t i = 0; i < links.size(); ++i) {
    const Link& l = g.link(links[i]);
    bool forward = l.a == nodes[i] && l.b == nodes[i + 1];
    bool backward = l.b == nodes[i] && l.a == nodes[i + 1];
    EXPECT_TRUE(forward || backward) << "link " << i << " does not connect";
  }
}

TEST(Routing, SymmetricHopCounts) {
  util::Rng rng(5);
  auto g = random_tree(rng);
  RoutingTable rt(g);
  for (NodeId a : g.compute_nodes()) {
    for (NodeId b : g.compute_nodes()) {
      EXPECT_EQ(rt.hops(a, b), rt.hops(b, a));
    }
  }
}

TEST(Routing, UniquePathsOnTreeMatchBfs) {
  // On an acyclic graph the static route is the unique path, so routing
  // from a to b and b to a must traverse the same link set.
  util::Rng rng(6);
  auto g = random_tree(rng);
  RoutingTable rt(g);
  auto cn = g.compute_nodes();
  for (std::size_t i = 0; i + 1 < cn.size(); i += 3) {
    auto ab = rt.route(cn[i], cn[i + 1]);
    auto ba = rt.route(cn[i + 1], cn[i]);
    std::sort(ab.begin(), ab.end());
    std::sort(ba.begin(), ba.end());
    EXPECT_EQ(ab, ba);
  }
}

TEST(Routing, CyclicGraphPicksShortestFixedPath) {
  // Triangle of switches: route must take the 1-switch path, not wander.
  TopologyGraph g;
  NodeId s0 = g.add_network("s0");
  NodeId s1 = g.add_network("s1");
  NodeId s2 = g.add_network("s2");
  NodeId a = g.add_compute("a");
  NodeId b = g.add_compute("b");
  g.add_link(s0, s1, 1e8);
  g.add_link(s1, s2, 1e8);
  g.add_link(s2, s0, 1e8);
  g.add_link(s0, a, 1e8);
  g.add_link(s1, b, 1e8);
  RoutingTable rt(g);
  EXPECT_EQ(rt.hops(a, b), 3u);  // a-s0-s1-b
  // Deterministic: repeated builds give identical routes.
  RoutingTable rt2(g);
  EXPECT_EQ(rt.route(a, b), rt2.route(a, b));
}

TEST(Routing, DisconnectedGraphThrows) {
  TopologyGraph g;
  g.add_compute("a");
  g.add_compute("b");
  EXPECT_THROW(RoutingTable rt(g), std::invalid_argument);
}

}  // namespace
}  // namespace netsel::topo
