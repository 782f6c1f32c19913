#include "topo/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "remos/remos.hpp"
#include "select/context.hpp"
#include "select/patterns.hpp"
#include "topo/generators.hpp"
#include "topo/synthetic.hpp"
#include "util/rng.hpp"

namespace netsel::topo {

// Found by argument-dependent lookup, so hops print as "l3-" in failures.
void PrintTo(const Hop& h, std::ostream* os) {
  *os << "l" << h.link << (h.forward ? "+" : "-");
}

namespace {

/// The nodes a route visits, src first: each hop must leave the node the
/// previous one entered, in the direction it names.
std::vector<NodeId> walk(const TopologyGraph& g, NodeId src,
                         const std::vector<Hop>& hops) {
  std::vector<NodeId> nodes{src};
  for (const Hop& h : hops) {
    const Link& lk = g.link(h.link);
    EXPECT_EQ(h.forward ? lk.a : lk.b, nodes.back()) << "hop does not chain";
    nodes.push_back(h.forward ? lk.b : lk.a);
  }
  return nodes;
}

TEST(Routing, SameNodeEmptyRoute) {
  auto g = star(3);
  RoutingTable rt(g);
  EXPECT_TRUE(rt.route(1, 1).empty());
  EXPECT_EQ(rt.hops(1, 1), 0u);
}

TEST(Routing, StarRoutesThroughHub) {
  auto g = star(4);
  RoutingTable rt(g);
  NodeId h0 = g.find_node("h0").value();
  NodeId h3 = g.find_node("h3").value();
  auto nodes = walk(g, h0, rt.route(h0, h3));
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(g.node(nodes[1]).kind(), NodeKind::Network);
  EXPECT_EQ(nodes[2], h3);
  EXPECT_EQ(rt.hops(h0, h3), 2u);
}

TEST(Routing, TestbedCrossRouterPath) {
  auto g = testbed();
  RoutingTable rt(g);
  NodeId m1 = g.find_node("m-1").value();    // panama
  NodeId m13 = g.find_node("m-13").value();  // suez
  auto nodes = walk(g, m1, rt.route(m1, m13));
  // m-1 -> panama -> gibraltar -> suez -> m-13
  ASSERT_EQ(nodes.size(), 5u);
  EXPECT_EQ(g.node_name(nodes[1]), "panama");
  EXPECT_EQ(g.node_name(nodes[2]), "gibraltar");
  EXPECT_EQ(g.node_name(nodes[3]), "suez");
  EXPECT_EQ(nodes[4], m13);
  EXPECT_EQ(rt.hops(m1, m13), 4u);
}

TEST(Routing, RouteAndNodesConsistent) {
  // Every hop's direction chains the route from src to dst, and the tree
  // depth is the route's length.
  auto g = testbed();
  RoutingTable rt(g);
  for (NodeId a : g.compute_nodes()) {
    for (NodeId b : g.compute_nodes()) {
      auto hops = rt.route(a, b);
      EXPECT_EQ(walk(g, a, hops).back(), b);
      EXPECT_EQ(rt.hops(a, b), hops.size());
    }
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
  auto links = [](const std::vector<Hop>& hops) {
    std::vector<LinkId> out;
    for (const Hop& h : hops) out.push_back(h.link);
    std::sort(out.begin(), out.end());
    return out;
  };
  for (std::size_t i = 0; i + 1 < cn.size(); i += 3)
    EXPECT_EQ(links(rt.route(cn[i], cn[i + 1])),
              links(rt.route(cn[i + 1], cn[i])));
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

TEST(BfsPath, StarPath) {
  auto g = star(3);
  auto path = bfs_path(g, 1, 3);
  EXPECT_EQ(path.size(), 2u);
  EXPECT_TRUE(bfs_path(g, 1, 1).empty());
}

/// Four compute nodes on a ring, links l0 = c0-c1, l1 = c1-c2, l2 = c2-c3,
/// l3 = c3-c0: c1 and c3 are joined by two 2-hop paths.
TopologyGraph four_cycle() {
  TopologyGraph g;
  for (const char* name : {"c0", "c1", "c2", "c3"}) g.add_compute(name);
  for (NodeId i = 0; i < 4; ++i) g.add_link(i, (i + 1) % 4, 1e8);
  g.validate();
  return g;
}

TEST(Routing, RouteIsTheScoredPathOnCyclicGraphs) {
  // Simulated flows follow RoutingTable::route; the selectors score the
  // pair rows. On a cyclic graph, with distinct availability on every link,
  // both must read the one BFS tree from the source.
  FatTreeOptions ft;
  ft.edge_switches = 3;
  ft.hosts_per_edge = 2;
  ft.core_switches = 2;
  RandomCoreEdgeOptions rce;
  rce.edge_switches = 4;
  rce.hosts = 12;
  std::vector<std::pair<const char*, TopologyGraph>> graphs;
  graphs.emplace_back("four_cycle", four_cycle());
  graphs.emplace_back("fat_tree", fat_tree(ft));
  graphs.emplace_back("random_core_edge", random_core_edge(rce));
  util::Rng rng(28);
  for (const auto& [name, g] : graphs) {
    ASSERT_FALSE(g.is_acyclic()) << name;
    remos::NetworkSnapshot snap(g);
    for (std::size_t l = 0; l < g.link_count(); ++l) {
      const auto id = static_cast<LinkId>(l);
      snap.set_bw(id, rng.uniform(0.05, 1.0) * snap.maxbw(id));
    }
    const RoutingTable rt(g);
    const select::SelectionContext ctx(snap);
    for (NodeId s : g.compute_nodes()) {
      const auto row = ctx.pair_row(s);
      for (NodeId d : g.compute_nodes()) {
        const auto route = rt.route(s, d);
        EXPECT_EQ(route, bfs_path(g, s, d)) << name << " " << s << "->" << d;
        double bottleneck = std::numeric_limits<double>::infinity();
        for (const Hop& h : route)
          bottleneck = std::min(bottleneck, snap.bw(h.link));
        EXPECT_EQ(bottleneck, row.at(d).bottleneck)
            << name << " " << s << "->" << d;
      }
    }
  }
  // The tie-break on the ring: c1's tree reaches c0 through l0 before c2
  // through l1, so c3 is discovered from c0 over l3.
  const auto g = four_cycle();
  EXPECT_EQ(RoutingTable(g).route(1, 3),
            (std::vector<Hop>{{0, false}, {3, false}}));
}

TEST(Routing, OutOfRangeIdsThrowBeforeAnyStateChange) {
  sim::NetworkSim net(testbed());
  const TopologyGraph& g = net.topology();
  const auto bad = static_cast<NodeId>(g.node_count());
  const NodeId m1 = g.find_node("m-1").value();
  const NodeId m13 = g.find_node("m-13").value();
  remos::Remos remos(net);
  const remos::NetworkSnapshot snap(g);
  const sim::FlowId first =
      net.network().start_flow(m1, m13, 1e6, sim::kBackgroundOwner);
  const std::size_t events = net.sim().pending_events();
  for (const auto& [s, d] : {std::pair{bad, m1}, std::pair{m1, bad},
                             std::pair{bad, bad}}) {
    EXPECT_THROW(bfs_path(g, s, d), std::out_of_range);
    EXPECT_THROW(net.routes().route(s, d), std::out_of_range);
    EXPECT_THROW(select::directional_path_bw(snap, s, d), std::out_of_range);
    EXPECT_THROW(remos.available_bandwidth(s, d), std::out_of_range);
    EXPECT_THROW(remos.projected_flow_bandwidth(s, d), std::out_of_range);
    EXPECT_THROW(net.network().start_flow(s, d, 1e6, sim::kBackgroundOwner),
                 std::out_of_range);
  }
  EXPECT_EQ(net.network().active_flows(), 1);
  EXPECT_EQ(net.sim().pending_events(), events);
  EXPECT_EQ(net.network().start_flow(m13, m1, 1e6, sim::kBackgroundOwner),
            first + 1);
}

}  // namespace
}  // namespace netsel::topo
