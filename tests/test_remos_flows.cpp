// Flow-query details: directional correctness on asymmetric links,
// projected max-min shares under multiple flows, and query interaction
// with logical subgraphs — plus an event-engine stress case backing the
// determinism guarantees everything above relies on.

#include <gtest/gtest.h>

#include <map>

#include "remos/remos.hpp"
#include "topo/generators.hpp"
#include "topo/routing.hpp"

namespace netsel::remos {
namespace {

/// sw -- a with asymmetric directions: sw->a 100 Mbps, a->sw 10 Mbps;
/// sw -- b symmetric 100 Mbps.
struct AsymFixture : ::testing::Test {
  topo::TopologyGraph g;
  topo::NodeId a, b;

  AsymFixture() {
    auto sw = g.add_network("sw");
    a = g.add_compute("a");
    b = g.add_compute("b");
    g.add_link(sw, a, 100e6, 10e6);
    g.add_link(sw, b, 100e6);
    g.validate();
  }
};

TEST_F(AsymFixture, AvailableBandwidthIsDirectional) {
  sim::NetworkSim net(std::move(g));
  Remos remos(net);
  remos.start();
  auto na = net.topology().find_node("a").value();
  auto nb = net.topology().find_node("b").value();
  // b -> a uses sw->a (100); a -> b uses a->sw (10).
  EXPECT_NEAR(remos.available_bandwidth(nb, na), 100e6, 1.0);
  EXPECT_NEAR(remos.available_bandwidth(na, nb), 10e6, 1.0);
  // The undirected snapshot value is the min of the directions (§3.3).
  auto snap = remos.snapshot();
  EXPECT_DOUBLE_EQ(snap.bw(0), 10e6);
}

TEST_F(AsymFixture, SimulatedFlowsRespectDirectionalCapacity) {
  sim::NetworkSim net(std::move(g));
  auto na = net.topology().find_node("a").value();
  auto nb = net.topology().find_node("b").value();
  auto up = net.network().start_flow(na, nb, 1e9, sim::kBackgroundOwner);
  auto down = net.network().start_flow(nb, na, 1e9, sim::kBackgroundOwner);
  EXPECT_NEAR(net.network().flow_rate(up), 10e6, 1.0);
  EXPECT_NEAR(net.network().flow_rate(down), 100e6, 1.0);
}

TEST(ProjectedShare, ScalesWithCompetingFlowCount) {
  sim::NetworkSim net(topo::star(2));
  auto h0 = net.topology().find_node("h0").value();
  auto h1 = net.topology().find_node("h1").value();
  Remos remos(net);
  remos.start();
  // No competition: the projected share is the full link.
  EXPECT_NEAR(remos.projected_flow_bandwidth(h0, h1), 100e6, 1.0);
  std::map<int, double> expected{{1, 50e6}, {2, 100e6 / 3.0}, {3, 25e6}};
  for (auto [flows, share] : expected) {
    net.network().start_flow(h0, h1, 1e12, sim::kBackgroundOwner);
    net.sim().run_until(net.sim().now() + 2.5);  // let a poll observe it
    EXPECT_NEAR(remos.projected_flow_bandwidth(h0, h1), share, 1e5)
        << flows << " existing flows";
  }
}

TEST(ProjectedShare, BetterThanResidualOnSaturatedLinks) {
  // The §2.2 point of flow queries "accounting for sharing": residual says
  // a saturated link offers ~nothing; the projected fair share says a new
  // flow would still get capacity/(n+1).
  sim::NetworkSim net(topo::testbed());
  auto m1 = net.topology().find_node("m-1").value();
  auto m2 = net.topology().find_node("m-2").value();
  net.network().start_flow(m1, m2, 1e12, sim::kBackgroundOwner);
  Remos remos(net);
  remos.start();
  net.sim().run_until(4.0);
  EXPECT_LT(remos.available_bandwidth(m1, m2), 1e6);
  EXPECT_GT(remos.projected_flow_bandwidth(m1, m2), 45e6);
}

TEST(SubgraphQueries, FlowQueryConsistentWithProjection) {
  // Selection on a projected subgraph must see the same availability that
  // the full-graph flow query reports for the surviving links.
  sim::NetworkSim net(topo::testbed());
  auto m1 = net.topology().find_node("m-1").value();
  auto m13 = net.topology().find_node("m-13").value();
  net.network().start_flow(m1, m13, 1e12, sim::kBackgroundOwner);
  Remos remos(net);
  remos.start();
  net.sim().run_until(4.0);

  auto sub = remos.logical_subgraph({m1, m13});
  auto snap = project_snapshot(remos.snapshot(), sub);
  auto s1 = sub.graph.find_node("m-1").value();
  auto s13 = sub.graph.find_node("m-13").value();
  // Bottleneck along the sub-path == full-graph directional query.
  double full = remos.available_bandwidth(m1, m13);
  double via_sub = std::numeric_limits<double>::infinity();
  for (const topo::Hop& h : topo::bfs_path(sub.graph, s1, s13))
    via_sub = std::min(via_sub, snap.bw_dir(h.link, h.forward));
  EXPECT_NEAR(via_sub, std::max(full, 1e3), 2e3);
}

TEST(EngineStress, ThousandsOfRandomEventsRunInOrder) {
  sim::Simulator sim;
  util::Rng rng(123);
  double last = -1.0;
  long executed = 0;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 5000; ++i) {
    double at = rng.uniform(0.0, 1000.0);
    ids.push_back(sim.schedule_at(at, [&, at] {
      EXPECT_GE(at, last);
      last = at;
      ++executed;
    }));
  }
  // Cancel a random subset.
  long cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    sim.cancel(ids[i]);
    ++cancelled;
  }
  sim.run();
  EXPECT_EQ(executed, 5000 - cancelled);
  EXPECT_EQ(sim.executed_events(), static_cast<std::uint64_t>(executed));
}

TEST(EngineStress, InterleavedSchedulingDuringExecution) {
  sim::Simulator sim;
  util::Rng rng(124);
  long fired = 0;
  std::function<void(int)> chain = [&](int depth) {
    ++fired;
    if (depth <= 0) return;
    int fanout = static_cast<int>(rng.uniform_int(1, 2));
    for (int i = 0; i < fanout; ++i) {
      sim.schedule_after(rng.uniform(0.01, 1.0),
                         [&chain, depth] { chain(depth - 1); });
    }
  };
  sim.schedule_at(0.0, [&] { chain(12); });
  sim.run();
  EXPECT_GT(fired, 12);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace netsel::remos
