// Tests for the client-server custom execution pattern (§3.4) and the
// directional bandwidth machinery under it.

#include <gtest/gtest.h>

#include "api/service.hpp"
#include "select/patterns.hpp"
#include "topo/generators.hpp"

namespace netsel::select {
namespace {

TEST(DirectionalPathBw, DistinguishesDirections) {
  auto g = topo::star(2);
  remos::NetworkSnapshot snap(g);
  // h0's access link: upstream busy, downstream free.
  snap.set_bw_dir(0, true, 10e6);   // sw -> h0? direction semantics: a->b
  // star() adds links (sw, h): a = sw, b = host => forward is sw->host.
  auto h0 = g.find_node("h0").value();
  auto h1 = g.find_node("h1").value();
  // Path h1 -> h0 ends with the sw->h0 direction (forward on link 0).
  EXPECT_NEAR(directional_path_bw(snap, h1, h0).available, 10e6, 1.0);
  // Opposite direction is untouched.
  EXPECT_NEAR(directional_path_bw(snap, h0, h1).available, 100e6, 1.0);
}

TEST(DirectionalPathBw, FractionAgainstStructuralPeak) {
  auto g = topo::testbed();
  remos::NetworkSnapshot snap(g);
  auto m7 = g.find_node("m-7").value();
  auto m13 = g.find_node("m-13").value();
  auto info = directional_path_bw(snap, m7, m13);
  EXPECT_DOUBLE_EQ(info.peak, 100e6);  // access links bound the ATM segment
  EXPECT_DOUBLE_EQ(info.fraction(), 1.0);
  EXPECT_TRUE(std::isinf(directional_path_bw(snap, m7, m7).available));
}

TEST(ClientServer, ServerGetsMaxCompute) {
  auto g = topo::testbed();
  remos::NetworkSnapshot snap(g);
  int i = 0;
  for (auto n : g.compute_nodes()) snap.set_loadavg(n, 0.1 * i++);
  ClientServerOptions opt;
  opt.num_servers = 1;
  opt.num_clients = 3;
  auto r = select_client_server(snap, opt);
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.servers.size(), 1u);
  EXPECT_EQ(g.node_name(r.servers[0]), "m-1");  // least loaded
  EXPECT_EQ(r.clients.size(), 3u);
  // Clients and servers never overlap.
  for (auto c : r.clients) EXPECT_NE(c, r.servers[0]);
}

TEST(ClientServer, ClientsAvoidCongestedDownlinks) {
  auto g = topo::testbed();
  remos::NetworkSnapshot snap(g);
  // Congest the server->client direction of the access links of m-2..m-4
  // (forward = router->host, because testbed adds links as (router, host)).
  for (const char* name : {"m-2", "m-3", "m-4"}) {
    auto h = g.find_node(name).value();
    snap.set_bw_dir(g.links_of(h)[0], true, 1e6);
  }
  ClientServerOptions opt;
  opt.num_servers = 1;
  opt.num_clients = 5;
  auto r = select_client_server(snap, opt);
  ASSERT_TRUE(r.feasible);
  for (auto c : r.clients) {
    for (const char* name : {"m-2", "m-3", "m-4"})
      EXPECT_NE(g.node_name(c), name);
  }
}

TEST(ClientServer, UpstreamCongestionDoesNotMatter) {
  // Only server -> client traffic is significant (§3.4): a congested
  // *upstream* (host->router) direction must not penalise a client.
  auto g = topo::testbed();
  remos::NetworkSnapshot snap(g);
  for (auto n : g.compute_nodes()) {
    // Make m-5 clearly the best client by cpu except for its upstream.
    snap.set_loadavg(n, g.node_name(n) == "m-5" ? 0.0 : 0.5);
  }
  auto m5 = g.find_node("m-5").value();
  snap.set_bw_dir(g.links_of(m5)[0], false, 1e3);  // host->router direction
  ClientServerOptions opt;
  opt.num_servers = 1;
  opt.num_clients = 1;
  // Pin the server elsewhere so m-5 stays in the client pool.
  opt.server_eligible.assign(g.node_count(), 0);
  opt.server_eligible[static_cast<std::size_t>(g.find_node("m-1").value())] = 1;
  auto r = select_client_server(snap, opt);
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.clients.size(), 1u);
  EXPECT_EQ(r.clients[0], m5);
}

TEST(ClientServer, EligibilityMasksRespected) {
  auto g = topo::testbed();
  remos::NetworkSnapshot snap(g);
  ClientServerOptions opt;
  opt.num_servers = 1;
  opt.num_clients = 2;
  opt.server_eligible.assign(g.node_count(), 0);
  auto m9 = g.find_node("m-9").value();
  opt.server_eligible[static_cast<std::size_t>(m9)] = 1;
  auto r = select_client_server(snap, opt);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.servers[0], m9);
  // Empty server pool is infeasible.
  opt.server_eligible.assign(g.node_count(), 0);
  EXPECT_FALSE(select_client_server(snap, opt).feasible);
}

TEST(ClientServer, Rejections) {
  auto g = topo::star(4);
  remos::NetworkSnapshot snap(g);
  ClientServerOptions opt;
  opt.num_servers = 0;
  EXPECT_THROW(select_client_server(snap, opt), std::invalid_argument);
  opt.num_servers = 1;
  opt.cpu_priority = 0.0;
  EXPECT_THROW(select_client_server(snap, opt), std::invalid_argument);
  opt.cpu_priority = 1.0;
  opt.server_eligible.assign(2, 1);
  EXPECT_THROW(select_client_server(snap, opt), std::invalid_argument);
  opt.server_eligible.clear();
  opt.num_clients = 10;  // only 3 non-server nodes remain
  EXPECT_FALSE(select_client_server(snap, opt).feasible);
}

}  // namespace
}  // namespace netsel::select

namespace netsel::api {
namespace {

TEST(ServiceClientServer, PatternRoutesToDirectionalSelection) {
  sim::NetworkSim net(topo::testbed());
  // Load a specific node so the server choice is deterministic: everything
  // except m-7 is lightly loaded.
  for (auto n : net.topology().compute_nodes()) {
    if (net.topology().node_name(n) != "m-7")
      net.host(n).submit(1e9, sim::kBackgroundOwner);
  }
  net.sim().run_until(600.0);
  remos::Remos remos(net);
  remos.start();

  AppSpec spec;
  spec.pattern = AppPattern::ClientServer;
  NodeGroup server;
  server.name = "server";
  server.count = 1;
  server.placement_priority = 10;
  NodeGroup clients;
  clients.name = "clients";
  clients.count = 4;
  spec.groups = {server, clients};

  NodeSelectionService svc(remos);
  auto placement = svc.place(spec);
  ASSERT_TRUE(placement.feasible);
  ASSERT_EQ(placement.group_nodes[0].size(), 1u);
  EXPECT_EQ(net.topology().node_name(placement.group_nodes[0][0]), "m-7");
  EXPECT_EQ(placement.group_nodes[1].size(), 4u);
}

}  // namespace
}  // namespace netsel::api
