// Reproduction of the paper's Figure 1: a Remos logical topology graph of a
// simple network — switches as boxes, compute nodes as ellipses, links
// labelled with capacity — plus the Fig. 4 testbed graph, both validated
// and emitted as Graphviz DOT. Also demonstrates the snapshot annotation
// (available bandwidth under live traffic) that the node selection
// procedures consume.

#include <cstdio>

#include "remos/remos.hpp"
#include "sim/network_sim.hpp"
#include "topo/dot.hpp"
#include "topo/generators.hpp"
#include "util/table.hpp"

using namespace netsel;

int main() {
  // --- Figure 1: a simple switched network. ---
  topo::TopologyGraph fig1;
  auto sw1 = fig1.add_network("switch-1");
  auto sw2 = fig1.add_network("switch-2");
  auto router = fig1.add_network("router");
  for (int i = 0; i < 3; ++i) {
    auto h = fig1.add_compute("node-" + std::to_string(i + 1));
    fig1.add_link(sw1, h, topo::k100Mbps);
  }
  for (int i = 3; i < 5; ++i) {
    auto h = fig1.add_compute("node-" + std::to_string(i + 1));
    fig1.add_link(sw2, h, topo::k100Mbps);
  }
  fig1.add_link(sw1, router, topo::k100Mbps);
  fig1.add_link(sw2, router, topo::k155Mbps);
  fig1.validate();
  std::printf("== Figure 1: Remos graph of a simple network ==\n");
  std::printf("%zu nodes (%zu compute), %zu links, acyclic=%s\n\n",
              fig1.node_count(), fig1.compute_node_count(), fig1.link_count(),
              fig1.is_acyclic() ? "yes" : "no");
  topo::DotOptions d1;
  d1.graph_name = "figure1";
  std::printf("%s\n", topo::to_dot(fig1, d1).c_str());

  // --- Figure 4 testbed with a live snapshot annotation. ---
  sim::NetworkSim net(topo::testbed());
  const auto& g = net.topology();
  auto m3 = g.find_node("m-3").value();
  auto m15 = g.find_node("m-15").value();
  net.network().start_flow(m3, m15, 1e12, sim::kBackgroundOwner);
  remos::Remos remos(net);
  remos.start();
  net.sim().run_until(10.0);
  auto snap = remos.snapshot();

  std::printf("== Figure 4 testbed: measured availability snapshot ==\n");
  util::TextTable t;
  t.header({"Link", "Capacity", "Available", "bwfactor"});
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    auto id = static_cast<topo::LinkId>(l);
    if (snap.bwfactor(id) > 0.999) continue;  // print only impacted links
    t.row({g.link_name(id), util::fmt_mbps(snap.maxbw(id)),
           util::fmt_mbps(snap.bw(id)), util::fmt(snap.bwfactor(id), 3)});
  }
  std::printf("%s\n(unlisted links are fully available; the flow m-3 -> m-15 "
              "crosses both routers)\n\n",
              t.render().c_str());

  topo::DotOptions d4;
  d4.graph_name = "figure4_testbed";
  d4.link_labels.resize(g.link_count());
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    auto id = static_cast<topo::LinkId>(l);
    d4.link_labels[l] = util::fmt(snap.bw(id) / 1e6, 0) + "/" +
                        util::fmt(snap.maxbw(id) / 1e6, 0) + " Mbps";
  }
  std::printf("%s\n", topo::to_dot(g, d4).c_str());
  return 0;
}
