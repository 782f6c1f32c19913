// Reproduction of the paper's Figure 4 scenario: a bulk traffic stream runs
// from m-16 to m-18 (both on the suez router); the automatic node selection
// procedures, fed by Remos measurements, choose 4 nodes that avoid the
// congested subtree, while random selection regularly lands on it. Prints
// the selections, the resulting FFT execution times, and the annotated
// topology in Graphviz DOT form (the paper's figure shows the chosen nodes
// with bold borders).

#include <cstdio>

#include "appsim/loosely_synchronous.hpp"
#include "appsim/presets.hpp"
#include "load/traffic_generator.hpp"
#include "remos/remos.hpp"
#include "select/algorithms.hpp"
#include "sim/network_sim.hpp"
#include "topo/dot.hpp"
#include "topo/generators.hpp"
#include "util/table.hpp"

using namespace netsel;

namespace {

double run_fft_on(sim::NetworkSim& net, const std::vector<topo::NodeId>& nodes) {
  appsim::LooselySynchronousApp app(net, appsim::fft1k());
  app.start(nodes);
  while (!app.finished()) {
    if (!net.sim().step()) break;
  }
  return app.elapsed();
}

std::string names_of(const topo::TopologyGraph& g,
                     const std::vector<topo::NodeId>& nodes) {
  std::string out = "{";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i) out += ", ";
    out += g.node_name(nodes[i]);
  }
  return out + "}";
}

}  // namespace

int main() {
  sim::NetworkSim net(topo::testbed());
  const auto& g = net.topology();
  auto m16 = g.find_node("m-16").value();
  auto m18 = g.find_node("m-18").value();

  // The persistent traffic stream of Fig. 4.
  load::BulkStream stream(net, m16, m18);
  stream.start();

  remos::Remos remos(net);
  remos.start();
  net.sim().run_until(30.0);

  std::printf("Traffic stream m-16 -> m-18 active (%s transferred so far)\n\n",
              util::fmt_bytes(stream.bytes_transferred()).c_str());

  auto snap = remos.snapshot();
  select::SelectionOptions opt;
  opt.num_nodes = 4;

  auto balanced = select::select_balanced(snap, opt);
  auto bandwidth = select::select_max_bandwidth(snap, opt);
  util::Rng rng(4);
  auto random = select::select_random(snap, opt, rng);

  std::printf("auto (balanced, Fig. 3):  %s\n", names_of(g, balanced.nodes).c_str());
  std::printf("auto (max-bw,   Fig. 2):  %s\n", names_of(g, bandwidth.nodes).c_str());
  std::printf("random baseline:          %s\n\n", names_of(g, random.nodes).c_str());

  bool avoided = true;
  for (auto n : balanced.nodes) {
    const std::string_view name = g.node_name(n);
    if (name == "m-16" || name == "m-18") avoided = false;
  }
  std::printf("balanced selection avoids the congested endpoints: %s\n",
              avoided ? "YES (matches the paper's figure)" : "NO");

  // Run the FFT on both placements under the live stream.
  double t_auto = run_fft_on(net, balanced.nodes);
  // A deliberately bad placement overlapping the stream's subtree.
  std::vector<topo::NodeId> clash = {m16, m18, g.find_node("m-13").value(),
                                     g.find_node("m-14").value()};
  double t_clash = run_fft_on(net, clash);
  std::printf("\nFFT time on auto-selected nodes: %6.1f s\n", t_auto);
  std::printf("FFT time sharing the stream's subtree: %6.1f s (%.1fx)\n",
              t_clash, t_clash / t_auto);

  topo::DotOptions dot;
  dot.highlight = balanced.nodes;
  dot.graph_name = "figure4";
  std::printf("\n%s\n", topo::to_dot(g, dot).c_str());
  return 0;
}
