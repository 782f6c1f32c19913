// Magnetic-resonance-imaging task farm (the paper's third application):
// a master distributes per-image processing tasks to slaves, which is
// "a master-slave protocol ... that automatically adapts if a compute or
// communication step slows down" (§4.3). This example shows that
// adaptivity directly: one slave's host is loaded mid-run and the farm
// shifts work to the others — then contrasts a placement chosen by the
// balanced algorithm with one that includes a known-busy node.

#include <cstdio>

#include "appsim/master_slave.hpp"
#include "appsim/presets.hpp"
#include "remos/remos.hpp"
#include "select/algorithms.hpp"
#include "sim/network_sim.hpp"
#include "topo/generators.hpp"
#include "util/table.hpp"

using namespace netsel;

namespace {

void report(const sim::NetworkSim& net, const appsim::MasterSlaveApp& app,
            const std::vector<topo::NodeId>& nodes) {
  std::printf("  master %s; per-slave task counts:",
              std::string(net.topology().node_name(nodes[0])).c_str());
  const auto& per = app.per_slave_completed();
  for (std::size_t s = 0; s < per.size(); ++s) {
    const std::string slave(net.topology().node_name(nodes[s + 1]));
    std::printf("  %s=%d", slave.c_str(), per[s]);
  }
  std::printf("\n  total time: %.1f s\n\n", app.elapsed());
}

}  // namespace

int main() {
  std::printf("== MRI task farm (epi dataset, 240 images, 3 slaves) ==\n\n");

  // --- Run 1: idle testbed, farm balances evenly. ---
  {
    sim::NetworkSim net(topo::testbed());
    auto cfg = appsim::mri();
    appsim::MasterSlaveApp app(net, cfg);
    std::vector<topo::NodeId> nodes;
    for (const char* n : {"m-1", "m-2", "m-3", "m-4"})
      nodes.push_back(net.topology().find_node(n).value());
    app.start(nodes);
    while (!app.finished() && net.sim().step()) {
    }
    std::printf("idle testbed:\n");
    report(net, app, nodes);
  }

  // --- Run 2: slave m-4 gets hit by external load mid-run; the farm
  // adapts by itself (no migration needed). ---
  {
    sim::NetworkSim net(topo::testbed());
    appsim::MasterSlaveApp app(net, appsim::mri());
    std::vector<topo::NodeId> nodes;
    for (const char* n : {"m-1", "m-2", "m-3", "m-4"})
      nodes.push_back(net.topology().find_node(n).value());
    net.sim().schedule_at(120.0, [&] {
      // Two long jobs land on m-4 and stay for the rest of the run.
      net.host(nodes[3]).submit(1e9, sim::kBackgroundOwner);
      net.host(nodes[3]).submit(1e9, sim::kBackgroundOwner);
    });
    app.start(nodes);
    while (!app.finished() && net.sim().step()) {
    }
    std::printf("m-4 loaded 3x from t=120 s (farm self-balances):\n");
    report(net, app, nodes);
  }

  // --- Run 3: node selection avoids the busy node up front. ---
  {
    sim::NetworkSim net(topo::testbed());
    auto m4 = net.topology().find_node("m-4").value();
    net.host(m4).submit(1e9, sim::kBackgroundOwner);
    net.host(m4).submit(1e9, sim::kBackgroundOwner);
    remos::Remos remos(net);
    net.sim().run_until(600.0);
    remos.start();
    select::SelectionOptions opt;
    opt.num_nodes = 4;
    auto chosen = select::select_balanced(remos.snapshot(), opt);
    appsim::MasterSlaveApp app(net, appsim::mri());
    app.start(chosen.nodes);
    while (!app.finished() && net.sim().step()) {
    }
    std::printf("automatic selection with m-4 already busy:\n");
    report(net, app, chosen.nodes);
  }
  return 0;
}
