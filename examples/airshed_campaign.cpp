// Airshed pollution-modelling campaign: run several 6-hour Airshed
// simulations back to back on the shared testbed, selecting nodes fresh
// before each run through the application-spec interface (§2.1) — the
// workflow a scientist would use on the CMU testbed. Demonstrates:
//   - AppSpec with a loosely-synchronous pattern and 5-node requirement,
//   - NodeSelectionService placement from live Remos measurements,
//   - per-run placement changing as background conditions move.

#include <cstdio>

#include "api/service.hpp"
#include "appsim/loosely_synchronous.hpp"
#include "appsim/presets.hpp"
#include "exp/experiment.hpp"
#include "load/load_generator.hpp"
#include "load/traffic_generator.hpp"
#include "topo/generators.hpp"
#include "util/table.hpp"

using namespace netsel;

int main() {
  sim::NetworkSim net(topo::testbed());
  util::Rng master(2026);

  // Background activity per the paper's §4.2 generators.
  exp::Scenario scen = exp::table1_scenario(true, true);
  load::HostLoadGenerator loadgen(net, scen.load, master.fork("load"));
  load::TrafficGenerator trafficgen(net, scen.traffic, master.fork("traffic"));
  remos::Remos remos(net);
  loadgen.start();
  trafficgen.start();
  remos.start();
  net.sim().run_until(600.0);

  api::NodeSelectionService service(remos);
  api::AppSpec spec =
      api::AppSpec::spmd("airshed", 5, api::AppPattern::LooselySynchronous);
  spec.groups[0].required_tags = {"alpha"};  // Airshed is built for Alphas

  std::printf("== Airshed campaign: 5 runs with per-run node selection ==\n\n");
  util::TextTable t;
  t.header({"run", "selected nodes", "execution time"});
  for (int run = 0; run < 5; ++run) {
    auto placement = service.place(spec);
    if (!placement.feasible) {
      std::fprintf(stderr, "placement failed: %s\n", placement.note.c_str());
      return 1;
    }
    auto nodes = placement.flat();
    std::string names;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (i) names += " ";
      names += net.topology().node_name(nodes[i]);
    }

    appsim::LooselySynchronousApp app(net, appsim::airshed());
    app.start(nodes);
    while (!app.finished()) {
      if (!net.sim().step()) break;
    }
    t.row({std::to_string(run + 1), names, util::fmt(app.elapsed(), 1) + " s"});
    // Let the network drift before the next campaign run.
    net.sim().run_until(net.sim().now() + 120.0);
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("(150 s is the unloaded reference; placements move as load and\n"
              "traffic shift between runs.)\n");
  return 0;
}
