// Quickstart: the full netsel pipeline in ~60 lines.
//
// 1. Build the paper's Fig. 4 testbed (18 Alphas, 3 routers) as a simulated
//    network.
// 2. Turn on background host load and network traffic (§4.2 generators).
// 3. Start the Remos monitor and query a logical-topology snapshot.
// 4. Select 4 nodes with the balanced algorithm (Fig. 3) and compare with a
//    random placement by running the FFT workload on both.

#include <cstdio>

#include "appsim/loosely_synchronous.hpp"
#include "appsim/presets.hpp"
#include "exp/experiment.hpp"
#include "load/load_generator.hpp"
#include "load/traffic_generator.hpp"
#include "remos/remos.hpp"
#include "select/algorithms.hpp"
#include "sim/network_sim.hpp"
#include "topo/generators.hpp"

using namespace netsel;

int main() {
  const std::uint64_t seed = 42;

  // One trial with automatic selection, one with random, same seed => same
  // background load and traffic in both runs.
  exp::AppCase fft = exp::fft_case();
  exp::Scenario scenario = exp::table1_scenario(/*load_on=*/true,
                                                /*traffic_on=*/true);

  exp::TrialResult automatic =
      exp::run_trial(fft, scenario, exp::Policy::AutoBalanced, seed);
  exp::TrialResult random =
      exp::run_trial(fft, scenario, exp::Policy::Random, seed);

  auto print = [](const char* label, const exp::TrialResult& r,
                  const topo::TopologyGraph& g) {
    std::printf("%-10s placed on {", label);
    for (std::size_t i = 0; i < r.nodes.size(); ++i) {
      const std::string name(g.node_name(r.nodes[i]));
      std::printf("%s%s", i ? ", " : "", name.c_str());
    }
    std::printf("}  ->  %.1f s\n", r.elapsed);
  };
  topo::TopologyGraph g = topo::testbed();
  print("automatic", automatic, g);
  print("random", random, g);
  std::printf("\nimprovement: %.1f%%\n",
              (random.elapsed - automatic.elapsed) / random.elapsed * 100.0);
  return 0;
}
