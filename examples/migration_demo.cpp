// Dynamic migration demo (paper §3.3): a long-running loosely-synchronous
// job starts on the best available nodes; 5 minutes in, heavy external jobs
// land on two of them. The MigrationController, querying Remos with the
// application's own load excluded, detects the degradation and moves the
// job (paying a state-transfer cost) — and the run finishes far sooner
// than it would have on the original nodes.

#include <cstdio>

#include "api/migration.hpp"
#include "remos/remos.hpp"
#include "select/algorithms.hpp"
#include "sim/network_sim.hpp"
#include "topo/generators.hpp"

using namespace netsel;

namespace {

appsim::LooselySyncConfig job() {
  appsim::LooselySyncConfig cfg;
  cfg.num_nodes = 4;
  cfg.iterations = 900;
  cfg.phases = {appsim::PhaseSpec{1.0, 1e6, appsim::CommPattern::AllToAll}};
  return cfg;
}

double run(bool with_migration) {
  sim::NetworkSim net(topo::testbed());
  remos::Remos remos(net);
  remos.start();
  net.sim().run_until(10.0);

  select::SelectionOptions sel;
  sel.num_nodes = 4;
  auto chosen = select::select_balanced(remos.snapshot(), sel);

  appsim::LooselySynchronousApp app(net, job());
  app.start(chosen.nodes);

  api::MigrationPolicy policy;
  policy.check_interval = 20.0;
  policy.improvement_threshold = 0.5;
  policy.state_bytes_per_node = 16e6;
  policy.cooldown = 60.0;
  api::MigrationController controller(remos, app, policy, sel);
  if (with_migration) controller.start();

  // The hotspot: at t=300 two of the job's nodes each receive two large
  // competing jobs that persist for the rest of the run.
  net.sim().schedule_at(300.0, [&net, &app] {
    for (std::size_t i = 0; i < 2; ++i) {
      net.host(app.placement()[i]).submit(1e9, sim::kBackgroundOwner);
      net.host(app.placement()[i]).submit(1e9, sim::kBackgroundOwner);
    }
  });

  while (!app.finished() && net.sim().step()) {
  }
  if (with_migration) {
    std::printf("  migrations triggered: %d (job moved to ",
                controller.migrations_triggered());
    for (auto n : app.placement())
      std::printf("%s ", std::string(net.topology().node_name(n)).c_str());
    std::printf(")\n");
  }
  return app.elapsed();
}

}  // namespace

int main() {
  std::printf("== Dynamic migration of a long-running job ==\n");
  std::printf("900 iterations (~15 min unloaded); hotspot lands on 2 of its "
              "4 nodes at t=300 s\n\n");
  std::printf("without migration:\n");
  double fixed = run(false);
  std::printf("  completion: %.1f s\n\n", fixed);
  std::printf("with MigrationController:\n");
  double moved = run(true);
  std::printf("  completion: %.1f s\n\n", moved);
  std::printf("improvement: %.1f%%\n", (fixed - moved) / fixed * 100.0);
  return 0;
}
