// Constrained placement through the application-spec interface (§2.1 and
// §3.3): a client-server imaging service where
//   - the server group (1 node) must run on specific licensed hosts and is
//     placed first (higher priority),
//   - the client group (3 nodes) requires the "alpha" architecture tag,
//   - the application demands at least 50 Mbps between any selected nodes
//     and at least 40% available CPU ("fixed computation and communication
//     requirements").
// Shows a feasible placement under light load, then how the fixed
// requirements make the placement infeasible when the testbed saturates.

#include <cstdio>

#include "api/service.hpp"
#include "load/load_generator.hpp"
#include "topo/generators.hpp"

using namespace netsel;

namespace {

api::AppSpec imaging_service() {
  api::AppSpec spec;
  spec.name = "imaging-service";
  spec.pattern = api::AppPattern::ClientServer;
  api::NodeGroup server;
  server.name = "server";
  server.count = 1;
  server.allowed_hosts = {"m-7", "m-8"};  // licence lives on these hosts
  server.placement_priority = 10;
  api::NodeGroup clients;
  clients.name = "clients";
  clients.count = 3;
  clients.required_tags = {"alpha"};
  spec.groups = {server, clients};
  spec.min_bw_bps = 50e6;
  spec.min_cpu_fraction = 0.40;
  return spec;
}

void show(const sim::NetworkSim& net, const api::Placement& p) {
  if (!p.feasible) {
    std::printf("  INFEASIBLE: %s\n", p.note.c_str());
    return;
  }
  const std::string server(net.topology().node_name(p.group_nodes[0][0]));
  std::printf("  server:  %s\n", server.c_str());
  std::printf("  clients:");
  for (auto n : p.group_nodes[1])
    std::printf(" %s", std::string(net.topology().node_name(n)).c_str());
  std::printf("\n");
}

}  // namespace

int main() {
  sim::NetworkSim net(topo::testbed());
  remos::Remos remos(net);
  remos.start();
  net.sim().run_until(5.0);
  api::NodeSelectionService service(remos);
  auto spec = imaging_service();

  std::printf("== Constrained client-server placement ==\n\n");
  std::printf("idle testbed:\n");
  show(net, service.place(spec));

  // Saturate the whole testbed with competing jobs: every node ends up
  // below the 40% CPU floor and placement must be refused, not degraded.
  for (auto n : net.topology().compute_nodes()) {
    net.host(n).submit(1e9, sim::kBackgroundOwner);
    net.host(n).submit(1e9, sim::kBackgroundOwner);
  }
  net.sim().run_until(900.0);
  remos.monitor().poll_once();
  std::printf("\nafter saturating every host (load average ~2):\n");
  show(net, service.place(spec));

  // Relax the CPU floor: the spec becomes feasible again, taking the least
  // bad nodes.
  spec.min_cpu_fraction = 0.0;
  std::printf("\nsame conditions with the CPU floor removed:\n");
  show(net, service.place(spec));
  return 0;
}
