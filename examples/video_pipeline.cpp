// Data-parallel pipeline placement (§3.4 custom execution patterns; the
// latency-throughput structure of the authors' pipeline work): a 4-stage
// video-analysis pipeline — capture -> detect -> track -> encode — streams
// 120 frames across the testbed while a bulk transfer congests part of it.
// Compares a naive placement (first four hosts, spanning the congested
// trunk) against select_pipeline's placement, and reports the
// latency/throughput numbers the pattern is about.

#include <cstdio>

#include "appsim/pipeline.hpp"
#include "load/traffic_generator.hpp"
#include "remos/remos.hpp"
#include "select/patterns.hpp"
#include "sim/network_sim.hpp"
#include "topo/generators.hpp"

using namespace netsel;

namespace {

appsim::PipelineConfig video() {
  appsim::PipelineConfig cfg;
  cfg.num_items = 120;
  // capture is cheap, detection is the hot stage, tracking medium,
  // encoding cheap; frames shrink as they move down the pipeline.
  cfg.stage_work = {0.2, 1.5, 0.8, 0.3};
  cfg.transfer_bytes = {6e6, 6e6, 2e6};
  return cfg;
}

struct Outcome {
  double elapsed;
  double latency;
  double throughput;
};

Outcome run(const std::vector<topo::NodeId>& nodes) {
  sim::NetworkSim net(topo::testbed());
  // The interference: a persistent bulk stream congesting panama--gibraltar.
  auto m1 = net.topology().find_node("m-1").value();
  auto m7 = net.topology().find_node("m-7").value();
  load::BulkStream stream(net, m1, m7);
  stream.start();

  appsim::PipelineApp app(net, video());
  app.start(nodes);
  while (!app.finished() && net.sim().step()) {
  }
  return Outcome{app.elapsed(), app.first_item_latency(), app.throughput()};
}

}  // namespace

int main() {
  sim::NetworkSim net(topo::testbed());
  auto m1 = net.topology().find_node("m-1").value();
  auto m7 = net.topology().find_node("m-7").value();
  load::BulkStream stream(net, m1, m7);
  stream.start();
  remos::Remos remos(net);
  remos.start();
  net.sim().run_until(20.0);

  auto cfg = video();
  select::PipelineOptions opt;
  opt.stage_work = cfg.stage_work;
  opt.transfer_bytes = cfg.transfer_bytes;
  auto placed = select::select_pipeline(remos.snapshot(), opt);
  if (!placed.feasible) {
    std::fprintf(stderr, "pipeline placement failed: %s\n", placed.note.c_str());
    return 1;
  }

  // Naive: the first four hosts — m-2 m-3 m-4 m-5 would stay on panama, so
  // make the naive chain span the congested trunk like an uninformed
  // round-robin allocator would.
  std::vector<topo::NodeId> naive;
  for (const char* n : {"m-2", "m-8", "m-3", "m-9"})
    naive.push_back(net.topology().find_node(n).value());

  std::printf("== 4-stage video pipeline under a bulk m-1 -> m-7 stream ==\n\n");
  auto show = [&](const char* label, const std::vector<topo::NodeId>& nodes,
                  const Outcome& o) {
    std::printf("%-18s stages:", label);
    for (auto n : nodes)
      std::printf(" %s", std::string(net.topology().node_name(n)).c_str());
    std::printf("\n  %-16s total %.1f s, first-frame latency %.2f s, "
                "throughput %.2f frames/s\n\n",
                "", o.elapsed, o.latency, o.throughput);
  };
  show("pipeline-aware", placed.stage_nodes, run(placed.stage_nodes));
  std::printf("  (predicted steady-state period %.2f s/frame)\n\n",
              placed.predicted_period);
  show("naive cross-trunk", naive, run(naive));
  return 0;
}
