// Cross-module integration tests: the full framework pipeline of the paper
// exercised end to end on the simulated testbed — generators -> Remos ->
// selection -> application execution — plus the Fig. 4 avoidance scenario
// and a miniature Table-1 claim check.

#include <gtest/gtest.h>

#include <chrono>

#include "api/service.hpp"
#include "appsim/presets.hpp"
#include "exp/experiment.hpp"
#include "load/traffic_generator.hpp"
#include "select/objective.hpp"
#include "topo/generators.hpp"
#include "topo/parse.hpp"

namespace netsel {
namespace {

TEST(Integration, Figure4AvoidanceScenario) {
  // The paper's Fig. 4: with a traffic stream m-16 -> m-18, the 4
  // automatically selected nodes avoid the stream's endpoints.
  sim::NetworkSim net(topo::testbed());
  auto m16 = net.topology().find_node("m-16").value();
  auto m18 = net.topology().find_node("m-18").value();
  load::BulkStream stream(net, m16, m18);
  stream.start();
  remos::Remos remos(net);
  remos.start();
  net.sim().run_until(20.0);

  select::SelectionOptions opt;
  opt.num_nodes = 4;
  auto r = select::select_balanced(remos.snapshot(), opt);
  ASSERT_TRUE(r.feasible);
  for (auto n : r.nodes) {
    EXPECT_NE(n, m16);
    EXPECT_NE(n, m18);
  }
  auto ev = select::evaluate_set(remos.snapshot(), r.nodes, opt);
  EXPECT_GT(ev.min_pair_bw, 90e6) << "selected nodes see clean paths";
}

TEST(Integration, SubgraphSelectionAgreesWithFullGraph) {
  // Selecting on the projected "relevant part" around a candidate pool
  // must agree with selecting on the full graph restricted to that pool.
  sim::NetworkSim net(topo::testbed());
  auto m16 = net.topology().find_node("m-16").value();
  auto m18 = net.topology().find_node("m-18").value();
  load::BulkStream stream(net, m16, m18);
  stream.start();
  remos::Remos remos(net);
  remos.start();
  net.sim().run_until(20.0);

  // Pool: all of suez's and gibraltar's hosts.
  std::vector<topo::NodeId> pool;
  for (int i = 7; i <= 18; ++i)
    pool.push_back(net.topology().find_node("m-" + std::to_string(i)).value());

  auto full_snap = remos.snapshot();
  select::SelectionOptions full_opt;
  full_opt.num_nodes = 4;
  full_opt.eligible.assign(net.topology().node_count(), 0);
  for (auto n : pool) full_opt.eligible[static_cast<std::size_t>(n)] = 1;
  auto full = select::select_balanced(full_snap, full_opt);
  ASSERT_TRUE(full.feasible);

  auto sub = remos.logical_subgraph(pool);
  auto sub_snap = remos::project_snapshot(full_snap, sub);
  select::SelectionOptions sub_opt;
  sub_opt.num_nodes = 4;
  auto on_sub = select::select_balanced(sub_snap, sub_opt);
  ASSERT_TRUE(on_sub.feasible);

  std::vector<std::string_view> full_names, sub_names;
  for (auto n : full.nodes) full_names.push_back(net.topology().node_name(n));
  for (auto n : on_sub.nodes) sub_names.push_back(sub.graph.node_name(n));
  EXPECT_EQ(full_names, sub_names);
}

TEST(Integration, ParsedTestbedBehavesLikeBuiltIn) {
  // Round-trip the testbed through the text format and run the FFT
  // reference on the parsed copy: identical result.
  auto parsed = topo::parse_topology(topo::format_topology(topo::testbed()));
  sim::NetworkSim net(std::move(parsed));
  appsim::LooselySynchronousApp app(net, appsim::fft1k());
  std::vector<topo::NodeId> nodes;
  for (const char* n : {"m-1", "m-2", "m-3", "m-4"})
    nodes.push_back(net.topology().find_node(n).value());
  app.start(nodes);
  net.sim().run();
  EXPECT_NEAR(app.elapsed(), 48.0, 0.1);
}

TEST(Integration, ServicePlacementRunsTheApp) {
  // AppSpec -> placement -> execution, under live background activity.
  sim::NetworkSim net(topo::testbed());
  util::Rng master(101);
  exp::Scenario scen = exp::table1_scenario(true, true);
  load::HostLoadGenerator loadgen(net, scen.load, master.fork("load"));
  load::TrafficGenerator trafficgen(net, scen.traffic, master.fork("traffic"));
  remos::Remos remos(net);
  loadgen.start();
  trafficgen.start();
  remos.start();
  net.sim().run_until(300.0);

  api::NodeSelectionService svc(remos);
  auto spec = api::AppSpec::spmd("fft", 4, api::AppPattern::LooselySynchronous);
  auto placement = svc.place(spec);
  ASSERT_TRUE(placement.feasible);

  appsim::LooselySynchronousApp app(net, appsim::fft1k());
  app.start(placement.flat());
  while (!app.finished()) {
    ASSERT_LT(net.sim().now(), 50000.0);
    ASSERT_TRUE(net.sim().step());
  }
  EXPECT_GT(app.elapsed(), 40.0);
  EXPECT_LT(app.elapsed(), 500.0);
}

TEST(Integration, MiniTable1AutoBeatsRandomOverall) {
  // The headline claim in miniature: summed over the three applications
  // under load+traffic, automatic selection reduces total execution time.
  const int trials = 4;
  double total_random = 0.0, total_auto = 0.0;
  for (const auto& app :
       {exp::fft_case(), exp::airshed_case(), exp::mri_case()}) {
    auto s = exp::table1_scenario(true, true);
    total_random +=
        exp::run_cell(app, s, exp::Policy::Random, trials, 31).mean();
    total_auto +=
        exp::run_cell(app, s, exp::Policy::AutoBalanced, trials, 31).mean();
  }
  EXPECT_LT(total_auto, total_random);
}

TEST(Integration, SelectionCostInsignificantVsExecution) {
  // §3.2: "the computation time of these algorithms has been insignificant
  // in comparison with the execution times of the applications" — measure
  // a selection on the testbed snapshot in wall-clock terms and assert it
  // is far below a millisecond (application runs are tens of seconds).
  sim::NetworkSim net(topo::testbed());
  remos::Remos remos(net);
  remos.start();
  net.sim().run_until(5.0);
  auto snap = remos.snapshot();
  select::SelectionOptions opt;
  opt.num_nodes = 4;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 100; ++i) {
    auto r = select::select_balanced(snap, opt);
    ASSERT_TRUE(r.feasible);
  }
  auto dt = std::chrono::steady_clock::now() - t0;
  double per_call =
      std::chrono::duration<double>(dt).count() / 100.0;
  EXPECT_LT(per_call, 5e-3);
}

}  // namespace
}  // namespace netsel
