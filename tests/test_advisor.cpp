// Tests for the performance models and the node-count advisor (§3.4
// "Variable number of execution nodes"): predictions are validated against
// the simulator, and the advisor must pick sensible node counts for strong-
// scaling workloads.

#include <gtest/gtest.h>

#include "api/advisor.hpp"
#include "appsim/presets.hpp"
#include "topo/parse.hpp"
#include "topo/generators.hpp"

namespace netsel::api {
namespace {

std::vector<topo::NodeId> first_hosts(const sim::NetworkSim& net, int m) {
  auto cn = net.topology().compute_nodes();
  cn.resize(static_cast<std::size_t>(m));
  return cn;
}

double simulate_ls(const appsim::LooselySyncConfig& cfg) {
  sim::NetworkSim net(topo::star(cfg.num_nodes));
  appsim::LooselySynchronousApp app(net, cfg);
  app.start(first_hosts(net, cfg.num_nodes));
  net.sim().run();
  return app.elapsed();
}

double simulate_ms(const appsim::MasterSlaveConfig& cfg) {
  sim::NetworkSim net(topo::star(cfg.num_nodes));
  appsim::MasterSlaveApp app(net, cfg);
  app.start(first_hosts(net, cfg.num_nodes));
  net.sim().run();
  return app.elapsed();
}

TEST(PredictLooselySync, MatchesSimulatorOnIdleStar) {
  for (const auto& cfg : {appsim::fft1k(), appsim::airshed()}) {
    topo::TopologyGraph g = topo::star(cfg.num_nodes);
    remos::NetworkSnapshot snap(g);
    auto nodes = g.compute_nodes();
    double predicted = predict_loosely_synchronous(cfg, snap, nodes);
    double simulated = simulate_ls(cfg);
    EXPECT_NEAR(predicted, simulated, simulated * 0.10)
        << "app with " << cfg.num_nodes << " nodes";
  }
}

TEST(PredictLooselySync, LoadScalesComputePart) {
  appsim::LooselySyncConfig cfg;
  cfg.num_nodes = 4;
  cfg.iterations = 10;
  cfg.phases = {appsim::PhaseSpec{2.0, 0.0, appsim::CommPattern::None}};
  topo::TopologyGraph g = topo::star(4);
  remos::NetworkSnapshot snap(g);
  auto nodes = g.compute_nodes();
  EXPECT_DOUBLE_EQ(predict_loosely_synchronous(cfg, snap, nodes), 20.0);
  snap.set_cpu(nodes[2], 0.5);  // one slow node gates every iteration
  EXPECT_DOUBLE_EQ(predict_loosely_synchronous(cfg, snap, nodes), 40.0);
}

TEST(PredictLooselySync, CongestionScalesCommPart) {
  appsim::LooselySyncConfig cfg;
  cfg.num_nodes = 2;
  cfg.iterations = 4;
  cfg.phases = {appsim::PhaseSpec{0.0, 12.5e6, appsim::CommPattern::Ring}};
  topo::TopologyGraph g = topo::star(2);
  remos::NetworkSnapshot snap(g);
  auto nodes = g.compute_nodes();
  EXPECT_DOUBLE_EQ(predict_loosely_synchronous(cfg, snap, nodes), 4.0);
  snap.set_bw(0, 50e6);
  EXPECT_DOUBLE_EQ(predict_loosely_synchronous(cfg, snap, nodes), 8.0);
}

TEST(PredictMasterSlave, MatchesSimulatorOnIdleStar) {
  auto cfg = appsim::mri();
  topo::TopologyGraph g = topo::star(cfg.num_nodes);
  remos::NetworkSnapshot snap(g);
  auto nodes = g.compute_nodes();
  double predicted = predict_master_slave(cfg, snap, nodes);
  double simulated = simulate_ms(cfg);
  EXPECT_NEAR(predicted, simulated, simulated * 0.15);
}

TEST(PredictMasterSlave, SlowSlaveReducesThroughputGracefully) {
  appsim::MasterSlaveConfig cfg;
  cfg.num_nodes = 4;
  cfg.num_tasks = 120;
  cfg.task_work = 2.0;
  cfg.input_bytes = 0.0;
  cfg.output_bytes = 0.0;
  topo::TopologyGraph g = topo::star(4);
  remos::NetworkSnapshot snap(g);
  auto nodes = g.compute_nodes();
  double idle = predict_master_slave(cfg, snap, nodes);
  EXPECT_NEAR(idle, 120.0 / (3.0 / 2.0), 1e-9);  // 80 s
  snap.set_cpu(nodes[3], 0.5);  // one slave at half speed
  double degraded = predict_master_slave(cfg, snap, nodes);
  // Throughput 0.5+0.5+0.25 = 1.25 tasks/s -> 96 s: adapts, not 2x.
  EXPECT_NEAR(degraded, 96.0, 1e-9);
}

TEST(Predict, Rejections) {
  auto cfg = appsim::fft1k();
  topo::TopologyGraph g = topo::star(3);
  remos::NetworkSnapshot snap(g);
  EXPECT_THROW(predict_loosely_synchronous(cfg, snap, g.compute_nodes()),
               std::invalid_argument);
  auto ms = appsim::mri();
  EXPECT_THROW(predict_master_slave(ms, snap, g.compute_nodes()),
               std::invalid_argument);
}

TEST(ChooseNodeCount, StrongScalingSweetSpot) {
  // Strong scaling: total work fixed at 96 cpu-seconds per iteration, but
  // the all-to-all transpose volume per node is fixed, so communication
  // grows with m. Prediction should find an interior optimum (neither the
  // minimum nor maximum m).
  topo::TopologyGraph g = topo::star(16);
  remos::NetworkSnapshot snap(g);
  auto config_for_m = [](int m) {
    appsim::LooselySyncConfig cfg;
    cfg.num_nodes = m;
    cfg.iterations = 10;
    cfg.phases = {
        appsim::PhaseSpec{96.0 / m, 16e6, appsim::CommPattern::AllToAll}};
    return cfg;
  };
  NodeCountOptions opt;
  opt.min_nodes = 2;
  opt.max_nodes = 16;
  auto choice = choose_node_count(
      std::function<appsim::LooselySyncConfig(int)>(config_for_m), snap, opt);
  ASSERT_TRUE(choice.feasible);
  EXPECT_GT(choice.num_nodes, 2);
  EXPECT_LT(choice.num_nodes, 16);
  EXPECT_EQ(choice.predictions.size(), 15u);
  EXPECT_EQ(static_cast<int>(choice.nodes.size()), choice.num_nodes);
  // The chosen prediction is the minimum of the sweep.
  for (double p : choice.predictions)
    EXPECT_LE(choice.predicted_seconds, p + 1e-9);
}

TEST(ChooseNodeCount, AdvisorAvoidsLoadedNodesViaSelection) {
  // With half the hosts heavily loaded, the advisor should both cap m at
  // the number of healthy nodes and place on them.
  topo::TopologyGraph g = topo::star(8);
  remos::NetworkSnapshot snap(g);
  for (int i = 4; i < 8; ++i)
    snap.set_loadavg(g.compute_nodes()[static_cast<std::size_t>(i)], 9.0);
  auto config_for_m = [](int m) {
    appsim::LooselySyncConfig cfg;
    cfg.num_nodes = m;
    cfg.iterations = 1;
    cfg.phases = {appsim::PhaseSpec{100.0 / m, 0.0, appsim::CommPattern::None}};
    return cfg;
  };
  NodeCountOptions opt;
  opt.min_nodes = 2;
  opt.max_nodes = 8;
  auto choice = choose_node_count(
      std::function<appsim::LooselySyncConfig(int)>(config_for_m), snap, opt);
  ASSERT_TRUE(choice.feasible);
  // 4 idle nodes at 100/m vs including a 0.1-cpu node: for m=5 the gated
  // time is (100/5)/0.1 = 200 vs m=4 at 25. Must pick m = 4.
  EXPECT_EQ(choice.num_nodes, 4);
  for (auto n : choice.nodes) EXPECT_DOUBLE_EQ(snap.cpu(n), 1.0);
}

TEST(ChooseNodeCount, MasterSlaveWidthChoice) {
  // Farm width: more slaves help until the master's access link saturates
  // with input traffic (the model's 1/slaves share captures this).
  topo::TopologyGraph g = topo::star(12);
  remos::NetworkSnapshot snap(g);
  auto config_for_m = [](int m) {
    appsim::MasterSlaveConfig cfg;
    cfg.num_nodes = m;
    cfg.num_tasks = 200;
    cfg.task_work = 1.0;
    cfg.input_bytes = 4e6;  // 0.32 s at full rate: io-heavy farm
    cfg.output_bytes = 0.0;
    return cfg;
  };
  NodeCountOptions opt;
  opt.min_nodes = 2;
  opt.max_nodes = 12;
  auto choice = choose_node_count(
      std::function<appsim::MasterSlaveConfig(int)>(config_for_m), snap, opt);
  ASSERT_TRUE(choice.feasible);
  EXPECT_GT(choice.num_nodes, 2);
  // Predictions should not improve meaningfully past the io saturation
  // point: the best prediction beats the widest farm by < 5% or the widest
  // farm is simply not the chosen one.
  EXPECT_LE(choice.predicted_seconds, choice.predictions.back() + 1e-9);
}

/// Three-switch WAN: swA's 4 hosts are moderately loaded; swB and swC hold
/// 2 idle hosts each. The pairwise-availability metric loves the spread
/// idle set {b*, c*} (every link idle, cpu 1.0) but an all-to-all's own
/// concurrent messages pile 4 deep on the trunks — the §3.4 "simultaneous
/// traffic streams" blind spot.
struct ContentionFixture {
  topo::TopologyGraph g;
  remos::NetworkSnapshot snap{[this] {
    auto swA = g.add_network("swA");
    auto swB = g.add_network("swB");
    auto swC = g.add_network("swC");
    g.add_link(swA, swB, 100e6);
    g.add_link(swA, swC, 100e6);
    for (int i = 0; i < 4; ++i)
      g.add_link(swA, g.add_compute(name('a', i)), 100e6);
    for (int i = 0; i < 2; ++i)
      g.add_link(swB, g.add_compute(name('b', i)), 100e6);
    for (int i = 0; i < 2; ++i)
      g.add_link(swC, g.add_compute(name('c', i)), 100e6);
    g.validate();
    return std::cref(g);
  }()};

  ContentionFixture() {
    for (int i = 0; i < 4; ++i)
      snap.set_loadavg(g.find_node(name('a', i)).value(), 0.5);
  }

  /// Host name: the switch's letter and an index.
  static std::string name(char prefix, int i) {
    std::string s(1, prefix);
    s += std::to_string(i);
    return s;
  }

  appsim::LooselySyncConfig app(double work, double bytes) const {
    appsim::LooselySyncConfig cfg;
    cfg.num_nodes = 4;
    cfg.iterations = 20;
    cfg.phases = {appsim::PhaseSpec{work, bytes, appsim::CommPattern::AllToAll}};
    return cfg;
  }

  /// Run the app on a fresh copy of the topology. The network is idle in
  /// this run (fractional load averages are not expressible as discrete
  /// competing jobs), which isolates exactly the self-contention effect
  /// the comm-heavy comparison cares about.
  double simulate(const appsim::LooselySyncConfig& cfg,
                  const std::vector<std::string>& names) const {
    sim::NetworkSim net(topo::parse_topology(topo::format_topology(g)));
    appsim::LooselySynchronousApp application(net, cfg);
    std::vector<topo::NodeId> nodes;
    for (const auto& n : names)
      nodes.push_back(net.topology().find_node(n).value());
    application.start(nodes);
    while (!application.finished() && net.sim().step()) {
    }
    return application.elapsed();
  }
};

TEST(PlaceWithModel, OvercomesSimultaneousStreamsBlindSpot) {
  ContentionFixture fx;
  // Comm-heavy: 12.5 MB per pair; the spread set pays 4 concurrent
  // messages per trunk direction (4 s/phase) vs 3 on an access link for
  // the swA cluster (3 s/phase).
  auto cfg = fx.app(0.5, 12.5e6);
  auto choice = api::place_with_model(cfg, fx.snap);
  ASSERT_TRUE(choice.feasible);
  for (auto n : choice.nodes)
    EXPECT_EQ(fx.g.node_name(n)[0], 'a')
        << "must cluster under swA (winner came from '" << choice.source
        << "')";
  // The pairwise-availability metric picks the spread idle set instead.
  select::SelectionOptions sopt;
  sopt.num_nodes = 4;
  auto balanced = select::select_balanced(fx.snap, sopt);
  ASSERT_TRUE(balanced.feasible);
  bool spread = false;
  for (auto n : balanced.nodes)
    if (fx.g.node_name(n)[0] != 'a') spread = true;
  EXPECT_TRUE(spread) << "availability metric should be misled here";
  // And the model's ranking is confirmed by simulation (idle-network
  // comparison isolates the self-contention effect).
  double t_cluster =
      fx.simulate(cfg, {"a0", "a1", "a2", "a3"});
  double t_spread = fx.simulate(cfg, {"b0", "b1", "c0", "c1"});
  EXPECT_LT(t_cluster, t_spread);
}

TEST(PlaceWithModel, FallsBackToSpreadWhenCommIsLight) {
  ContentionFixture fx;
  // Tiny messages: compute dominates, the idle spread set wins.
  auto cfg = fx.app(0.5, 1e5);
  auto choice = api::place_with_model(cfg, fx.snap);
  ASSERT_TRUE(choice.feasible);
  for (auto n : choice.nodes)
    EXPECT_NE(fx.g.node_name(n)[0], 'a') << "idle spread nodes must win";
  EXPECT_LT(choice.predicted_seconds, 15.0);
}

TEST(PlaceWithModel, InfeasibleWhenTooFewNodes) {
  ContentionFixture fx;
  auto cfg = fx.app(1.0, 1e5);
  cfg.num_nodes = 99;
  auto choice = api::place_with_model(cfg, fx.snap);
  EXPECT_FALSE(choice.feasible);
}

TEST(ChooseNodeCount, Rejections) {
  topo::TopologyGraph g = topo::star(4);
  remos::NetworkSnapshot snap(g);
  NodeCountOptions opt;
  opt.min_nodes = 5;
  opt.max_nodes = 3;
  auto cfg_fn = [](int m) {
    appsim::LooselySyncConfig cfg;
    cfg.num_nodes = m;
    cfg.iterations = 1;
    cfg.phases = {appsim::PhaseSpec{1.0, 0.0, appsim::CommPattern::None}};
    return cfg;
  };
  EXPECT_THROW(choose_node_count(
                   std::function<appsim::LooselySyncConfig(int)>(cfg_fn), snap,
                   opt),
               std::invalid_argument);
  // A config function that lies about m.
  opt.min_nodes = 2;
  opt.max_nodes = 3;
  auto liar = [](int) {
    appsim::LooselySyncConfig cfg;
    cfg.num_nodes = 99;
    cfg.iterations = 1;
    cfg.phases = {appsim::PhaseSpec{1.0, 0.0, appsim::CommPattern::None}};
    return cfg;
  };
  EXPECT_THROW(choose_node_count(
                   std::function<appsim::LooselySyncConfig(int)>(liar), snap,
                   opt),
               std::invalid_argument);
  // Infeasible range (not enough nodes) is reported, not thrown.
  opt.min_nodes = 6;
  opt.max_nodes = 7;
  auto choice = choose_node_count(
      std::function<appsim::LooselySyncConfig(int)>(cfg_fn), snap, opt);
  EXPECT_FALSE(choice.feasible);
}

}  // namespace
}  // namespace netsel::api
