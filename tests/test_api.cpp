#include <gtest/gtest.h>

#include <set>

#include "api/service.hpp"
#include "obs/metrics.hpp"
#include "select/context.hpp"
#include "topo/generators.hpp"

namespace netsel::api {
namespace {

struct ApiFixture : ::testing::Test {
  sim::NetworkSim net{topo::testbed()};
  remos::Remos remos{net};

  void warm() {
    remos.start();
    net.sim().run_until(net.sim().now() + 4.0);
  }
};

TEST_F(ApiFixture, SpmdSpecValidatesAndCounts) {
  auto spec = AppSpec::spmd("fft", 4, AppPattern::LooselySynchronous);
  EXPECT_NO_THROW(spec.validate());
  EXPECT_EQ(spec.total_nodes(), 4);
  EXPECT_EQ(spec.groups.size(), 1u);
}

TEST_F(ApiFixture, SpecValidationRejections) {
  AppSpec spec;
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // no groups
  spec.groups.push_back(NodeGroup{"g", 0, {}, {}, 0});
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // zero count
  spec.groups[0].count = 2;
  spec.cpu_priority = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.cpu_priority = 1.0;
  spec.min_bw_bps = -1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST_F(ApiFixture, PlacesSpmdGroup) {
  warm();
  NodeSelectionService svc(remos);
  auto spec = AppSpec::spmd("fft", 4, AppPattern::LooselySynchronous);
  auto placement = svc.place(spec);
  ASSERT_TRUE(placement.feasible);
  ASSERT_EQ(placement.group_nodes.size(), 1u);
  EXPECT_EQ(placement.group_nodes[0].size(), 4u);
  EXPECT_EQ(placement.flat().size(), 4u);
}

TEST_F(ApiFixture, AvoidsLoadedNodes) {
  // Load m-1..m-4 heavily; the placement must not use them.
  for (int i = 1; i <= 4; ++i) {
    auto n = net.topology().find_node("m-" + std::to_string(i)).value();
    net.host(n).submit(1e9, sim::kBackgroundOwner);
    net.host(n).submit(1e9, sim::kBackgroundOwner);
  }
  net.sim().run_until(600.0);
  warm();
  NodeSelectionService svc(remos);
  auto spec = AppSpec::spmd("fft", 4, AppPattern::LooselySynchronous);
  auto placement = svc.place(spec);
  ASSERT_TRUE(placement.feasible);
  for (auto n : placement.flat()) {
    for (int i = 1; i <= 4; ++i)
      EXPECT_NE(net.topology().node_name(n), "m-" + std::to_string(i));
  }
}

TEST_F(ApiFixture, GroupTagConstraintsHonoured) {
  warm();
  NodeSelectionService svc(remos);
  AppSpec spec;
  spec.name = "tagged";
  NodeGroup workers;
  workers.name = "workers";
  workers.count = 3;
  workers.required_tags = {"alpha"};  // all testbed hosts carry this
  spec.groups.push_back(workers);
  EXPECT_TRUE(svc.place(spec).feasible);
  spec.groups[0].required_tags = {"sparc"};  // nobody has it
  auto placement = svc.place(spec);
  EXPECT_FALSE(placement.feasible);
  EXPECT_NE(placement.note.find("workers"), std::string::npos);
}

TEST_F(ApiFixture, PinnedHostGroup) {
  warm();
  NodeSelectionService svc(remos);
  AppSpec spec;
  NodeGroup server;
  server.name = "server";
  server.count = 1;
  server.allowed_hosts = {"m-9"};
  server.placement_priority = 10;
  NodeGroup clients;
  clients.name = "clients";
  clients.count = 3;
  spec.groups = {server, clients};
  auto placement = svc.place(spec);
  ASSERT_TRUE(placement.feasible);
  ASSERT_EQ(placement.group_nodes[0].size(), 1u);
  EXPECT_EQ(net.topology().node_name(placement.group_nodes[0][0]), "m-9");
  // The clients must not reuse the server node.
  for (auto n : placement.group_nodes[1])
    EXPECT_NE(net.topology().node_name(n), "m-9");
}

TEST_F(ApiFixture, GroupsDoNotOverlap) {
  warm();
  NodeSelectionService svc(remos);
  AppSpec spec;
  spec.groups = {NodeGroup{"a", 6, {}, {}, 0}, NodeGroup{"b", 6, {}, {}, 0},
                 NodeGroup{"c", 6, {}, {}, 0}};
  auto placement = svc.place(spec);
  ASSERT_TRUE(placement.feasible);
  std::set<topo::NodeId> seen;
  for (auto n : placement.flat()) EXPECT_TRUE(seen.insert(n).second);
  EXPECT_EQ(seen.size(), 18u);
  // A fourth group cannot fit.
  spec.groups.push_back(NodeGroup{"d", 1, {}, {}, 0});
  EXPECT_FALSE(svc.place(spec).feasible);
}

TEST_F(ApiFixture, HigherPriorityGroupPlacedFirst) {
  // Load every node except m-5 lightly; the high-priority group should get
  // the best node even though it is declared second.
  for (auto n : net.topology().compute_nodes()) {
    if (net.topology().node_name(n) != "m-5")
      net.host(n).submit(1e9, sim::kBackgroundOwner);
  }
  net.sim().run_until(600.0);
  warm();
  NodeSelectionService svc(remos);
  AppSpec spec;
  spec.groups = {NodeGroup{"clients", 3, {}, {}, 0},
                 NodeGroup{"server", 1, {}, {}, 5}};
  ServiceOptions opt;
  opt.criterion = select::Criterion::MaxCompute;
  auto placement = svc.place(spec, opt);
  ASSERT_TRUE(placement.feasible);
  EXPECT_EQ(net.topology().node_name(placement.group_nodes[1][0]), "m-5");
}

TEST_F(ApiFixture, CriterionOverrideAndConvenienceSelect) {
  warm();
  NodeSelectionService svc(remos);
  auto r = svc.select(4, select::Criterion::MaxBandwidth);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.nodes.size(), 4u);
  EXPECT_EQ(default_criterion(AppPattern::MasterSlave),
            select::Criterion::Balanced);
}

TEST_F(ApiFixture, PlacementCarriesExplainDataAndReportRendersIt) {
  warm();
  NodeSelectionService svc(remos);
  auto spec = AppSpec::spmd("fft", 4, AppPattern::LooselySynchronous);
  auto placement = svc.place(spec);
  ASSERT_TRUE(placement.feasible);

  // Structured explain fields on the Placement itself.
  EXPECT_EQ(placement.app, "fft");
  EXPECT_EQ(placement.criterion, "balanced");
  EXPECT_FALSE(placement.degradation_reason.empty());
  ASSERT_EQ(placement.groups.size(), 1u);
  const auto& info = placement.groups[0];
  EXPECT_EQ(info.nodes, placement.group_nodes[0]);
  EXPECT_GE(info.candidates, info.nodes.size());
  EXPECT_GT(info.min_cpu, 0.0);
  EXPECT_GT(info.min_bw_fraction, 0.0);
  EXPECT_GT(info.min_pair_bw, 0.0);

  // The text rendering names the app, the chosen nodes, and marks the
  // binding cpu-vs-bandwidth term.
  auto report = explain_report(placement, remos.topology());
  EXPECT_NE(report.find("fft"), std::string::npos);
  EXPECT_NE(report.find("[binding]"), std::string::npos);
  EXPECT_NE(report.find(placement.degradation_reason), std::string::npos);
  for (auto n : placement.group_nodes[0]) {
    EXPECT_NE(report.find(remos.topology().node_name(n)), std::string::npos)
        << report;
  }
}

TEST_F(ApiFixture, InfeasiblePlacementExplainsItself) {
  warm();
  NodeSelectionService svc(remos);
  auto spec = AppSpec::spmd("huge", 500, AppPattern::LooselySynchronous);
  auto placement = svc.place(spec);
  ASSERT_FALSE(placement.feasible);
  EXPECT_EQ(placement.app, "huge");
  auto report = explain_report(placement, remos.topology());
  EXPECT_NE(report.find("infeasible"), std::string::npos) << report;
}

TEST_F(ApiFixture, ClientServerInfeasibleNotesBothGroups) {
  // The pattern-aware client-server path decides both groups jointly; an
  // infeasible outcome must explain itself on *both* group records and in
  // the top-level note, like the generic multi-group path does.
  warm();
  NodeSelectionService svc(remos);
  AppSpec spec;
  spec.name = "cs";
  spec.pattern = AppPattern::ClientServer;
  NodeGroup server;
  server.name = "backend";
  server.count = 1;
  server.allowed_hosts = {"no-such-host"};  // empty server candidate set
  server.placement_priority = 5;
  NodeGroup client;
  client.name = "frontend";
  client.count = 3;
  spec.groups = {server, client};

  obs::set_enabled(true);
  const std::uint64_t before =
      obs::Registry::global().counter("api.placements_infeasible").value();
  auto placement = svc.place(spec);
  const std::uint64_t after =
      obs::Registry::global().counter("api.placements_infeasible").value();
  obs::set_enabled(false);

  ASSERT_FALSE(placement.feasible);
  EXPECT_EQ(after, before + 1);
  ASSERT_EQ(placement.groups.size(), 2u);
  EXPECT_FALSE(placement.groups[0].note.empty());
  EXPECT_EQ(placement.groups[0].note, placement.groups[1].note);
  EXPECT_NE(placement.note.find("'backend'"), std::string::npos)
      << placement.note;
  EXPECT_NE(placement.note.find("'frontend'"), std::string::npos)
      << placement.note;
  EXPECT_NE(placement.note.find(placement.groups[0].note), std::string::npos)
      << placement.note;
}

TEST_F(ApiFixture, MultiGroupPartialFailureKeepsEarlierGroupAndExplains) {
  // Two groups by descending priority: the first places, the second cannot.
  // The placement is infeasible overall but the successful group's nodes,
  // the failed group's candidate count (testbed minus the taken nodes) and
  // both notes must survive on the record.
  warm();
  NodeSelectionService svc(remos);
  AppSpec spec;
  spec.name = "partial";
  spec.groups = {NodeGroup{"small", 4, {}, {}, 10},
                 NodeGroup{"huge", 500, {}, {}, 0}};

  obs::set_enabled(true);
  const std::uint64_t before =
      obs::Registry::global().counter("api.placements_infeasible").value();
  auto placement = svc.place(spec);
  const std::uint64_t after =
      obs::Registry::global().counter("api.placements_infeasible").value();
  obs::set_enabled(false);

  ASSERT_FALSE(placement.feasible);
  EXPECT_EQ(after, before + 1);
  ASSERT_EQ(placement.groups.size(), 2u);
  EXPECT_EQ(placement.groups[0].nodes.size(), 4u);
  EXPECT_EQ(placement.group_nodes[0].size(), 4u);
  const std::size_t total = net.topology().compute_nodes().size();
  EXPECT_EQ(placement.groups[0].candidates, total);
  EXPECT_EQ(placement.groups[1].candidates, total - 4);
  EXPECT_TRUE(placement.groups[1].nodes.empty());
  EXPECT_FALSE(placement.groups[1].note.empty());
  EXPECT_EQ(placement.note.rfind("group 'huge': ", 0), 0u) << placement.note;
}

TEST_F(ApiFixture, SelectHonoursServiceOptionsAndContextPath) {
  warm();
  NodeSelectionService svc(remos);

  // select() runs the same SelectionContext path as place()/reselect():
  // bit-identical to a hand-built context over the ladder's snapshot.
  auto via_service = svc.select(4, select::Criterion::Balanced);
  DegradationLevel level = DegradationLevel::Full;
  remos::QueryQuality quality;
  auto snap = svc.degraded_snapshot({}, {}, level, quality);
  select::SelectionContext ctx(snap);
  select::SelectionOptions sel;
  sel.num_nodes = 4;
  auto direct = select::select_nodes(select::Criterion::Balanced, ctx, sel);
  ASSERT_TRUE(via_service.feasible);
  EXPECT_EQ(via_service.nodes, direct.nodes);
  EXPECT_EQ(via_service.objective, direct.objective);

  // The QueryOptions back-compat overload is the same query under the
  // default policy.
  auto compat = svc.select(4, select::Criterion::Balanced,
                           remos::QueryOptions{});
  EXPECT_EQ(compat.nodes, via_service.nodes);

  // And the caller's degradation policy is honoured, not silently replaced
  // with the default: a threshold above full coverage forces the Smoothed
  // rung, annotated in the note.
  ServiceOptions opt;
  opt.degradation.smoothed_below = 1.1;
  auto degraded = svc.select(4, select::Criterion::Balanced, opt);
  ASSERT_TRUE(degraded.feasible);
  EXPECT_NE(degraded.note.find("degraded: smoothed"), std::string::npos)
      << degraded.note;
}

TEST_F(ApiFixture, SpecLevelRequirementsPropagate) {
  warm();
  NodeSelectionService svc(remos);
  auto spec = AppSpec::spmd("strict", 4, AppPattern::LooselySynchronous);
  spec.min_cpu_fraction = 0.9;  // idle testbed: fine
  EXPECT_TRUE(svc.place(spec).feasible);
  // Load everything; now nothing satisfies 0.9.
  for (auto n : net.topology().compute_nodes()) {
    net.host(n).submit(1e9, sim::kBackgroundOwner);
  }
  net.sim().run_until(1200.0);
  remos.monitor().poll_once();
  EXPECT_FALSE(svc.place(spec).feasible);
}

}  // namespace
}  // namespace netsel::api
