#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "select/algorithms.hpp"
#include "select/brute_force.hpp"
#include "topo/generators.hpp"

namespace netsel::select {
namespace {

remos::NetworkSnapshot loaded_testbed() {
  static topo::TopologyGraph g = topo::testbed();
  remos::NetworkSnapshot snap(g);
  // Load averages rise with the node index: m-1 least loaded.
  int i = 0;
  for (topo::NodeId n : g.compute_nodes()) {
    snap.set_loadavg(n, 0.1 * static_cast<double>(i++));
  }
  return snap;
}

TEST(MaxCompute, PicksLeastLoadedNodes) {
  auto snap = loaded_testbed();
  SelectionOptions opt;
  opt.num_nodes = 4;
  auto r = select_max_compute(snap, opt);
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.nodes.size(), 4u);
  const auto& g = snap.graph();
  EXPECT_EQ(g.node_name(r.nodes[0]), "m-1");
  EXPECT_EQ(g.node_name(r.nodes[1]), "m-2");
  EXPECT_EQ(g.node_name(r.nodes[2]), "m-3");
  EXPECT_EQ(g.node_name(r.nodes[3]), "m-4");
  EXPECT_NEAR(r.min_cpu, 1.0 / 1.3, 1e-12);  // the m-4 cpu value
  EXPECT_DOUBLE_EQ(r.objective, r.min_cpu);
}

TEST(MaxCompute, MatchesBruteForce) {
  auto snap = loaded_testbed();
  SelectionOptions opt;
  opt.num_nodes = 5;
  auto algo = select_max_compute(snap, opt);
  auto exact = brute_force_select(snap, opt, Criterion::MaxCompute);
  ASSERT_TRUE(algo.feasible);
  ASSERT_TRUE(exact.feasible);
  EXPECT_DOUBLE_EQ(algo.objective, exact.objective);
}

TEST(MaxCompute, AllNodesWhenMEqualsCount) {
  auto snap = loaded_testbed();
  SelectionOptions opt;
  opt.num_nodes = 18;
  auto r = select_max_compute(snap, opt);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.nodes.size(), 18u);
}

TEST(MaxCompute, InfeasibleWhenTooManyRequested) {
  auto snap = loaded_testbed();
  SelectionOptions opt;
  opt.num_nodes = 19;
  auto r = select_max_compute(snap, opt);
  EXPECT_FALSE(r.feasible);
  EXPECT_FALSE(r.note.empty());
}

TEST(MaxCompute, TieBreaksDeterministically) {
  auto g = topo::star(6);
  remos::NetworkSnapshot snap(g);  // all cpus equal
  SelectionOptions opt;
  opt.num_nodes = 3;
  auto r1 = select_max_compute(snap, opt);
  auto r2 = select_max_compute(snap, opt);
  ASSERT_TRUE(r1.feasible);
  EXPECT_EQ(r1.nodes, r2.nodes);
  // Lower ids win ties.
  EXPECT_EQ(r1.nodes, (std::vector<topo::NodeId>{1, 2, 3}));
}

TEST(MaxCompute, RespectsMinBwConstraintComponent) {
  // Dumbbell with a congested bottleneck: requiring 50 Mbps forces the
  // selection into one side even if the other side has idle nodes.
  auto g = topo::dumbbell(3, 3);
  remos::NetworkSnapshot snap(g);
  snap.set_bw(0, 5e6);  // bottleneck nearly full
  // Left nodes loaded, right nodes idle.
  for (auto n : g.compute_nodes()) {
    if (g.node_name(n)[0] == 'L') snap.set_loadavg(n, 1.0);
  }
  SelectionOptions opt;
  opt.num_nodes = 3;
  opt.min_bw_bps = 50e6;
  auto r = select_max_compute(snap, opt);
  ASSERT_TRUE(r.feasible);
  for (auto n : r.nodes) EXPECT_EQ(g.node_name(n)[0], 'R');
  // Asking for 4 nodes under the same constraint is infeasible.
  opt.num_nodes = 4;
  EXPECT_FALSE(select_max_compute(snap, opt).feasible);
}

TEST(MaxCompute, HonoursEligibilityMask) {
  auto snap = loaded_testbed();
  const auto& g = snap.graph();
  SelectionOptions opt;
  opt.num_nodes = 2;
  opt.eligible.assign(g.node_count(), 0);
  // Only the three most loaded nodes are eligible.
  opt.eligible[static_cast<std::size_t>(g.find_node("m-16").value())] = 1;
  opt.eligible[static_cast<std::size_t>(g.find_node("m-17").value())] = 1;
  opt.eligible[static_cast<std::size_t>(g.find_node("m-18").value())] = 1;
  auto r = select_max_compute(snap, opt);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(g.node_name(r.nodes[0]), "m-16");
  EXPECT_EQ(g.node_name(r.nodes[1]), "m-17");
}

TEST(MaxCompute, OptionValidation) {
  auto snap = loaded_testbed();
  SelectionOptions opt;
  opt.num_nodes = 0;
  EXPECT_THROW(select_max_compute(snap, opt), std::invalid_argument);
  opt.num_nodes = 2;
  opt.cpu_priority = 0.0;
  EXPECT_THROW(select_max_compute(snap, opt), std::invalid_argument);
  opt = SelectionOptions{};
  opt.num_nodes = 2;
  opt.eligible.assign(3, 1);  // wrong size
  EXPECT_THROW(select_max_compute(snap, opt), std::invalid_argument);
}

// Every non-finite option is rejected at the boundary. NaN slips past a
// plain range check (every comparison with it is false): a NaN priority
// would make every selection infeasible and a NaN requirement would be
// ignored.
class NonFiniteOption : public ::testing::Test {
 protected:
  void expect_rejected(double SelectionOptions::*field) {
    auto snap = loaded_testbed();
    for (double v : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
      SelectionOptions opt;
      opt.num_nodes = 4;
      opt.*field = v;
      EXPECT_THROW(validate_options(snap, opt), std::invalid_argument) << v;
      for (Criterion c : {Criterion::MaxCompute, Criterion::MaxBandwidth,
                          Criterion::Balanced})
        EXPECT_THROW(select_nodes(c, snap, opt), std::invalid_argument)
            << criterion_name(c) << " " << v;
    }
  }
};

TEST_F(NonFiniteOption, CpuPriority) {
  expect_rejected(&SelectionOptions::cpu_priority);
}

TEST_F(NonFiniteOption, BwPriority) {
  expect_rejected(&SelectionOptions::bw_priority);
}

TEST_F(NonFiniteOption, ReferenceCpuCapacity) {
  expect_rejected(&SelectionOptions::reference_cpu_capacity);
}

TEST_F(NonFiniteOption, ReferenceBw) {
  expect_rejected(&SelectionOptions::reference_bw);
}

TEST_F(NonFiniteOption, MinBwBps) {
  expect_rejected(&SelectionOptions::min_bw_bps);
}

TEST_F(NonFiniteOption, MinCpuFraction) {
  expect_rejected(&SelectionOptions::min_cpu_fraction);
}

TEST_F(NonFiniteOption, MinFreeMemoryBytes) {
  expect_rejected(&SelectionOptions::min_free_memory_bytes);
}

TEST(Baselines, RandomIsDeterministicPerRng) {
  auto snap = loaded_testbed();
  SelectionOptions opt;
  opt.num_nodes = 4;
  util::Rng r1(5), r2(5), r3(6);
  auto a = select_random(snap, opt, r1);
  auto b = select_random(snap, opt, r2);
  auto c = select_random(snap, opt, r3);
  ASSERT_TRUE(a.feasible);
  EXPECT_EQ(a.nodes, b.nodes);
  // Different seed should usually differ; 18 choose 4 makes collision rare.
  EXPECT_NE(a.nodes, c.nodes);
}

TEST(Baselines, RandomCoversThePool) {
  auto snap = loaded_testbed();
  SelectionOptions opt;
  opt.num_nodes = 4;
  util::Rng rng(1);
  std::set<topo::NodeId> seen;
  for (int i = 0; i < 200; ++i) {
    auto r = select_random(snap, opt, rng);
    seen.insert(r.nodes.begin(), r.nodes.end());
  }
  EXPECT_EQ(seen.size(), 18u) << "every node should be picked eventually";
}

TEST(Baselines, StaticPicksFirstM) {
  auto snap = loaded_testbed();
  SelectionOptions opt;
  opt.num_nodes = 3;
  auto r = select_static(snap, opt);
  ASSERT_TRUE(r.feasible);
  const auto& g = snap.graph();
  EXPECT_EQ(g.node_name(r.nodes[0]), "m-1");
  EXPECT_EQ(g.node_name(r.nodes[1]), "m-2");
  EXPECT_EQ(g.node_name(r.nodes[2]), "m-3");
}

TEST(Baselines, InfeasibleWhenPoolTooSmall) {
  auto snap = loaded_testbed();
  SelectionOptions opt;
  opt.num_nodes = 50;
  util::Rng rng(1);
  EXPECT_FALSE(select_random(snap, opt, rng).feasible);
  EXPECT_FALSE(select_static(snap, opt).feasible);
}

TEST(SelectNodes, DispatchesByCriterion) {
  auto snap = loaded_testbed();
  SelectionOptions opt;
  opt.num_nodes = 4;
  auto a = select_nodes(Criterion::MaxCompute, snap, opt);
  auto b = select_max_compute(snap, opt);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_STREQ(criterion_name(Criterion::MaxCompute), "max-compute");
  EXPECT_STREQ(criterion_name(Criterion::MaxBandwidth), "max-bandwidth");
  EXPECT_STREQ(criterion_name(Criterion::Balanced), "balanced");
}

}  // namespace
}  // namespace netsel::select
