// Cross-cutting invariants of the selection procedures, checked over
// randomized snapshots: well-formedness of results, determinism,
// eligibility, scale invariance, and monotonicity properties that the
// paper's definitions imply.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "select/algorithms.hpp"
#include "select/objective.hpp"
#include "topo/generators.hpp"

namespace netsel::select {
namespace {

struct Instance {
  std::unique_ptr<topo::TopologyGraph> graph;
  std::unique_ptr<remos::NetworkSnapshot> snap;
};

Instance random_instance(std::uint64_t seed, int computes = 12,
                         int switches = 4) {
  util::Rng rng(seed);
  topo::RandomTreeOptions topt;
  topt.compute_nodes = computes;
  topt.network_nodes = switches;
  Instance inst;
  inst.graph =
      std::make_unique<topo::TopologyGraph>(topo::random_tree(rng, topt));
  inst.snap = std::make_unique<remos::NetworkSnapshot>(*inst.graph);
  for (auto n : inst.graph->compute_nodes())
    inst.snap->set_loadavg(n, rng.uniform(0.0, 3.0));
  for (std::size_t l = 0; l < inst.graph->link_count(); ++l) {
    auto id = static_cast<topo::LinkId>(l);
    inst.snap->set_bw(id, rng.uniform(0.05, 1.0) * inst.snap->maxbw(id));
  }
  return inst;
}

class AllAlgorithms
    : public ::testing::TestWithParam<std::tuple<Criterion, std::uint64_t>> {};

TEST_P(AllAlgorithms, WellFormedResult) {
  auto [criterion, seed] = GetParam();
  auto inst = random_instance(seed);
  SelectionOptions opt;
  opt.num_nodes = 4;
  auto r = select_nodes(criterion, *inst.snap, opt);
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.nodes.size(), 4u);
  std::set<topo::NodeId> uniq(r.nodes.begin(), r.nodes.end());
  EXPECT_EQ(uniq.size(), 4u) << "no duplicates";
  EXPECT_TRUE(std::is_sorted(r.nodes.begin(), r.nodes.end()));
  for (auto n : r.nodes) EXPECT_TRUE(inst.graph->is_compute(n));
  auto ev = evaluate_set(*inst.snap, r.nodes, opt);
  EXPECT_TRUE(ev.connected);
}

TEST_P(AllAlgorithms, Deterministic) {
  auto [criterion, seed] = GetParam();
  auto inst = random_instance(seed);
  SelectionOptions opt;
  opt.num_nodes = 5;
  auto a = select_nodes(criterion, *inst.snap, opt);
  auto b = select_nodes(criterion, *inst.snap, opt);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
}

TEST_P(AllAlgorithms, EligibilityMaskIsHard) {
  auto [criterion, seed] = GetParam();
  auto inst = random_instance(seed);
  SelectionOptions opt;
  opt.num_nodes = 3;
  // Forbid half of the compute nodes.
  auto computes = inst.graph->compute_nodes();
  opt.eligible.assign(inst.graph->node_count(), 0);
  for (std::size_t i = 0; i < computes.size(); i += 2)
    opt.eligible[static_cast<std::size_t>(computes[i])] = 1;
  auto r = select_nodes(criterion, *inst.snap, opt);
  if (!r.feasible) return;  // mask may leave no connected trio: acceptable
  for (auto n : r.nodes)
    EXPECT_TRUE(opt.eligible[static_cast<std::size_t>(n)]);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, AllAlgorithms,
    ::testing::Combine(::testing::Values(Criterion::MaxCompute,
                                         Criterion::MaxBandwidth,
                                         Criterion::Balanced),
                       ::testing::Values(201u, 202u, 203u, 204u, 205u)));

TEST(Invariance, BalancedScaleInvariantInBandwidth) {
  // bwfactor-based fractions are ratios, so multiplying every capacity AND
  // availability by a constant must not change the balanced choice.
  for (std::uint64_t seed : {301u, 302u, 303u}) {
    topo::TopologyGraph g1, g2;
    // Build two copies, the second with 7x capacities.
    auto build = [&](double scale) {
      util::Rng local(seed);
      topo::TopologyGraph g;
      auto sw0 = g.add_network("sw0");
      auto sw1 = g.add_network("sw1");
      g.add_link(sw0, sw1, 50e6 * scale);
      for (int i = 0; i < 8; ++i) {
        std::string name = "h";
        name += std::to_string(i);
        auto h = g.add_compute(name);
        g.add_link(i % 2 ? sw0 : sw1, h, local.uniform(20e6, 100e6) * scale);
      }
      return g;
    };
    g1 = build(1.0);
    g2 = build(7.0);
    remos::NetworkSnapshot s1(g1), s2(g2);
    util::Rng avail(seed + 99);
    for (std::size_t l = 0; l < g1.link_count(); ++l) {
      double f = avail.uniform(0.1, 1.0);
      auto id = static_cast<topo::LinkId>(l);
      s1.set_bw(id, f * s1.maxbw(id));
      s2.set_bw(id, f * s2.maxbw(id));
    }
    util::Rng loads(seed + 7);
    for (auto n : g1.compute_nodes()) {
      double la = loads.uniform(0.0, 2.0);
      s1.set_loadavg(n, la);
      s2.set_loadavg(n, la);
    }
    SelectionOptions opt;
    opt.num_nodes = 3;
    EXPECT_EQ(select_balanced(s1, opt).nodes, select_balanced(s2, opt).nodes)
        << "seed " << seed;
  }
}

TEST(Monotonicity, LoadingANonSelectedNodeCannotChangeMaxCompute) {
  for (std::uint64_t seed : {401u, 402u, 403u, 404u}) {
    auto inst = random_instance(seed);
    SelectionOptions opt;
    opt.num_nodes = 4;
    auto before = select_max_compute(*inst.snap, opt);
    ASSERT_TRUE(before.feasible);
    // Load every node NOT selected even harder.
    for (auto n : inst.graph->compute_nodes()) {
      if (std::find(before.nodes.begin(), before.nodes.end(), n) ==
          before.nodes.end()) {
        inst.snap->set_cpu(n, inst.snap->cpu(n) * 0.5);
      }
    }
    auto after = select_max_compute(*inst.snap, opt);
    EXPECT_EQ(after.nodes, before.nodes) << "seed " << seed;
  }
}

TEST(Monotonicity, RelievingSelectedNodesKeepsThemSelected) {
  for (std::uint64_t seed : {501u, 502u, 503u}) {
    auto inst = random_instance(seed);
    SelectionOptions opt;
    opt.num_nodes = 4;
    auto before = select_max_compute(*inst.snap, opt);
    ASSERT_TRUE(before.feasible);
    for (auto n : before.nodes) inst.snap->set_cpu(n, 1.0);
    auto after = select_max_compute(*inst.snap, opt);
    EXPECT_EQ(after.nodes, before.nodes) << "seed " << seed;
  }
}

TEST(Objectives, AlgorithmsDominateRandomOnTheirOwnMetric) {
  // Each algorithm must beat (or tie) random selection by its own
  // objective, instance by instance.
  for (std::uint64_t seed : {601u, 602u, 603u, 604u, 605u}) {
    auto inst = random_instance(seed);
    SelectionOptions opt;
    opt.num_nodes = 4;
    util::Rng rng(seed * 13);
    auto rand = select_random(*inst.snap, opt, rng);
    ASSERT_TRUE(rand.feasible);
    auto rand_ev = evaluate_set(*inst.snap, rand.nodes, opt);

    auto cpu = select_max_compute(*inst.snap, opt);
    EXPECT_GE(cpu.min_cpu, rand_ev.min_cpu - 1e-12);

    auto bw = select_max_bandwidth(*inst.snap, opt);
    auto bw_ev = evaluate_set(*inst.snap, bw.nodes, opt);
    EXPECT_GE(bw_ev.min_pair_bw, rand_ev.min_pair_bw - 1e-9);
  }
}

TEST(Feasibility, ExactlyEnoughNodesAlwaysFeasible) {
  for (std::uint64_t seed : {701u, 702u}) {
    auto inst = random_instance(seed, 6, 3);
    SelectionOptions opt;
    opt.num_nodes = 6;  // every compute node required
    for (Criterion c : {Criterion::MaxCompute, Criterion::MaxBandwidth,
                        Criterion::Balanced}) {
      auto r = select_nodes(c, *inst.snap, opt);
      ASSERT_TRUE(r.feasible) << criterion_name(c);
      EXPECT_EQ(r.nodes, inst.graph->compute_nodes());
    }
  }
}

}  // namespace
}  // namespace netsel::select
