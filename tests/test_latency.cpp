// Tests for the latency-aware extension (§3.4 future work): latency in the
// topology and simulator, the all-pairs latency matrix, min-latency
// selection against brute force, and the latency-bounded balanced variant.

#include <gtest/gtest.h>

#include <functional>

#include "select/algorithms.hpp"
#include "select/brute_force.hpp"
#include "select/latency.hpp"
#include "select/objective.hpp"
#include "sim/network_sim.hpp"
#include "topo/generators.hpp"

namespace netsel::select {
namespace {

/// Two clusters: a "near" switch with low-latency hosts and a "far" switch
/// reached over a high-latency trunk.
struct Clusters {
  topo::TopologyGraph g;
  topo::NodeId near0, near1, near2, far0, far1;

  Clusters() {
    auto sw_near = g.add_network("sw-near");
    auto sw_far = g.add_network("sw-far");
    topo::TopologyGraph::LinkSpec trunk;
    trunk.capacity_ab = 100e6;
    trunk.latency = 20e-3;
    g.add_link(sw_near, sw_far, trunk);
    auto attach = [&](topo::NodeId sw, const char* name, double lat) {
      auto h = g.add_compute(name);
      topo::TopologyGraph::LinkSpec spec;
      spec.capacity_ab = 100e6;
      spec.latency = lat;
      g.add_link(sw, h, spec);
      return h;
    };
    near0 = attach(sw_near, "n0", 1e-3);
    near1 = attach(sw_near, "n1", 1e-3);
    near2 = attach(sw_near, "n2", 1e-3);
    far0 = attach(sw_far, "f0", 1e-3);
    far1 = attach(sw_far, "f1", 1e-3);
    g.validate();
  }
};

TEST(LatencyTopo, LinkSpecStoresLatency) {
  Clusters c;
  EXPECT_DOUBLE_EQ(c.g.link(0).latency, 20e-3);
  EXPECT_DOUBLE_EQ(c.g.link(1).latency, 1e-3);
  topo::TopologyGraph g;
  auto a = g.add_compute("a");
  auto b = g.add_compute("b");
  topo::TopologyGraph::LinkSpec bad;
  bad.capacity_ab = 1e6;
  bad.latency = -1.0;
  EXPECT_THROW(g.add_link(a, b, bad), std::invalid_argument);
}

TEST(LatencyTopo, AllPairsMatrix) {
  Clusters c;
  auto dist = all_pairs_latency(c.g);
  std::size_t n = c.g.node_count();
  auto d = [&](topo::NodeId a, topo::NodeId b) {
    return dist[static_cast<std::size_t>(a) * n + static_cast<std::size_t>(b)];
  };
  EXPECT_DOUBLE_EQ(d(c.near0, c.near0), 0.0);
  EXPECT_DOUBLE_EQ(d(c.near0, c.near1), 2e-3);
  EXPECT_DOUBLE_EQ(d(c.near0, c.far0), 1e-3 + 20e-3 + 1e-3);
  EXPECT_DOUBLE_EQ(d(c.far0, c.near0), d(c.near0, c.far0));
}

TEST(LatencySim, FlowCompletionIncludesLinkLatency) {
  Clusters c;
  sim::NetworkSim net(std::move(c.g));
  auto n0 = net.topology().find_node("n0").value();
  auto f0 = net.topology().find_node("f0").value();
  double done = -1.0;
  // Tiny transfer: latency-bound. Path latency = 22 ms.
  net.network().start_flow(n0, f0, 8.0, sim::kBackgroundOwner,
                           [&](sim::FlowId) { done = net.sim().now(); });
  net.sim().run();
  EXPECT_NEAR(done, 22e-3, 1e-9);
}

TEST(LatencyEval, EvaluateSetReportsMaxPairLatency) {
  Clusters c;
  remos::NetworkSnapshot snap(c.g);
  auto ev = evaluate_set(snap, {c.near0, c.near1, c.far0});
  EXPECT_DOUBLE_EQ(ev.max_pair_latency, 22e-3);
  auto ev2 = evaluate_set(snap, {c.near0, c.near1, c.near2});
  EXPECT_DOUBLE_EQ(ev2.max_pair_latency, 2e-3);
}

TEST(SelectMinLatency, PicksTheNearCluster) {
  Clusters c;
  remos::NetworkSnapshot snap(c.g);
  SelectionOptions opt;
  opt.num_nodes = 3;
  auto r = select_min_latency(snap, opt);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.nodes, (std::vector<topo::NodeId>{c.near0, c.near1, c.near2}));
  EXPECT_DOUBLE_EQ(r.objective, -2e-3);
  EXPECT_NE(r.note.find("0.002"), std::string::npos);
}

TEST(SelectMinLatency, TieBreaksTowardCpu) {
  Clusters c;
  remos::NetworkSnapshot snap(c.g);
  snap.set_cpu(c.near1, 0.2);  // make n1 undesirable
  SelectionOptions opt;
  opt.num_nodes = 2;
  auto r = select_min_latency(snap, opt);
  ASSERT_TRUE(r.feasible);
  // Any same-switch pair has latency 2 ms; prefer the pair with better cpu.
  EXPECT_EQ(r.min_cpu, 1.0);
  EXPECT_TRUE(std::find(r.nodes.begin(), r.nodes.end(), c.near1) ==
              r.nodes.end());
}

TEST(SelectMinLatency, InfeasibleWhenTooFewNodes) {
  Clusters c;
  remos::NetworkSnapshot snap(c.g);
  SelectionOptions opt;
  opt.num_nodes = 6;
  EXPECT_FALSE(select_min_latency(snap, opt).feasible);
}

struct LatencySweepParam {
  std::uint64_t seed;
  int m;
};

class MinLatencyQuality : public ::testing::TestWithParam<LatencySweepParam> {};

TEST_P(MinLatencyQuality, NearOptimalOnRandomTrees) {
  // Brute-force the min-max-pairwise-latency subset and require the
  // best-center heuristic to be within 1.5x on every instance (it is exact
  // on most).
  auto p = GetParam();
  util::Rng rng(p.seed);
  topo::RandomTreeOptions topt;
  topt.compute_nodes = 9;
  topt.network_nodes = 4;
  auto g = topo::random_tree(rng, topt);
  // Assign random latencies.
  // (random_tree has none; rebuild an equivalent graph with latencies.)
  topo::TopologyGraph lg;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const auto id = static_cast<topo::NodeId>(i);
    const auto& n = g.node(id);
    if (n.kind() == topo::NodeKind::Compute) {
      const auto tags = g.tags(id);
      lg.add_compute(g.node_name(id), n.cpu_capacity,
                     {tags.begin(), tags.end()});
    } else {
      lg.add_network(g.node_name(id));
    }
  }
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    const auto& lk = g.link(static_cast<topo::LinkId>(l));
    topo::TopologyGraph::LinkSpec spec;
    spec.capacity_ab = lk.capacity_ab;
    spec.latency = rng.uniform(1e-4, 2e-2);
    lg.add_link(lk.a, lk.b, spec);
  }
  remos::NetworkSnapshot snap(lg);
  SelectionOptions opt;
  opt.num_nodes = p.m;

  auto algo = select_min_latency(snap, opt);
  ASSERT_TRUE(algo.feasible);
  double algo_latency = -algo.objective;

  // Brute force over all subsets.
  auto dist = all_pairs_latency(lg);
  std::size_t n = lg.node_count();
  auto computes = lg.compute_nodes();
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> idx(static_cast<std::size_t>(p.m));
  std::function<void(std::size_t, std::size_t)> rec = [&](std::size_t pos,
                                                          std::size_t from) {
    if (pos == idx.size()) {
      double mx = 0.0;
      for (std::size_t i = 0; i + 1 < idx.size(); ++i)
        for (std::size_t j = i + 1; j < idx.size(); ++j)
          mx = std::max(
              mx, dist[static_cast<std::size_t>(computes[static_cast<std::size_t>(idx[i])]) * n +
                       static_cast<std::size_t>(computes[static_cast<std::size_t>(idx[j])])]);
      best = std::min(best, mx);
      return;
    }
    for (std::size_t k = from; k < computes.size(); ++k) {
      idx[pos] = static_cast<int>(k);
      rec(pos + 1, k + 1);
    }
  };
  rec(0, 0);

  EXPECT_GE(algo_latency, best - 1e-12) << "cannot beat the optimum";
  EXPECT_LE(algo_latency, best * 1.5 + 1e-12)
      << "seed " << p.seed << " m " << p.m;
}

INSTANTIATE_TEST_SUITE_P(
    RandomTrees, MinLatencyQuality,
    ::testing::Values(LatencySweepParam{1, 3}, LatencySweepParam{2, 3},
                      LatencySweepParam{3, 4}, LatencySweepParam{4, 4},
                      LatencySweepParam{5, 5}, LatencySweepParam{6, 5},
                      LatencySweepParam{7, 2}, LatencySweepParam{8, 6}));

TEST(BalancedLatencyBound, UnconstrainedResultPassesThrough) {
  Clusters c;
  remos::NetworkSnapshot snap(c.g);
  SelectionOptions opt;
  opt.num_nodes = 3;
  auto bounded = select_balanced_latency_bound(snap, opt, 1.0);  // loose
  auto plain = select_balanced(snap, opt);
  ASSERT_TRUE(bounded.feasible);
  EXPECT_EQ(bounded.nodes, plain.nodes);
}

TEST(BalancedLatencyBound, BoundForcesNearCluster) {
  Clusters c;
  remos::NetworkSnapshot snap(c.g);
  // Make the far nodes the cpu-best so unconstrained selection wants them.
  snap.set_cpu(c.near0, 0.6);
  snap.set_cpu(c.near1, 0.6);
  snap.set_cpu(c.near2, 0.6);
  SelectionOptions opt;
  opt.num_nodes = 2;
  auto plain = select_balanced(snap, opt);
  ASSERT_TRUE(plain.feasible);
  EXPECT_EQ(plain.nodes, (std::vector<topo::NodeId>{c.far0, c.far1}));
  // 5 ms ceiling rules out anything crossing the 20 ms trunk; far0--far1
  // is only 2 ms apart though, so tighten to also rule them out? No:
  // far0-far1 are both under sw-far (2 ms). The ceiling should KEEP them.
  auto bounded = select_balanced_latency_bound(snap, opt, 5e-3);
  ASSERT_TRUE(bounded.feasible);
  EXPECT_EQ(bounded.nodes, (std::vector<topo::NodeId>{c.far0, c.far1}));
  // Now demand 3 nodes: no single cluster has 3 idle... near has 3 nodes
  // within 2 ms pairwise; far has only 2. The bound admits only the near
  // trio.
  opt.num_nodes = 3;
  auto three = select_balanced_latency_bound(snap, opt, 5e-3);
  ASSERT_TRUE(three.feasible);
  EXPECT_EQ(three.nodes,
            (std::vector<topo::NodeId>{c.near0, c.near1, c.near2}));
  // An impossible ceiling is infeasible.
  EXPECT_FALSE(select_balanced_latency_bound(snap, opt, 1e-4).feasible);
  EXPECT_THROW(select_balanced_latency_bound(snap, opt, -1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace netsel::select
