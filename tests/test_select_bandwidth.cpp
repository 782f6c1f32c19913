// Tests for the Figure-2 algorithm, including the paper's optimality claim:
// on an acyclic topology, repeatedly deleting the minimum-available-bandwidth
// edge yields a node set maximising the minimum pairwise available bandwidth.
// We certify this against brute-force enumeration over random trees.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <type_traits>

#include "select/algorithms.hpp"
#include "select/brute_force.hpp"
#include "select/objective.hpp"
#include "topo/generators.hpp"

namespace netsel::select {
namespace {

TEST(MaxBandwidth, AvoidsCongestedSubtree) {
  // Fig. 4 scenario: traffic from m-16 to m-18 congests the suez subtree;
  // a 4-node selection must avoid suez hosts.
  auto g = topo::testbed();
  remos::NetworkSnapshot snap(g);
  auto congest = [&](const char* host) {
    auto n = g.find_node(host).value();
    snap.set_bw(g.links_of(n)[0], 1e6);
  };
  congest("m-16");
  congest("m-18");
  SelectionOptions opt;
  opt.num_nodes = 4;
  auto r = select_max_bandwidth(snap, opt);
  ASSERT_TRUE(r.feasible);
  for (auto n : r.nodes) {
    EXPECT_NE(g.node_name(n), "m-16");
    EXPECT_NE(g.node_name(n), "m-18");
  }
  EXPECT_GE(r.objective, 100e6 * 0.999);
}

TEST(MaxBandwidth, PrefersOneSwitchWhenTrunkBusy) {
  // Two-level tree with a busy trunk to switch 0: selection of 3 nodes
  // should cluster under one uncongested leaf switch.
  auto g = topo::two_level_tree(3, 3);
  remos::NetworkSnapshot snap(g);
  // Congest the root--sw0 trunk (first link of the generator per switch).
  auto sw0 = g.find_node("sw0").value();
  for (auto l : g.links_of(sw0)) {
    const auto& lk = g.link(l);
    if (lk.a == g.find_node("root").value() ||
        lk.b == g.find_node("root").value())
      snap.set_bw(l, 2e6);
  }
  SelectionOptions opt;
  opt.num_nodes = 3;
  auto r = select_max_bandwidth(snap, opt);
  ASSERT_TRUE(r.feasible);
  // All three selected hosts under the same switch (pairwise bw 100).
  auto ev = evaluate_set(snap, r.nodes, opt);
  EXPECT_NEAR(ev.min_pair_bw, 100e6, 1.0);
}

TEST(MaxBandwidth, SingleNodeRequest) {
  auto g = topo::star(3);
  remos::NetworkSnapshot snap(g);
  SelectionOptions opt;
  opt.num_nodes = 1;
  auto r = select_max_bandwidth(snap, opt);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.nodes.size(), 1u);
}

TEST(MaxBandwidth, InfeasibleWhenNotEnoughNodes) {
  auto g = topo::star(3);
  remos::NetworkSnapshot snap(g);
  SelectionOptions opt;
  opt.num_nodes = 4;
  EXPECT_FALSE(select_max_bandwidth(snap, opt).feasible);
}

TEST(MaxBandwidth, ResultIsConnectedAndCorrectSize) {
  util::Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    auto g = topo::random_tree(rng);
    remos::NetworkSnapshot snap(g);
    SelectionOptions opt;
    opt.num_nodes = 5;
    auto r = select_max_bandwidth(snap, opt);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.nodes.size(), 5u);
    std::set<topo::NodeId> uniq(r.nodes.begin(), r.nodes.end());
    EXPECT_EQ(uniq.size(), 5u);
    auto ev = evaluate_set(snap, r.nodes, opt);
    EXPECT_TRUE(ev.connected);
  }
}

// ---- Optimality sweep (the paper's central claim for Fig. 2). ----

// gtest names each instance by printing its parameter byte by byte, so the
// struct must have no padding: padding bytes are indeterminate and would
// change the test names from build to build.
struct SweepParam {
  std::uint64_t seed;
  int compute_nodes;
  int network_nodes;
  std::int64_t m;
};
static_assert(std::has_unique_object_representations_v<SweepParam>);

class Fig2Optimality : public ::testing::TestWithParam<SweepParam> {};

TEST_P(Fig2Optimality, MatchesBruteForceOnRandomTrees) {
  const auto p = GetParam();
  util::Rng rng(p.seed);
  topo::RandomTreeOptions topt;
  topt.compute_nodes = p.compute_nodes;
  topt.network_nodes = p.network_nodes;
  topt.min_bw = 1e6;
  topt.max_bw = 100e6;
  auto g = topo::random_tree(rng, topt);
  remos::NetworkSnapshot snap(g);
  // Randomise availability per link, not just capacity.
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    auto id = static_cast<topo::LinkId>(l);
    snap.set_bw(id, rng.uniform(0.05, 1.0) * snap.maxbw(id));
  }
  SelectionOptions opt;
  opt.num_nodes = static_cast<int>(p.m);
  auto algo = select_max_bandwidth(snap, opt);
  auto exact = brute_force_select(snap, opt, Criterion::MaxBandwidth);
  ASSERT_TRUE(algo.feasible);
  ASSERT_TRUE(exact.feasible);
  auto algo_ev = evaluate_set(snap, algo.nodes, opt);
  EXPECT_NEAR(algo_ev.min_pair_bw, exact.objective,
              exact.objective * 1e-12)
      << "Fig. 2 must be optimal on acyclic graphs (seed " << p.seed << ")";
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  std::uint64_t seed = 100;
  for (int nc : {6, 10, 14}) {
    for (int m : {2, 3, 4, 5}) {
      for (int rep = 0; rep < 4; ++rep) {
        out.push_back({seed++, nc, 3 + (rep % 3), m});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(RandomTrees, Fig2Optimality,
                         ::testing::ValuesIn(sweep_params()));

TEST(MaxBandwidth, IterationCountBounded) {
  util::Rng rng(9);
  topo::RandomTreeOptions topt;
  topt.compute_nodes = 30;
  topt.network_nodes = 8;
  auto g = topo::random_tree(rng, topt);
  remos::NetworkSnapshot snap(g);
  SelectionOptions opt;
  opt.num_nodes = 4;
  auto r = select_max_bandwidth(snap, opt);
  ASSERT_TRUE(r.feasible);
  // At most one removal per edge.
  EXPECT_LE(r.iterations, static_cast<int>(g.link_count()));
}

TEST(MaxBandwidth, MinBwRequirementFiltersLinks) {
  auto g = topo::dumbbell(3, 3);
  remos::NetworkSnapshot snap(g);
  snap.set_bw(0, 20e6);  // bottleneck availability
  SelectionOptions opt;
  opt.num_nodes = 6;
  opt.min_bw_bps = 50e6;
  // All six nodes require the bottleneck; the constraint kills it.
  EXPECT_FALSE(select_max_bandwidth(snap, opt).feasible);
  opt.num_nodes = 3;
  auto r = select_max_bandwidth(snap, opt);
  ASSERT_TRUE(r.feasible);
  auto ev = evaluate_set(snap, r.nodes, opt);
  EXPECT_GE(ev.min_pair_bw, 50e6);
}

}  // namespace
}  // namespace netsel::select
