// Tests for the Figure-3 balanced computation + communication algorithm.

#include <gtest/gtest.h>

#include <set>

#include "select/algorithms.hpp"
#include "select/brute_force.hpp"
#include "select/objective.hpp"
#include "topo/generators.hpp"

namespace netsel::select {
namespace {

/// Host "h<i>" of topo::star.
topo::NodeId host(const topo::TopologyGraph& g, int i) {
  std::string name = "h";
  name += std::to_string(i);
  return g.find_node(name).value();
}

TEST(Balanced, ReducesToMaxComputeOnIdleNetwork) {
  auto g = topo::testbed();
  remos::NetworkSnapshot snap(g);
  int i = 0;
  for (auto n : g.compute_nodes()) snap.set_loadavg(n, 0.05 * i++);
  SelectionOptions opt;
  opt.num_nodes = 4;
  auto bal = select_balanced(snap, opt);
  auto cpu = select_max_compute(snap, opt);
  ASSERT_TRUE(bal.feasible);
  EXPECT_EQ(bal.nodes, cpu.nodes) << "idle links: cpu optimisation dominates";
}

TEST(Balanced, TradesCpuForBandwidthWhenLinksCongested) {
  // The least-loaded nodes sit behind congested access links; balanced
  // selection must leave them for slightly more loaded nodes with clean
  // links once the bandwidth fraction drops below the cpu fraction.
  auto g = topo::star(6);
  remos::NetworkSnapshot snap(g);
  // h0, h1: completely idle cpu but only 10-12% bandwidth available
  // (distinct values: the paper's stop rule needs strict improvement).
  snap.set_cpu(g.find_node("h0").value(), 1.0);
  snap.set_cpu(g.find_node("h1").value(), 1.0);
  snap.set_bw(0, 10e6);
  snap.set_bw(1, 12e6);
  // h2..h5: 60% cpu, full links.
  for (int i = 2; i < 6; ++i) snap.set_cpu(host(g, i), 0.6);
  SelectionOptions opt;
  opt.num_nodes = 2;
  auto bal = select_balanced(snap, opt);
  ASSERT_TRUE(bal.feasible);
  // Balanced objective: clean pair gives min(0.6, 1.0) = 0.6;
  // idle-but-congested pair gives min(1.0, 0.1) = 0.1.
  for (auto n : bal.nodes)
    EXPECT_GE(g.node_name(n)[1], '2') << "must avoid congested h0/h1";
  EXPECT_NEAR(bal.objective, 0.6, 1e-12);
  // Max-compute would have picked h0/h1.
  auto cpu = select_max_compute(snap, opt);
  EXPECT_EQ(g.node_name(cpu.nodes[0]), "h0");
}

TEST(Balanced, PaperRuleStallsOnPlateauExhaustiveDoesNot) {
  // Two equally congested links form a plateau: removing the first brings
  // no strict improvement, so the paper-exact loop stops with the inferior
  // set; the exhaustive extension sweeps past it.
  auto g = topo::star(6);
  remos::NetworkSnapshot snap(g);
  snap.set_bw(0, 10e6);
  snap.set_bw(1, 10e6);  // exact tie with link 0
  for (int i = 2; i < 6; ++i) snap.set_cpu(host(g, i), 0.6);
  SelectionOptions opt;
  opt.num_nodes = 2;
  auto paper = select_balanced(snap, opt);
  ASSERT_TRUE(paper.feasible);
  EXPECT_NEAR(paper.objective, 0.1, 1e-12) << "paper rule stops on plateau";
  opt.exhaustive_balanced = true;
  auto full = select_balanced(snap, opt);
  ASSERT_TRUE(full.feasible);
  EXPECT_NEAR(full.objective, 0.6, 1e-12);
  for (auto n : full.nodes) EXPECT_GE(g.node_name(n)[1], '2');
}

TEST(Balanced, ObjectiveNeverBelowMaxComputeStart) {
  // The greedy only accepts strictly improving sets, so its objective is at
  // least the value of its max-compute starting point.
  util::Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    auto g = topo::random_tree(rng);
    remos::NetworkSnapshot snap(g);
    for (auto n : g.compute_nodes())
      snap.set_loadavg(n, rng.uniform(0.0, 3.0));
    for (std::size_t l = 0; l < g.link_count(); ++l) {
      auto id = static_cast<topo::LinkId>(l);
      snap.set_bw(id, rng.uniform(0.05, 1.0) * snap.maxbw(id));
    }
    SelectionOptions opt;
    opt.num_nodes = 4;
    auto bal = select_balanced(snap, opt);
    ASSERT_TRUE(bal.feasible);
    auto cpu = select_max_compute(snap, opt);
    // Evaluate the max-compute set under the Fig.-3 objective definition:
    // its component is the whole graph, so minbw = global min fraction.
    double global_min_frac = 1.0;
    for (std::size_t l = 0; l < g.link_count(); ++l)
      global_min_frac =
          std::min(global_min_frac, snap.bwfactor(static_cast<topo::LinkId>(l)));
    double start_value = std::min(cpu.min_cpu, global_min_frac);
    EXPECT_GE(bal.objective, start_value - 1e-12);
  }
}

TEST(Balanced, RarelyWorseThanMaxComputePairwise) {
  // Fig. 3 improves a *conservative* (component-edge) bound, so by the
  // exact pairwise objective it can occasionally trail max-compute; across
  // a deterministic sample of random instances it should dominate nearly
  // always.
  int wins_or_ties = 0;
  util::Rng rng(22);
  for (int trial = 0; trial < 20; ++trial) {
    auto g = topo::random_tree(rng);
    remos::NetworkSnapshot snap(g);
    for (auto n : g.compute_nodes())
      snap.set_loadavg(n, rng.uniform(0.0, 3.0));
    for (std::size_t l = 0; l < g.link_count(); ++l) {
      auto id = static_cast<topo::LinkId>(l);
      snap.set_bw(id, rng.uniform(0.05, 1.0) * snap.maxbw(id));
    }
    SelectionOptions opt;
    opt.num_nodes = 3;
    auto bal = select_balanced(snap, opt);
    ASSERT_TRUE(bal.feasible);
    double bal_val = evaluate_set(snap, bal.nodes, opt).balanced;
    double cpu_val =
        evaluate_set(snap, select_max_compute(snap, opt).nodes, opt).balanced;
    if (bal_val >= cpu_val - 1e-12) ++wins_or_ties;
  }
  EXPECT_GE(wins_or_ties, 16);
}

TEST(Balanced, WithinBruteForceBound) {
  // Greedy is a heuristic: certify it never exceeds the true optimum and
  // stays within a sane fraction of it on small instances.
  util::Rng rng(23);
  int at_optimum = 0;
  const int trials = 15;
  for (int trial = 0; trial < trials; ++trial) {
    topo::RandomTreeOptions topt;
    topt.compute_nodes = 8;
    topt.network_nodes = 3;
    auto g = topo::random_tree(rng, topt);
    remos::NetworkSnapshot snap(g);
    for (auto n : g.compute_nodes())
      snap.set_loadavg(n, rng.uniform(0.0, 2.0));
    for (std::size_t l = 0; l < g.link_count(); ++l) {
      auto id = static_cast<topo::LinkId>(l);
      snap.set_bw(id, rng.uniform(0.1, 1.0) * snap.maxbw(id));
    }
    SelectionOptions opt;
    opt.num_nodes = 3;
    auto bal = select_balanced(snap, opt);
    auto exact = brute_force_select(snap, opt, Criterion::Balanced);
    ASSERT_TRUE(bal.feasible);
    ASSERT_TRUE(exact.feasible);
    double bal_val = evaluate_set(snap, bal.nodes, opt).balanced;
    EXPECT_LE(bal_val, exact.objective + 1e-12);
    if (bal_val >= exact.objective - 1e-9) ++at_optimum;
  }
  // The greedy should hit the exact optimum most of the time at this scale.
  EXPECT_GE(at_optimum, trials / 2);
}

TEST(Balanced, PriorityFactorShiftsChoice) {
  // Paper §3.3: prioritising computation by 2 treats 50% CPU like 25%
  // bandwidth. Construct a case where the priority flips the decision.
  auto g = topo::star(4);
  remos::NetworkSnapshot snap(g);
  // Pair A (h0,h1): cpu 0.9 but links at 40/42% (distinct: the paper's
  // greedy only continues through strictly improving removals).
  snap.set_cpu(1, 0.9);
  snap.set_cpu(2, 0.9);
  snap.set_bw(0, 40e6);
  snap.set_bw(1, 42e6);
  // Pair B (h2,h3): cpu 0.5, links full.
  snap.set_cpu(3, 0.5);
  snap.set_cpu(4, 0.5);
  SelectionOptions opt;
  opt.num_nodes = 2;
  // Neutral: A = min(.9,.40) = .40; B = min(.5,1) = .5 -> B wins.
  auto neutral = select_balanced(snap, opt);
  EXPECT_EQ(neutral.nodes, (std::vector<topo::NodeId>{3, 4}));
  EXPECT_NEAR(neutral.objective, 0.5, 1e-12);
  // cpu_priority 2: A = min(.45,.40)=.40; B = min(.25,1)=.25 -> A wins.
  opt.cpu_priority = 2.0;
  auto cpu_prio = select_balanced(snap, opt);
  EXPECT_EQ(cpu_prio.nodes, (std::vector<topo::NodeId>{1, 2}));
  EXPECT_NEAR(cpu_prio.objective, 0.4, 1e-12);
}

TEST(Balanced, SteinerRestrictedExhaustiveUsuallyAtLeastAsGood) {
  // The Steiner-restricted variant scores candidates by the links actually
  // on paths between them — a tighter bound. Under the paper's early-stop
  // rule that backfires (the high initial estimate halts the sweep at the
  // max-compute set), so the variant is paired with the exhaustive sweep;
  // then it should essentially never lose to the paper variant by the true
  // pairwise objective.
  int wins_or_ties = 0;
  util::Rng rng(24);
  for (int trial = 0; trial < 10; ++trial) {
    auto g = topo::random_tree(rng);
    remos::NetworkSnapshot snap(g);
    for (auto n : g.compute_nodes())
      snap.set_loadavg(n, rng.uniform(0.0, 2.0));
    for (std::size_t l = 0; l < g.link_count(); ++l) {
      auto id = static_cast<topo::LinkId>(l);
      snap.set_bw(id, rng.uniform(0.1, 1.0) * snap.maxbw(id));
    }
    SelectionOptions opt;
    opt.num_nodes = 4;
    auto paper = select_balanced(snap, opt);
    opt.steiner_restricted = true;
    opt.exhaustive_balanced = true;
    auto steiner = select_balanced(snap, opt);
    ASSERT_TRUE(paper.feasible);
    ASSERT_TRUE(steiner.feasible);
    opt.steiner_restricted = false;
    opt.exhaustive_balanced = false;
    double paper_val = evaluate_set(snap, paper.nodes, opt).balanced;
    double steiner_val = evaluate_set(snap, steiner.nodes, opt).balanced;
    if (steiner_val >= paper_val - 1e-9) ++wins_or_ties;
  }
  EXPECT_GE(wins_or_ties, 8);
}

TEST(Balanced, InfeasibleAndDegenerateCases) {
  auto g = topo::star(3);
  remos::NetworkSnapshot snap(g);
  SelectionOptions opt;
  opt.num_nodes = 4;
  EXPECT_FALSE(select_balanced(snap, opt).feasible);
  opt.num_nodes = 1;
  auto r = select_balanced(snap, opt);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.nodes.size(), 1u);
  opt.num_nodes = 3;
  r = select_balanced(snap, opt);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.nodes.size(), 3u);
}

TEST(Balanced, MinCpuRequirementExcludesBusyNodes) {
  auto g = topo::star(5);
  remos::NetworkSnapshot snap(g);
  snap.set_loadavg(1, 4.0);  // cpu 0.2
  snap.set_loadavg(2, 4.0);
  SelectionOptions opt;
  opt.num_nodes = 3;
  opt.min_cpu_fraction = 0.5;
  auto r = select_balanced(snap, opt);
  ASSERT_TRUE(r.feasible);
  for (auto n : r.nodes) EXPECT_GE(snap.cpu(n), 0.5);
  opt.num_nodes = 4;
  EXPECT_FALSE(select_balanced(snap, opt).feasible);
}

}  // namespace
}  // namespace netsel::select
