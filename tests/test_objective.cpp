#include "select/objective.hpp"

#include <gtest/gtest.h>

#include "topo/generators.hpp"

namespace netsel::select {
namespace {

TEST(EvaluateSet, SingleNodeReportsNicAvailability) {
  // A size-1 set has no node pairs; the bandwidth figures report the node's
  // best incident link availability instead of the vacuous +inf minimum.
  auto g = topo::star(3);
  remos::NetworkSnapshot snap(g);
  snap.set_cpu(1, 0.5);
  auto ev = evaluate_set(snap, {1});
  EXPECT_TRUE(ev.connected);
  EXPECT_DOUBLE_EQ(ev.min_cpu, 0.5);
  EXPECT_DOUBLE_EQ(ev.min_pair_bw, 100e6);
  EXPECT_DOUBLE_EQ(ev.min_pair_bw_fraction, 1.0);
  EXPECT_DOUBLE_EQ(ev.balanced, 0.5);
}

TEST(EvaluateSet, PairBottleneckIsMinLinkOnPath) {
  auto g = topo::dumbbell(1, 1, 100e6, 10e6);
  remos::NetworkSnapshot snap(g);
  auto cn = g.compute_nodes();
  auto ev = evaluate_set(snap, cn);
  EXPECT_DOUBLE_EQ(ev.min_pair_bw, 10e6);
  EXPECT_DOUBLE_EQ(ev.min_pair_bw_fraction, 1.0);  // bottleneck at full cap
}

TEST(EvaluateSet, FractionUsesDynamicAvailability) {
  auto g = topo::star(3);
  remos::NetworkSnapshot snap(g);
  snap.set_bw(0, 25e6);  // h0's access link 25% available
  auto cn = g.compute_nodes();
  auto ev = evaluate_set(snap, cn);
  EXPECT_DOUBLE_EQ(ev.min_pair_bw, 25e6);
  EXPECT_DOUBLE_EQ(ev.min_pair_bw_fraction, 0.25);
}

TEST(EvaluateSet, BalancedUsesPriorities) {
  auto g = topo::star(2);
  remos::NetworkSnapshot snap(g);
  snap.set_cpu(1, 0.5);
  SelectionOptions opt;
  opt.cpu_priority = 2.0;
  auto ev = evaluate_set(snap, g.compute_nodes(), opt);
  // min(0.5/2, 1.0/1) = 0.25.
  EXPECT_DOUBLE_EQ(ev.balanced, 0.25);
}

TEST(EvaluateSet, MinCpuOverSet) {
  auto g = topo::star(4);
  remos::NetworkSnapshot snap(g);
  snap.set_cpu(1, 0.8);
  snap.set_cpu(2, 0.3);
  snap.set_cpu(3, 0.9);
  auto ev = evaluate_set(snap, {1, 2, 3});
  EXPECT_DOUBLE_EQ(ev.min_cpu, 0.3);
}

TEST(EvaluateSet, Rejections) {
  auto g = topo::star(2);
  remos::NetworkSnapshot snap(g);
  EXPECT_THROW(evaluate_set(snap, {}), std::invalid_argument);
  EXPECT_THROW(evaluate_set(snap, {0}), std::invalid_argument);  // switch node
}

TEST(SteinerLinks, UnionOfPaths) {
  auto g = topo::testbed();
  std::vector<char> active(g.link_count(), 1);
  auto m1 = g.find_node("m-1").value();
  auto m2 = g.find_node("m-2").value();
  auto m13 = g.find_node("m-13").value();
  auto links = steiner_links(g, active, {m1, m2, m13});
  // Union: m1 & m2 access links, panama--gibraltar, gibraltar--suez, m13
  // access link = 5 links.
  EXPECT_EQ(links.size(), 5u);
}

TEST(SteinerLinks, RespectsMask) {
  auto g = topo::star(3);
  std::vector<char> active(g.link_count(), 1);
  active[0] = 0;  // h0's access link removed: h0 unreachable
  auto links = steiner_links(g, active, {1, 2});
  EXPECT_TRUE(links.empty());
  auto links23 = steiner_links(g, active, {2, 3});
  EXPECT_EQ(links23.size(), 2u);
}

TEST(EvaluateSet, HeterogeneousReferenceCapacity) {
  topo::TopologyGraph g;
  auto sw = g.add_network("sw");
  auto slow = g.add_compute("slow", 1.0);
  auto fast = g.add_compute("fast", 4.0);
  g.add_link(sw, slow, 100e6);
  g.add_link(sw, fast, 100e6);
  remos::NetworkSnapshot snap(g);
  snap.set_cpu(fast, 0.5);  // half of a 4x node = 2 reference units
  SelectionOptions opt;
  opt.reference_cpu_capacity = 1.0;
  auto ev = evaluate_set(snap, {slow, fast}, opt);
  EXPECT_DOUBLE_EQ(ev.min_cpu, 1.0);  // the slow node at full availability
  EXPECT_DOUBLE_EQ(snap.cpu_reference(fast, 1.0), 2.0);
}

}  // namespace
}  // namespace netsel::select
