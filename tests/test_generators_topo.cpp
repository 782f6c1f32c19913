#include "topo/generators.hpp"

#include <gtest/gtest.h>

namespace netsel::topo {
namespace {

TEST(Testbed, MatchesFigure4) {
  auto g = testbed();
  EXPECT_EQ(g.node_count(), 21u);  // 18 Alphas + 3 routers
  EXPECT_EQ(g.compute_node_count(), 18u);
  EXPECT_EQ(g.link_count(), 20u);  // 18 access + 2 backbone
  ASSERT_TRUE(g.find_node("panama").has_value());
  ASSERT_TRUE(g.find_node("gibraltar").has_value());
  ASSERT_TRUE(g.find_node("suez").has_value());
  for (int i = 1; i <= 18; ++i)
    EXPECT_TRUE(g.find_node("m-" + std::to_string(i)).has_value());
  EXPECT_TRUE(g.is_acyclic());
}

TEST(Testbed, AtmLinkIs155Mbps) {
  auto g = testbed();
  NodeId gib = g.find_node("gibraltar").value();
  NodeId suez = g.find_node("suez").value();
  bool found = false;
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    const Link& lk = g.link(static_cast<LinkId>(l));
    if ((lk.a == gib && lk.b == suez) || (lk.a == suez && lk.b == gib)) {
      EXPECT_DOUBLE_EQ(lk.capacity_ab, k155Mbps);
      found = true;
    } else {
      EXPECT_DOUBLE_EQ(lk.capacity_ab, k100Mbps);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Testbed, HostsAreTaggedAlpha) {
  auto g = testbed();
  for (NodeId n : g.compute_nodes()) EXPECT_TRUE(g.has_tag(n, "alpha"));
}

TEST(Testbed, HostsAttachedSixPerRouter) {
  auto g = testbed();
  EXPECT_EQ(g.degree(g.find_node("panama").value()), 7u);     // 6 hosts + 1 trunk
  EXPECT_EQ(g.degree(g.find_node("gibraltar").value()), 8u);  // 6 hosts + 2 trunks
  EXPECT_EQ(g.degree(g.find_node("suez").value()), 7u);
  for (NodeId n : g.compute_nodes()) EXPECT_EQ(g.degree(n), 1u);
}

TEST(Star, ShapeAndValidation) {
  auto g = star(5, 10e6);
  EXPECT_EQ(g.node_count(), 6u);
  EXPECT_EQ(g.compute_node_count(), 5u);
  EXPECT_EQ(g.link_count(), 5u);
  EXPECT_DOUBLE_EQ(g.link(0).capacity_ab, 10e6);
  EXPECT_THROW(star(0), std::invalid_argument);
}

TEST(Dumbbell, ShapeAndBottleneck) {
  auto g = dumbbell(3, 4, k100Mbps, 10e6);
  EXPECT_EQ(g.compute_node_count(), 7u);
  EXPECT_EQ(g.node_count(), 9u);
  EXPECT_EQ(g.link_name(0), "bottleneck");
  EXPECT_DOUBLE_EQ(g.link(0).capacity_ab, 10e6);
  EXPECT_THROW(dumbbell(0, 1), std::invalid_argument);
}

TEST(TwoLevelTree, Shape) {
  auto g = two_level_tree(3, 4);
  EXPECT_EQ(g.node_count(), 1u + 3u + 12u);
  EXPECT_EQ(g.compute_node_count(), 12u);
  EXPECT_TRUE(g.is_acyclic());
  EXPECT_THROW(two_level_tree(0, 1), std::invalid_argument);
}

TEST(RandomTree, DefaultShapeIsValidTree) {
  util::Rng rng(42);
  auto g = random_tree(rng);
  EXPECT_EQ(g.compute_node_count(), 16u);
  EXPECT_EQ(g.node_count(), 20u);
  EXPECT_TRUE(g.is_acyclic());
  EXPECT_EQ(g.link_count(), g.node_count() - 1);
}

TEST(RandomTree, HostsAreLeavesWhenRequested) {
  util::Rng rng(43);
  RandomTreeOptions opt;
  opt.compute_nodes = 10;
  opt.network_nodes = 3;
  auto g = random_tree(rng, opt);
  for (NodeId n : g.compute_nodes()) EXPECT_EQ(g.degree(n), 1u);
}

TEST(RandomTree, MixedPositionsWhenAllowed) {
  util::Rng rng(44);
  RandomTreeOptions opt;
  opt.compute_nodes = 30;
  opt.network_nodes = 0;
  opt.hosts_are_leaves = false;
  auto g = random_tree(rng, opt);
  EXPECT_EQ(g.node_count(), 30u);
  EXPECT_TRUE(g.is_acyclic());
}

TEST(RandomTree, BandwidthsWithinRange) {
  util::Rng rng(45);
  RandomTreeOptions opt;
  opt.min_bw = 5e6;
  opt.max_bw = 20e6;
  auto g = random_tree(rng, opt);
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    EXPECT_GE(g.link(static_cast<LinkId>(l)).capacity_ab, 5e6);
    EXPECT_LE(g.link(static_cast<LinkId>(l)).capacity_ab, 20e6);
  }
}

TEST(RandomTree, DeterministicPerSeed) {
  util::Rng r1(7), r2(7);
  auto g1 = random_tree(r1);
  auto g2 = random_tree(r2);
  ASSERT_EQ(g1.link_count(), g2.link_count());
  for (std::size_t l = 0; l < g1.link_count(); ++l) {
    EXPECT_EQ(g1.link(static_cast<LinkId>(l)).a, g2.link(static_cast<LinkId>(l)).a);
    EXPECT_EQ(g1.link(static_cast<LinkId>(l)).b, g2.link(static_cast<LinkId>(l)).b);
    EXPECT_DOUBLE_EQ(g1.link(static_cast<LinkId>(l)).capacity_ab,
                     g2.link(static_cast<LinkId>(l)).capacity_ab);
  }
}

TEST(RandomTree, Rejections) {
  util::Rng rng(1);
  RandomTreeOptions opt;
  opt.compute_nodes = 0;
  EXPECT_THROW(random_tree(rng, opt), std::invalid_argument);
  opt.compute_nodes = 4;
  opt.network_nodes = 0;
  opt.hosts_are_leaves = true;
  EXPECT_THROW(random_tree(rng, opt), std::invalid_argument);
  opt.network_nodes = 2;
  opt.min_bw = 10.0;
  opt.max_bw = 5.0;
  EXPECT_THROW(random_tree(rng, opt), std::invalid_argument);
}

}  // namespace
}  // namespace netsel::topo
