#include "topo/connectivity.hpp"

#include <gtest/gtest.h>

#include "topo/generators.hpp"

namespace netsel::topo {
namespace {

/// Node and compute-node counts of component `c`, read off comp_of.
struct Sizes {
  int nodes = 0;
  int computes = 0;
};

Sizes sizes_of(const TopologyGraph& g, const Components& comps, int c) {
  Sizes s;
  for (std::size_t i = 0; i < comps.comp_of.size(); ++i) {
    if (comps.comp_of[i] != c) continue;
    ++s.nodes;
    if (g.is_compute(static_cast<NodeId>(i))) ++s.computes;
  }
  return s;
}

TEST(Components, SingleComponentWhenAllActive) {
  auto g = testbed();
  auto c = connected_components(g);
  EXPECT_EQ(c.count, 1);
  EXPECT_EQ(sizes_of(g, c, 0).nodes, 21);
  EXPECT_EQ(sizes_of(g, c, 0).computes, 18);
}

TEST(Components, SplitsWhenBackboneRemoved) {
  auto g = testbed();
  // Deactivate the two router-router links (ids 0 and 1 by construction).
  std::vector<char> mask(g.link_count(), 1);
  mask[0] = 0;  // panama--gibraltar
  mask[1] = 0;  // gibraltar--suez
  auto c = connected_components(g, mask);
  EXPECT_EQ(c.count, 3);
  // Each router keeps its 6 hosts.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sizes_of(g, c, i).nodes, 7);
    EXPECT_EQ(sizes_of(g, c, i).computes, 6);
  }
}

TEST(Components, IsolatedHostWhenAccessLinkRemoved) {
  auto g = testbed();
  NodeId m1 = g.find_node("m-1").value();
  std::vector<char> mask(g.link_count(), 1);
  mask[static_cast<std::size_t>(g.links_of(m1)[0])] = 0;
  auto c = connected_components(g, mask);
  EXPECT_EQ(c.count, 2);
  int c_of_m1 = c.comp_of[static_cast<std::size_t>(m1)];
  EXPECT_EQ(sizes_of(g, c, c_of_m1).nodes, 1);
  EXPECT_EQ(sizes_of(g, c, c_of_m1).computes, 1);
}

TEST(Components, AllLinksRemovedEveryNodeAlone) {
  auto g = star(4);
  std::vector<char> mask(g.link_count(), 0);
  auto c = connected_components(g, mask);
  EXPECT_EQ(c.count, static_cast<int>(g.node_count()));
}

TEST(Components, MaskSizeMismatchThrows) {
  auto g = star(3);
  std::vector<char> bad(g.link_count() + 1, 1);
  EXPECT_THROW(connected_components(g, bad), std::invalid_argument);
}

}  // namespace
}  // namespace netsel::topo
