#include "topo/subgraph.hpp"

#include <gtest/gtest.h>

#include "remos/snapshot.hpp"
#include "topo/generators.hpp"

namespace netsel::topo {
namespace {

TEST(Subgraph, SpansRoutesOnly) {
  auto g = testbed();
  auto m1 = g.find_node("m-1").value();
  auto m2 = g.find_node("m-2").value();
  auto m13 = g.find_node("m-13").value();
  auto sub = extract_subgraph(g, {m1, m2, m13});
  // Relevant part: m-1, m-2, m-13, panama, gibraltar, suez.
  EXPECT_EQ(sub.graph.node_count(), 6u);
  EXPECT_EQ(sub.graph.link_count(), 5u);
  EXPECT_TRUE(sub.graph.find_node("gibraltar").has_value());
  EXPECT_FALSE(sub.graph.find_node("m-3").has_value());
  sub.graph.validate();
}

TEST(Subgraph, PreservesAttributes) {
  auto g = testbed();
  auto m7 = g.find_node("m-7").value();
  auto m13 = g.find_node("m-13").value();
  auto sub = extract_subgraph(g, {m7, m13});
  auto sm7 = sub.graph.find_node("m-7");
  ASSERT_TRUE(sm7.has_value());
  EXPECT_TRUE(sub.graph.has_tag(*sm7, "alpha"));
  // The ATM trunk survives with its capacity.
  bool found_atm = false;
  for (std::size_t l = 0; l < sub.graph.link_count(); ++l) {
    if (sub.graph.link(static_cast<LinkId>(l)).capacity_ab == k155Mbps)
      found_atm = true;
  }
  EXPECT_TRUE(found_atm);
}

TEST(Subgraph, MappingsAreConsistent) {
  auto g = testbed();
  auto m1 = g.find_node("m-1").value();
  auto m18 = g.find_node("m-18").value();
  auto sub = extract_subgraph(g, {m1, m18});
  for (std::size_t i = 0; i < sub.parent_node.size(); ++i) {
    auto sub_id = static_cast<NodeId>(i);
    NodeId parent_id = sub.parent_node[i];
    EXPECT_EQ(sub.graph.node_name(sub_id), g.node_name(parent_id));
    EXPECT_EQ(sub.to_sub(parent_id), sub_id);
  }
  EXPECT_EQ(sub.to_sub(g.find_node("m-9").value()), kInvalidNode);
  EXPECT_EQ(sub.to_sub(-5), kInvalidNode);
  for (std::size_t l = 0; l < sub.parent_link.size(); ++l) {
    auto sub_id = static_cast<LinkId>(l);
    EXPECT_DOUBLE_EQ(sub.graph.link(sub_id).capacity_ab,
                     g.link(sub.parent_link[l]).capacity_ab);
  }
}

TEST(Subgraph, SingleNode) {
  auto g = testbed();
  auto m1 = g.find_node("m-1").value();
  auto sub = extract_subgraph(g, {m1});
  EXPECT_EQ(sub.graph.node_count(), 1u);
  EXPECT_EQ(sub.graph.link_count(), 0u);
}

TEST(Subgraph, Rejections) {
  auto g = testbed();
  EXPECT_THROW(extract_subgraph(g, {}), std::invalid_argument);
  EXPECT_THROW(extract_subgraph(g, {-1}), std::invalid_argument);
  EXPECT_THROW(extract_subgraph(g, {999}), std::invalid_argument);
}

TEST(Subgraph, ProjectionCarriesAvailability) {
  auto g = testbed();
  auto m1 = g.find_node("m-1").value();
  auto m13 = g.find_node("m-13").value();
  remos::NetworkSnapshot parent(g);
  parent.set_loadavg(m1, 1.0);
  // Congest the ATM trunk asymmetrically.
  parent.set_bw_dir(1, true, 30e6);
  auto sub = extract_subgraph(g, {m1, m13});
  auto snap = remos::project_snapshot(parent, sub);
  auto sm1 = sub.graph.find_node("m-1").value();
  EXPECT_DOUBLE_EQ(snap.cpu(sm1), 0.5);
  bool found = false;
  for (std::size_t l = 0; l < sub.parent_link.size(); ++l) {
    if (sub.parent_link[l] == 1) {
      EXPECT_DOUBLE_EQ(snap.bw_dir(static_cast<LinkId>(l), true), 30e6);
      EXPECT_DOUBLE_EQ(snap.bw_dir(static_cast<LinkId>(l), false), k155Mbps);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "the ATM trunk must be in the m-1..m-13 subgraph";
}

}  // namespace
}  // namespace netsel::topo
