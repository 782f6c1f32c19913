#include "topo/graph.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "topo/dot.hpp"
#include "topo/generators.hpp"
#include "topo/parse.hpp"
#include "util/rng.hpp"

namespace netsel::topo {
namespace {

TopologyGraph tiny() {
  TopologyGraph g;
  NodeId sw = g.add_network("sw");
  g.add_compute("a");
  g.add_compute("b", 2.0, {"alpha"});
  g.add_link(sw, 1, 100e6);
  g.add_link(sw, 2, 155e6, 55e6, "asym");
  return g;
}

TEST(Graph, BasicAccessors) {
  auto g = tiny();
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.link_count(), 2u);
  EXPECT_EQ(g.compute_node_count(), 2u);
  EXPECT_EQ(g.node(0).kind(), NodeKind::Network);
  EXPECT_EQ(g.node(1).kind(), NodeKind::Compute);
  EXPECT_TRUE(g.is_compute(1));
  EXPECT_FALSE(g.is_compute(0));
  EXPECT_EQ(g.node(2).cpu_capacity, 2.0);
  EXPECT_EQ(g.node_name(0), "sw");
  EXPECT_EQ(g.node_name(2), "b");
  EXPECT_THROW(g.node_name(-1), std::out_of_range);
  EXPECT_THROW(g.node_name(static_cast<NodeId>(g.node_count())),
               std::out_of_range);
  EXPECT_TRUE(g.has_tag(2, "alpha"));
  EXPECT_FALSE(g.has_tag(1, "alpha"));
  ASSERT_EQ(g.tags(2).size(), 1u);
  EXPECT_EQ(g.tags(2)[0], "alpha");
  EXPECT_TRUE(g.tags(1).empty());
  EXPECT_TRUE(g.tags(0).empty());
  EXPECT_THROW(g.tags(3), std::out_of_range);
  // kind() reads any capacity above 0 as a compute node.
  const NodeId tiny_cpu =
      g.add_compute("tiny", std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(g.node(tiny_cpu).kind(), NodeKind::Compute);
  EXPECT_TRUE(g.is_compute(tiny_cpu));
  EXPECT_EQ(g.node_name(tiny_cpu), "tiny");
}

TEST(Graph, FindNodeByName) {
  auto g = tiny();
  EXPECT_EQ(g.find_node("sw"), std::optional<NodeId>(0));
  EXPECT_EQ(g.find_node("b"), std::optional<NodeId>(2));
  EXPECT_FALSE(g.find_node("zzz").has_value());
}

TEST(Graph, ComputeNodesInIdOrder) {
  auto g = tiny();
  auto cn = g.compute_nodes();
  ASSERT_EQ(cn.size(), 2u);
  EXPECT_EQ(cn[0], 1);
  EXPECT_EQ(cn[1], 2);
}

TEST(Graph, OtherEnd) {
  auto g = tiny();
  EXPECT_EQ(g.other_end(0, 0), 1);
  EXPECT_EQ(g.other_end(0, 1), 0);
  EXPECT_THROW(g.other_end(0, 2), std::invalid_argument);
}

TEST(Graph, LinksOfAndDegree) {
  auto g = tiny();
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 1u);
  auto ls = g.links_of(0);
  EXPECT_EQ(ls.size(), 2u);
}

TEST(Graph, LinkCapacities) {
  auto g = tiny();
  EXPECT_DOUBLE_EQ(g.link(0).capacity_min(), 100e6);
  // Asymmetric link: min over the two directions (paper §3.3).
  EXPECT_DOUBLE_EQ(g.link(1).capacity_min(), 55e6);
  EXPECT_EQ(g.link_name(1), "asym");
  EXPECT_EQ(g.explicit_link_name(1), "asym");
  // Derived name, built on read and not stored.
  EXPECT_EQ(g.link_name(0), "sw--a");
  EXPECT_EQ(g.explicit_link_name(0), "");
  EXPECT_THROW(g.link_name(2), std::out_of_range);
}

TEST(Graph, RecordLayout) {
  // Node names live in one arena, link names and tags in id-sorted side
  // vectors, not in every record; a node's kind is read off its capacity.
  static_assert(sizeof(Link) == 32);
  static_assert(sizeof(Node) == 16);
}

TEST(Graph, SideVectorsFollowIdsThroughRemovals) {
  TopologyGraph g;
  const NodeId sw = g.add_network("sw");
  const NodeId a = g.add_compute("a", 1.0, {"x"});
  const NodeId b = g.add_compute("b");
  const NodeId c = g.add_compute("c", 1.0, {"y", "z"});
  const LinkId la = g.add_link(sw, a, 1e6, 1e6, "up-a");
  const LinkId lb = g.add_link(sw, b, 1e6);
  const LinkId lc = g.add_link(c, sw, 1e6, 2e6, "up-c");
  g.remove_link(la);
  g.remove_node(a);
  // A removed record keeps its name and tags under its old id.
  EXPECT_EQ(g.link_name(la), "up-a");
  EXPECT_TRUE(g.has_tag(a, "x"));
  const NodeId a2 = g.add_compute("a", 1.0, {"w"});
  const LinkId la2 = g.add_link(sw, a2, 1e6);
  EXPECT_EQ(g.link_name(lb), "sw--b");
  EXPECT_EQ(g.link_name(lc), "up-c");
  EXPECT_EQ(g.link_name(la2), "sw--a");
  EXPECT_TRUE(g.has_tag(c, "z"));
  EXPECT_FALSE(g.has_tag(b, "x"));
  EXPECT_TRUE(g.has_tag(a2, "w"));
  EXPECT_FALSE(g.has_tag(a2, "x"));
}

/// The graph as .topo text plus the counts format_topology leaves out.
std::string state(const TopologyGraph& g) {
  return std::to_string(g.node_count()) + "/" + std::to_string(g.link_count()) +
         "\n" + format_topology(g);
}

TEST(GraphTokens, AddComputeRejectsNameOrTagTheFormatCannotCarry) {
  auto g = tiny();
  const std::string before = state(g);
  for (const char* name : {"rack 1", "rack\t1", "rack#1", "rack\n1", " r"})
    EXPECT_THROW(g.add_compute(name), std::invalid_argument) << name;
  for (const char* tag : {"x,y", "x y", "x#", ",", "\t"})
    EXPECT_THROW(g.add_compute("c", 1.0, {"ok", tag}), std::invalid_argument)
        << tag;
  EXPECT_EQ(state(g), before);
  EXPECT_FALSE(g.find_node("c").has_value());
  // The names a .topo token can carry are accepted.
  const NodeId c = g.add_compute("c", 1.0, {"x-y", "x.y", "x=y"});
  EXPECT_TRUE(g.has_tag(c, "x=y"));
}

TEST(GraphTokens, AddNetworkRejectsNameTheFormatCannotCarry) {
  auto g = tiny();
  const std::string before = state(g);
  for (const char* name : {"core 1", "core#1", "core\r"})
    EXPECT_THROW(g.add_network(name), std::invalid_argument) << name;
  EXPECT_EQ(state(g), before);
  EXPECT_FALSE(g.find_node("core").has_value());
  // A comma is fine in a node name: only tag lists split on it.
  EXPECT_NO_THROW(g.add_network("core,1"));
}

TEST(GraphTokens, AddLinkRejectsNameTheFormatCannotCarry) {
  auto g = tiny();
  const std::string before = state(g);
  const std::vector<std::size_t> degrees{g.degree(0), g.degree(1), g.degree(2)};
  for (const char* name : {"up link", "up#1", "up\t"}) {
    EXPECT_THROW(g.add_link(0, 1, 1e6, 1e6, name), std::invalid_argument)
        << name;
    TopologyGraph::LinkSpec spec;
    spec.capacity_ab = 1e6;
    spec.name = name;
    EXPECT_THROW(g.add_link(0, 2, spec), std::invalid_argument) << name;
  }
  EXPECT_EQ(state(g), before);
  EXPECT_EQ(degrees,
            (std::vector<std::size_t>{g.degree(0), g.degree(1), g.degree(2)}));
  EXPECT_EQ(g.link_name(g.add_link(0, 1, 1e6, 1e6, "up,1")), "up,1");
}

TEST(Graph, RejectsDuplicateName) {
  TopologyGraph g;
  g.add_compute("x");
  EXPECT_THROW(g.add_compute("x"), std::invalid_argument);
  EXPECT_THROW(g.add_network("x"), std::invalid_argument);
}

TEST(Graph, RejectsEmptyName) {
  TopologyGraph g;
  EXPECT_THROW(g.add_compute(""), std::invalid_argument);
}

TEST(Graph, RejectsBadCapacity) {
  TopologyGraph g;
  EXPECT_THROW(g.add_compute("x", 0.0), std::invalid_argument);
  EXPECT_THROW(g.add_compute("y", -1.0), std::invalid_argument);
}

TEST(Graph, RejectsBadLinks) {
  TopologyGraph g;
  NodeId a = g.add_compute("a");
  NodeId b = g.add_compute("b");
  EXPECT_THROW(g.add_link(a, a, 1e6), std::invalid_argument);   // self loop
  EXPECT_THROW(g.add_link(a, b, 0.0), std::invalid_argument);   // zero cap
  EXPECT_THROW(g.add_link(a, 99, 1e6), std::invalid_argument);  // bad id
  EXPECT_THROW(g.add_link(-1, b, 1e6), std::invalid_argument);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(GraphNonFinite, AddComputeRejectsNonFiniteCapacity) {
  TopologyGraph g;
  EXPECT_THROW(g.add_compute("x", kNaN), std::invalid_argument);
  EXPECT_THROW(g.add_compute("x", kInf), std::invalid_argument);
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_FALSE(g.find_node("x").has_value());
  EXPECT_NO_THROW(g.add_compute("x", 2.0));
}

TEST(GraphNonFinite, SetMemoryRejectsNonFiniteBytes) {
  TopologyGraph g;
  NodeId a = g.add_compute("a");
  EXPECT_THROW(g.set_memory(a, kNaN), std::invalid_argument);
  EXPECT_THROW(g.set_memory(a, kInf), std::invalid_argument);
  EXPECT_THROW(g.set_memory(a, -1.0), std::invalid_argument);
  EXPECT_EQ(g.node(a).memory_bytes, 0.0);
  g.set_memory(a, 4e9);
  EXPECT_EQ(g.node(a).memory_bytes, 4e9);
}

TEST(GraphNonFinite, AddLinkRejectsNonFiniteCapacity) {
  TopologyGraph g;
  NodeId a = g.add_compute("a");
  NodeId b = g.add_compute("b");
  EXPECT_THROW(g.add_link(a, b, kNaN), std::invalid_argument);
  EXPECT_THROW(g.add_link(a, b, kInf), std::invalid_argument);
  EXPECT_THROW(g.add_link(a, b, 1e6, kNaN), std::invalid_argument);
  EXPECT_THROW(g.add_link(a, b, kInf, 1e6), std::invalid_argument);
  TopologyGraph::LinkSpec spec;
  spec.capacity_ab = 1e6;
  spec.capacity_ba = kNaN;  // not "same as capacity_ab"
  EXPECT_THROW(g.add_link(a, b, spec), std::invalid_argument);
  spec.capacity_ba = kInf;
  EXPECT_THROW(g.add_link(a, b, spec), std::invalid_argument);
  spec.capacity_ab = kNaN;
  spec.capacity_ba = 0.0;
  EXPECT_THROW(g.add_link(a, b, spec), std::invalid_argument);
  EXPECT_EQ(g.link_count(), 0u);
  EXPECT_EQ(g.degree(a), 0u);
}

TEST(GraphNonFinite, AddLinkRejectsNonFiniteLatency) {
  TopologyGraph g;
  NodeId a = g.add_compute("a");
  NodeId b = g.add_compute("b");
  TopologyGraph::LinkSpec spec;
  spec.capacity_ab = 1e6;
  spec.latency = kNaN;
  EXPECT_THROW(g.add_link(a, b, spec), std::invalid_argument);
  spec.latency = kInf;
  EXPECT_THROW(g.add_link(a, b, spec), std::invalid_argument);
  EXPECT_EQ(g.link_count(), 0u);
  spec.latency = 1e-3;
  LinkId l = g.add_link(a, b, spec);
  EXPECT_EQ(g.link(l).latency, 1e-3);
}

TEST(GraphNameIndex, RemovedNameIsReusable) {
  auto g = tiny();
  const NodeId a = g.find_node("a").value();
  g.remove_link(0);  // sw--a
  g.remove_node(a);
  EXPECT_FALSE(g.find_node("a").has_value());
  // The removed record stays readable under its old id.
  EXPECT_EQ(g.node_name(a), "a");
  EXPECT_TRUE(g.node_removed(a));
  const NodeId again = g.add_compute("a", 3.0);
  EXPECT_NE(again, a);
  EXPECT_EQ(g.find_node("a"), std::optional<NodeId>(again));
  EXPECT_EQ(g.node(again).cpu_capacity, 3.0);
  // The other names are untouched.
  EXPECT_EQ(g.find_node("sw"), std::optional<NodeId>(0));
  EXPECT_EQ(g.find_node("b"), std::optional<NodeId>(2));
  // The reused name is taken again.
  EXPECT_THROW(g.add_network("a"), std::invalid_argument);
}

/// "n<i>": the node names of the index tests.
std::string node_name(int i) {
  std::string name = "n";
  name += std::to_string(i);
  return name;
}

TEST(GraphNameIndex, DuplicatesThrowAndLeaveTheGraphUnchanged) {
  TopologyGraph g;
  g.reserve(4, 0);
  for (int i = 0; i < 100; ++i) g.add_network(node_name(i));
  for (int i = 0; i < 100; i += 7) {
    EXPECT_THROW(g.add_compute(node_name(i)), std::invalid_argument);
    EXPECT_THROW(g.add_network(node_name(i)), std::invalid_argument);
  }
  EXPECT_EQ(g.node_count(), 100u);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(g.find_node(node_name(i)), std::optional<NodeId>(i));
}

TEST(GraphNameIndex, SeededChurnMatchesReferenceMap) {
  // Adds, removals, re-adds and lookups over a pool of names, checked
  // against std::unordered_map after every operation. The live set grows
  // past 1,000 names, so the table doubles from its initial 16 slots
  // through several growths, and removals run on full, clustered tables.
  util::Rng rng(20260517);
  TopologyGraph g;
  std::unordered_map<std::string, NodeId> ref;
  std::vector<std::string> names;  // by id, removed nodes' included
  std::vector<std::string> pool;
  for (int i = 0; i < 2000; ++i)
    pool.push_back((i % 3 == 0 ? "host-" : i % 3 == 1 ? "sw" : "p7-e") +
                   std::to_string(i * 7919 % 100003));
  auto pick = [&] {
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };
  for (int op = 0; op < 30000; ++op) {
    const std::string name = pick();
    const auto it = ref.find(name);
    const auto kind = rng.uniform_int(0, 9);
    if (kind < 5) {
      if (it != ref.end()) {
        EXPECT_THROW(g.add_network(name), std::invalid_argument) << name;
      } else {
        const NodeId id = g.add_network(name);
        EXPECT_EQ(static_cast<std::size_t>(id) + 1, g.node_count());
        ref.emplace(name, id);
        names.push_back(name);
      }
    } else if (kind < 8) {
      if (it != ref.end()) {
        g.remove_node(it->second);
        ref.erase(it);
      }
    } else {
      const auto found = g.find_node(name);
      if (it == ref.end()) {
        EXPECT_FALSE(found.has_value()) << name;
      } else {
        EXPECT_EQ(found, std::optional<NodeId>(it->second)) << name;
      }
    }
    ASSERT_EQ(g.node_count(), names.size());
    std::size_t wrong = 0;  // the first id whose name differs
    while (wrong < names.size() &&
           g.node_name(static_cast<NodeId>(wrong)) == names[wrong])
      ++wrong;
    ASSERT_EQ(wrong, names.size()) << "name of id " << wrong << " after op "
                                   << op;
    if (op % 1000 == 999) {
      for (const auto& n : pool) {
        const auto r = ref.find(n);
        EXPECT_EQ(g.find_node(n), r == ref.end() ? std::optional<NodeId>()
                                                 : std::optional<NodeId>(r->second))
            << n << " after op " << op;
      }
    }
  }
  EXPECT_GT(ref.size(), 1000u);
  EXPECT_GT(g.node_count(), 5000u);  // many ids were removed and re-added
}

TEST(GraphNameIndex, CopiedGraphLooksUpTheSame) {
  TopologyGraph g;
  for (int i = 0; i < 300; ++i) g.add_network(node_name(i));
  for (int i = 0; i < 300; i += 3) g.remove_node(i);
  const NodeId readded = g.add_network("n0");
  TopologyGraph copy = g;
  // Moved into a graph that already holds other names.
  TopologyGraph moved = tiny();
  moved = TopologyGraph(g);
  for (const TopologyGraph* other : {&copy, &moved}) {
    ASSERT_EQ(other->node_count(), g.node_count());
    for (std::size_t id = 0; id < g.node_count(); ++id)
      EXPECT_EQ(other->node_name(static_cast<NodeId>(id)),
                g.node_name(static_cast<NodeId>(id)))
          << id;
    for (int i = 0; i < 300; ++i) {
      const std::string name = node_name(i);
      EXPECT_EQ(other->find_node(name), g.find_node(name)) << name;
    }
  }
  EXPECT_FALSE(moved.find_node("sw").has_value());
  EXPECT_EQ(copy.find_node("n0"), std::optional<NodeId>(readded));
  // The copy's index is its own: mutating one leaves the other intact.
  copy.remove_node(readded);
  copy.add_network("n3");
  EXPECT_FALSE(copy.find_node("n0").has_value());
  EXPECT_EQ(g.find_node("n0"), std::optional<NodeId>(readded));
  EXPECT_FALSE(g.find_node("n3").has_value());
  EXPECT_TRUE(copy.find_node("n3").has_value());
}

/// A random tree over `nodes` switches plus a few cross links, some of them
/// removed, built without a single adjacency read.
TopologyGraph unread_mesh(int nodes) {
  TopologyGraph g;
  for (int i = 0; i < nodes; ++i) g.add_network(node_name(i));
  util::Rng rng(4242);
  for (int i = 1; i < nodes; ++i)
    g.add_link(static_cast<NodeId>(rng.uniform_int(0, i - 1)), i, 1e9);
  for (int k = 0; k < nodes / 4; ++k) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    const auto b = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    if (a != b) g.add_link(a, b, 1e8);
  }
  for (std::size_t l = 0; l < g.link_count(); l += 7)
    g.remove_link(static_cast<LinkId>(l));
  return g;
}

std::vector<std::vector<LinkId>> all_links_of(const TopologyGraph& g) {
  std::vector<std::vector<LinkId>> out;
  for (std::size_t n = 0; n < g.node_count(); ++n) {
    const auto s = g.links_of(static_cast<NodeId>(n));
    out.emplace_back(s.begin(), s.end());
  }
  return out;
}

TEST(GraphAdjacency, ConcurrentFirstReadsMatchASerialRead) {
  // Four threads race to make the first adjacency read of an unread graph:
  // whichever builds the CSR, every thread must see the complete one.
  TopologyGraph g = unread_mesh(3000);
  const auto want = all_links_of(unread_mesh(3000));
  std::vector<std::vector<std::vector<LinkId>>> got(4);
  std::vector<std::vector<std::size_t>> degrees(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t n = 0; n < g.node_count(); ++n) {
        const auto id = static_cast<NodeId>(n);
        const auto s = g.links_of(id);
        got[t].emplace_back(s.begin(), s.end());
        degrees[t].push_back(g.degree(id));
      }
    });
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(got[t], want) << "thread " << t;
    ASSERT_EQ(degrees[t].size(), want.size());
    for (std::size_t n = 0; n < want.size(); ++n)
      EXPECT_EQ(degrees[t][n], want[n].size()) << "thread " << t;
  }
}

TEST(GraphAdjacency, CopiesAndMovesCarryTheCsr) {
  TopologyGraph built = unread_mesh(200);
  const auto want = all_links_of(built);  // builds it
  TopologyGraph copy = built;
  EXPECT_EQ(all_links_of(copy), want);
  TopologyGraph moved = std::move(copy);
  EXPECT_EQ(all_links_of(moved), want);
  // Patches after the copy stay in the graph they were made in.
  const LinkId extra = moved.add_link(0, 199, 1e6);
  EXPECT_EQ(moved.links_of(0).back(), extra);
  EXPECT_EQ(all_links_of(built), want);
  // An unread graph copies unread; the copy builds its own CSR.
  EXPECT_EQ(all_links_of(TopologyGraph(unread_mesh(200))), want);
}

TEST(GraphValidate, AcceptsConnected) {
  EXPECT_NO_THROW(tiny().validate());
}

TEST(GraphValidate, RejectsEmpty) {
  TopologyGraph g;
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(GraphValidate, RejectsDisconnected) {
  TopologyGraph g;
  g.add_compute("a");
  g.add_compute("b");
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(GraphValidate, RejectsNoComputeNodes) {
  TopologyGraph g;
  g.add_network("s1");
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(GraphAcyclic, TreeIsAcyclic) {
  EXPECT_TRUE(tiny().is_acyclic());
  EXPECT_TRUE(testbed().is_acyclic());
}

TEST(GraphAcyclic, CycleDetected) {
  TopologyGraph g;
  NodeId a = g.add_network("a");
  NodeId b = g.add_network("b");
  NodeId c = g.add_network("c");
  g.add_compute("h");
  g.add_link(a, b, 1e6);
  g.add_link(b, c, 1e6);
  g.add_link(c, a, 1e6);
  g.add_link(a, 3, 1e6);
  EXPECT_FALSE(g.is_acyclic());
}

TEST(Dot, ExportsAllNodesAndHighlights) {
  auto g = testbed();
  DotOptions opt;
  opt.highlight = {g.find_node("m-1").value(), g.find_node("m-2").value()};
  std::string dot = to_dot(g, opt);
  EXPECT_NE(dot.find("\"panama\" [shape=box]"), std::string::npos);
  EXPECT_NE(dot.find("m-18"), std::string::npos);
  EXPECT_NE(dot.find("penwidth=3"), std::string::npos);
  EXPECT_NE(dot.find("155.0 Mbps"), std::string::npos);
}

TEST(Dot, CustomLinkLabelsValidated) {
  auto g = tiny();
  DotOptions opt;
  opt.link_labels = {"one"};  // wrong size
  EXPECT_THROW(to_dot(g, opt), std::invalid_argument);
  opt.link_labels = {"one", "two"};
  std::string dot = to_dot(g, opt);
  EXPECT_NE(dot.find("one"), std::string::npos);
  EXPECT_NE(dot.find("two"), std::string::npos);
}

}  // namespace
}  // namespace netsel::topo
